"""Exact linear algebra on column dicts: Smith form, solving, homology."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from twistq.exactlin import (ModuleInfo, NotAComplexError, _smith,
                             homology_segment, solve_linear)


def _cols(rows, n, ncols=None):
    """The columns of a list of rows as dicts {row: entry mod n}, rows
    ascending; ncols is needed only when there are no rows."""
    cols = [{} for _ in range(len(rows[0]) if rows else ncols)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v % n if n else v:
                cols[j][i] = v % n if n else v
    return cols


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _mv(rows, x):
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _ops_matrix(ops, size, inverse=False):
    """E_k ... E_1 for the operation list [E_1, ..., E_k], or its
    inverse, as a list of rows: (i, j, q) adds q * x[j] to x[i], (i, j)
    swaps x[i] and x[j], (i,) negates x[i]."""
    cols = []
    for k in range(size):
        x = [int(i == k) for i in range(size)]
        for op in (reversed(ops) if inverse else ops):
            if len(op) == 3:
                i, j, q = op
                x[i] += -q * x[j] if inverse else q * x[j]
            elif len(op) == 2:
                x[op[0]], x[op[1]] = x[op[1]], x[op[0]]
            else:
                x[op[0]] = -x[op[0]]
        cols.append(x)
    return [list(r) for r in zip(*cols)] if cols else []


def _smith_form(m):
    """(D, U, V) with U m V == D, from _smith's operation lists."""
    d = [row[:] for row in m]
    rows, cols = _smith(d)
    return (d, _ops_matrix(rows, len(m)),
            _ops_matrix(cols, len(m[0]) if m else 0, inverse=True))


def _det(m):
    """Determinant by fraction-free expansion (small matrices only)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


class TestSmith:
    def test_hand_example(self):
        D, U, V = _smith_form([[2, 4], [6, 8]])
        assert [D[0][0], D[1][1]] == [2, 4]
        assert D[0][1] == D[1][0] == 0

    def test_zero(self):
        D, U, V = _smith_form([[0] * 3 for _ in range(2)])
        assert not any(any(row) for row in D)

    def test_identity_untouched(self):
        D, U, V = _smith_form(_identity(3))
        assert D == U == V == _identity(3)

    def test_transforms_exact(self):
        M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        D, U, V = _smith_form(M)
        assert _mul(_mul(U, M), V) == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1

    def test_divisibility(self):
        D, _, _ = _smith_form([[2, 0], [0, 3]])
        assert [D[0][0], D[1][1]] == [1, 6]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_random_invariants(self, rows):
        D, U, V = _smith_form(rows)
        assert _mul(_mul(U, rows), V) == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1
        diag = [D[i][i] for i in range(3)]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0 and b == 0 or b % max(a, 1) == 0
                               if a else b == 0)

    def test_deterministic(self):
        M = [[4, 2, 6], [2, 8, 10], [6, 10, 4]]
        assert _smith_form(M) == _smith_form([row[:] for row in M])


class TestKernelAndSolve:
    def test_kernel_spans(self):
        M = [[1, 1, 1]]
        info = homology_segment([], _cols(M, 0), 1, 0,
                                _cols(_identity(3), 0), cycles=True)
        assert len(info.cycles) == 2
        for z in info.cycles:
            assert all(v == 0 for v in _mv(M, z))

    def test_solve_mod3(self):
        assert solve_linear(_cols([[2]], 3), 1, [1], 3) == [2]

    def test_solve_parity_none(self):
        assert solve_linear(_cols([[2]], 0), 1, [1], 0) is None

    def test_solve_free_parameter_zeroed(self):
        assert solve_linear(_cols([[1, 1]], 2), 1, [0], 2) == [0, 0]

    def test_solve_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(_cols([[1]], 0), 1, [1, 2], 0)

    def test_solve_integer(self):
        M = [[1, 2], [3, 4]]
        x = solve_linear(_cols(M, 0), 2, [5, 11], 0)
        assert x is not None and _mv(M, x) == [5, 11]


class TestHomologySegment:
    def test_zero_maps(self):
        info = homology_segment([], _cols([], 3, 2), 0, 3,
                                _cols([[-1, 0], [0, -1]], 3))
        assert info.invariant_factors == (3, 3)
        assert info.t_action == [[2, 0], [0, 2]]

    def test_not_a_complex(self):
        one = _cols([[1]], 0)
        with pytest.raises(NotAComplexError):
            homology_segment(one, one, 1, 0, one)

    def test_free_summand(self):
        info = homology_segment([], _cols([], 0, 1), 0, 0, _cols([[1]], 0))
        assert info.invariant_factors == (0,)
        assert info.describe() == "Z"

    def test_describe(self):
        assert ModuleInfo((), [], []).describe() == "0"
        assert ModuleInfo((2, 6), [], []).describe() == "Z_2 x Z_6"
        assert ModuleInfo((3, 0), [], []).order() is None
        assert ModuleInfo((3, 3), [], []).order() == 9


# -- composite moduli, against enumeration ------------------------------------

MODULI = [0, 4, 6, 8, 9, 12]


def _minors_gcd(rows, k):
    """gcd of the k x k minors of a small matrix (1 for k == 0)."""
    g = 0 if k else 1
    for ri in itertools.combinations(range(len(rows)), k):
        for ci in itertools.combinations(range(len(rows[0])), k):
            g = math.gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
    return g


def _rank(rows):
    if not rows or not rows[0]:
        return 0
    return max(k for k in range(min(len(rows), len(rows[0])) + 1)
               if _minors_gcd(rows, k))


def _solvable_over_z(rows, b):
    """Integer solvability by determinantal divisors: A x = b has an
    integer solution iff A and [A | b] have the same rank k and the same
    gcd of k x k minors."""
    ext = [row + [v] for row, v in zip(rows, b)]
    k = _rank(rows)
    return _rank(ext) == k and _minors_gcd(rows, k) == _minors_gcd(ext, k)


def _elementary_divisors(rows):
    """Invariant factors of a small integer matrix from its determinantal
    divisors, nonzero ones only."""
    k = _rank(rows)
    return [_minors_gcd(rows, i) // _minors_gcd(rows, i - 1)
            for i in range(1, k + 1)]


@st.composite
def _small_system(draw):
    n = draw(st.sampled_from(MODULI))
    r = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    entry = st.integers(-12, 12)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    b = draw(st.lists(entry, min_size=r, max_size=r))
    return n, rows, b


class TestCompositeModuli:
    @settings(max_examples=150, deadline=None)
    @given(_small_system())
    def test_solve_matches_enumeration(self, system):
        n, rows, b = system
        x = solve_linear(_cols(rows, n), len(rows), b, n)
        if n == 0:
            expect = _solvable_over_z(rows, b)
            assert (x is not None) == expect
            if x is not None:
                assert _mv(rows, x) == b
            return
        expect = any(all(v % n == 0 for v in
                         (a - w for a, w in zip(_mv(rows, y), b)))
                     for y in itertools.product(range(n), repeat=len(rows[0])))
        assert (x is not None) == expect
        if x is not None:
            assert all(0 <= v < n for v in x)
            assert all((a - w) % n == 0 for a, w in zip(_mv(rows, x), b))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_homology_matches_enumeration(self, data):
        n = data.draw(st.sampled_from(MODULI))
        r = data.draw(st.integers(1, 3))
        s = data.draw(st.integers(0, 3))
        entry = st.integers(-3, 3) if n == 0 else st.integers(0, n - 1)
        out_rows = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                                      min_size=s, max_size=s))
        box = range(n) if n else range(-2, 3)
        cycles = [y for y in itertools.product(box, repeat=r)
                  if all((v % n if n else v) == 0 for v in _mv(out_rows, y))]
        picks = data.draw(st.lists(st.tuples(st.sampled_from(cycles),
                                             st.integers(1, 3)), max_size=3))
        bcols = [[k * v for v in y] for y, k in picks]
        in_rows = [list(row) for row in zip(*bcols)]
        scale = data.draw(st.integers(-2, 2))
        info = homology_segment(
            _cols(in_rows, n, len(bcols)), _cols(out_rows, n, r), s, n,
            _cols([[scale * v for v in row] for row in _identity(r)], n))
        factors = info.invariant_factors
        assert all(f != 1 for f in factors)
        assert all(b % a == 0 if a else b == 0
                   for a, b in zip(factors, factors[1:]))
        for g in info.generators:
            assert all((v % n if n else v) == 0 for v in _mv(out_rows, g))
        assert info.t_action == [
            [(scale % f if f else scale) if i == j else 0
             for j in range(len(factors))] for i, f in enumerate(factors)]
        if n == 0:
            torsion = [d for d in _elementary_divisors(in_rows)
                       if d != 1] if bcols else []
            free = r - _rank(out_rows) - (_rank(in_rows) if bcols else 0)
            assert list(factors) == torsion + [0] * free
            return
        # |H[m]| = #{h in H : m h == 0} for every divisor m of n fixes H
        bound = {tuple([0] * r)}
        frontier = list(bound)
        while frontier:
            base = frontier.pop()
            for col in bcols:
                nxt = tuple((a + v) % n for a, v in zip(base, col))
                if nxt not in bound:
                    bound.add(nxt)
                    frontier.append(nxt)
        for m in (m for m in range(1, n + 1) if n % m == 0):
            counted = sum(1 for z in cycles
                          if tuple(m * v % n for v in z) in bound)
            predicted = math.prod(math.gcd(f, m) for f in factors)
            assert counted == predicted * len(bound), (m, factors)
