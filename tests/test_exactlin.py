"""Exact integer linear algebra: Smith form, solving, module info."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from twistq.exactlin import (IntMatrix, ModuleInfo, NotAComplexError,
                             homology_segment, kernel_basis, lattice_basis,
                             smith_normal_form, solve_linear)


def _det2(m):
    return m.data[0][0] * m.data[1][1] - m.data[0][1] * m.data[1][0]


def _det(m):
    """Determinant by fraction-free expansion (small matrices only)."""
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m.data[0][0]
    total = 0
    for j in range(n):
        minor = IntMatrix(n - 1, n - 1,
                          [[m.data[i][k] for k in range(n) if k != j]
                           for i in range(1, n)])
        total += (-1) ** j * m.data[0][j] * _det(minor)
    return total


class TestSmith:
    def test_hand_example(self):
        D, U, V = smith_normal_form(IntMatrix(2, 2, [[2, 4], [6, 8]]))
        assert [D.data[0][0], D.data[1][1]] == [2, 4]
        assert D.data[0][1] == D.data[1][0] == 0

    def test_zero(self):
        D, U, V = smith_normal_form(IntMatrix(2, 3))
        assert D.is_zero()

    def test_identity_untouched(self):
        D, U, V = smith_normal_form(IntMatrix.identity(3))
        assert D == U == V == IntMatrix.identity(3)

    def test_transforms_exact(self):
        M = IntMatrix(3, 3, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        D, U, V = smith_normal_form(M)
        assert (U @ M) @ V == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1

    def test_divisibility(self):
        M = IntMatrix(2, 2, [[2, 0], [0, 3]])
        D, _, _ = smith_normal_form(M)
        assert [D.data[0][0], D.data[1][1]] == [1, 6]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_random_invariants(self, rows):
        M = IntMatrix(3, 3, rows)
        D, U, V = smith_normal_form(M)
        assert (U @ M) @ V == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1
        diag = [D.data[i][i] for i in range(3)]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert D.data[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0 and b == 0 or b % max(a, 1) == 0
                               if a else b == 0)

    def test_deterministic(self):
        M = IntMatrix(3, 3, [[4, 2, 6], [2, 8, 10], [6, 10, 4]])
        first = smith_normal_form(M)
        second = smith_normal_form(IntMatrix(3, 3, M.data))
        assert all(a == b for a, b in zip(first, second))


class TestKernelAndSolve:
    def test_kernel_spans(self):
        M = IntMatrix(1, 3, [[1, 1, 1]])
        basis = kernel_basis(M)
        assert len(basis) == 2
        for col in basis:
            assert all(v == 0 for v in (M @ col))

    def test_solve_mod3(self):
        assert solve_linear(IntMatrix(1, 1, [[2]]), [1], 3) == [2]

    def test_solve_parity_none(self):
        assert solve_linear(IntMatrix(1, 1, [[2]]), [1], 0) is None

    def test_solve_free_parameter_zeroed(self):
        assert solve_linear(IntMatrix(1, 2, [[1, 1]]), [0], 2) == [0, 0]

    def test_solve_integer(self):
        M = IntMatrix(2, 2, [[1, 2], [3, 4]])
        x = solve_linear(M, [5, 11], 0)
        assert x is not None and (M @ x) == [5, 11]

    def test_lattice_basis_projection(self):
        cols = [[2, 0], [0, 4], [2, 4]]
        basis = lattice_basis(cols, 2)
        # must generate the same lattice: 2Z x 4Z
        D, _, _ = smith_normal_form(IntMatrix.from_columns(basis, 2))
        assert [D.data[0][0], D.data[1][1]] == [2, 4]


class TestHomologySegment:
    def test_zero_maps(self):
        info = homology_segment(IntMatrix(2, 0), IntMatrix(0, 2),
                                IntMatrix.scalar(2, 3),
                                IntMatrix(2, 2, [[-1, 0], [0, -1]]))
        assert info.invariant_factors == (3, 3)
        assert info.t_action == [[2, 0], [0, 2]]

    def test_not_a_complex(self):
        d_out = IntMatrix(1, 1, [[1]])
        d_in = IntMatrix(1, 1, [[1]])
        with pytest.raises(NotAComplexError):
            homology_segment(d_in, d_out, IntMatrix(1, 0), IntMatrix.identity(1))

    def test_free_summand(self):
        info = homology_segment(IntMatrix(1, 0), IntMatrix(0, 1),
                                IntMatrix(1, 0), IntMatrix.identity(1))
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
            g = math.gcd(g, _det(IntMatrix(k, k, [[rows[i][j] for j in ci]
                                                  for i in ri])))
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
        M = IntMatrix(len(rows), len(rows[0]), rows)
        x = solve_linear(M, b, n)
        if n == 0:
            expect = _solvable_over_z(rows, b)
            assert (x is not None) == expect
            if x is not None:
                assert M @ x == b
            return
        expect = any(all(v % n == 0 for v in
                         (a - w for a, w in zip(M @ list(y), b)))
                     for y in itertools.product(range(n), repeat=M.cols))
        assert (x is not None) == expect
        if x is not None:
            assert all(0 <= v < n for v in x)
            assert all((a - w) % n == 0 for a, w in zip(M @ x, b))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_homology_matches_enumeration(self, data):
        n = data.draw(st.sampled_from(MODULI))
        r = data.draw(st.integers(1, 3))
        s = data.draw(st.integers(0, 3))
        entry = st.integers(-3, 3) if n == 0 else st.integers(0, n - 1)
        out_rows = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                                      min_size=s, max_size=s))
        d_out = IntMatrix(s, r, out_rows)
        box = range(n) if n else range(-2, 3)
        cycles = [y for y in itertools.product(box, repeat=r)
                  if all((v % n if n else v) == 0 for v in d_out @ list(y))]
        picks = data.draw(st.lists(st.tuples(st.sampled_from(cycles),
                                             st.integers(1, 3)), max_size=3))
        bcols = [[k * v for v in y] for y, k in picks]
        d_in = IntMatrix.from_columns(bcols, r)
        scale = data.draw(st.integers(-2, 2))
        info = homology_segment(
            d_in, d_out, IntMatrix.scalar(r, n) if n else IntMatrix(r, 0),
            IntMatrix.scalar(r, scale))
        factors = info.invariant_factors
        assert all(f != 1 for f in factors)
        assert all(b % a == 0 if a else b == 0
                   for a, b in zip(factors, factors[1:]))
        for g in info.generators:
            assert all((v % n if n else v) == 0 for v in d_out @ g)
        assert info.t_action == [
            [(scale % f if f else scale) if i == j else 0
             for j in range(len(factors))] for i, f in enumerate(factors)]
        if n == 0:
            torsion = [d for d in _elementary_divisors(
                [list(row) for row in d_in.data]) if d != 1] if bcols else []
            free = r - _rank(out_rows) - (_rank(d_in.data) if bcols else 0)
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
