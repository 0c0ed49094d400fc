"""Exact linear algebra on column dicts: Smith form, solving, homology."""

import itertools
import math
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from twistq.exactlin import (ModuleInfo, NotAComplexError, _Factored,
                             _apply, _relabel, _smith, homology_segment,
                             solve_linear)


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


@st.composite
def _ops_and_vector(draw):
    """(n, ops, x): a modulus, a list of elementary operations on
    vectors of length m and a vector x, mostly zeros, so that many adds
    read a zero source."""
    n = draw(st.sampled_from([0, 4, 6, 9, 12]))
    m = draw(st.integers(2, 6))
    index = st.integers(0, m - 1)
    pair = st.tuples(index, index).filter(lambda p: p[0] != p[1])
    ops = draw(st.lists(st.one_of(
        st.builds(lambda p, q: p + (q,), pair, st.integers(-20, 20)),
        pair, st.tuples(index)), max_size=12))
    x = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 5, 11]),
                      min_size=m, max_size=m))
    return n, ops, x


class TestApply:
    """_apply against the dense product of the operations' matrices: a
    reduced vector stays reduced, since solves read residues."""

    @settings(max_examples=100, deadline=None)
    @given(_ops_and_vector())
    def test_list_dict_and_inverse(self, case):
        n, ops, x = case
        red = (lambda v: v % n) if n else (lambda v: v)
        x = [red(v) for v in x]
        want = [red(v) for v in _mv(_ops_matrix(ops, len(x)), x)]
        assert _apply(ops, list(x), n) == want
        sparse = _apply(ops, defaultdict(int, {i: v for i, v in enumerate(x)
                                               if v}), n)
        assert [sparse[i] for i in range(len(x))] == want
        assert _apply(ops, _apply(ops, list(x), n), n, inverse=True) == x


class TestKernelAndSolve:
    def test_kernel_spans(self):
        M = [[1, 1, 1]]
        info = homology_segment([], _cols(M, 0), 0, _cols(_identity(3), 0),
                                cycles=True)
        assert len(info.cycles) == 2
        for z in info.cycles:
            assert all(v == 0 for v in _mv(M, z))

    def test_solve_mod3(self):
        assert solve_linear(_cols([[2]], 3), [1], 3) == [2]

    def test_solve_parity_none(self):
        assert solve_linear(_cols([[2]], 0), [1], 0) is None

    def test_solve_free_parameter_zeroed(self):
        assert solve_linear(_cols([[1, 1]], 2), [0], 2) == [0, 0]

    def test_solve_length_mismatch(self):
        # the column names row 1, which b lacks
        with pytest.raises(ValueError, match="vector length mismatch"):
            solve_linear(_cols([[1], [1]], 0), [1], 0)

    def test_solve_integer(self):
        M = [[1, 2], [3, 4]]
        x = solve_linear(_cols(M, 0), [5, 11], 0)
        assert x is not None and _mv(M, x) == [5, 11]


class TestHomologySegment:
    def test_zero_maps(self):
        info = homology_segment([], _cols([], 3, 2), 3,
                                _cols([[-1, 0], [0, -1]], 3))
        assert info.invariant_factors == (3, 3)
        assert info.t_action == [[2, 0], [0, 2]]

    def test_not_a_complex(self):
        one = _cols([[1]], 0)
        with pytest.raises(NotAComplexError):
            homology_segment(one, one, 0, one)

    def test_free_summand(self):
        info = homology_segment([], _cols([], 0, 1), 0, _cols([[1]], 0))
        assert info.invariant_factors == (0,)
        assert info.describe() == "Z"

    def test_arguments_unchanged(self):
        # mod 3, cycles x0 == x1, boundaries x0 == x1, x2 == 0: H = Z_3
        in_cols = _cols([[1], [1], [0]], 3)
        out_cols = _cols([[1, 2, 0]], 3)
        t_cols = _cols([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 3)
        copies = [[dict(c) for c in m] for m in (in_cols, out_cols, t_cols)]
        info = homology_segment(in_cols, out_cols, 3, t_cols, cycles=True)
        assert info.invariant_factors == (3,)
        assert [in_cols, out_cols, t_cols] == copies

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
        x = solve_linear(_cols(rows, n), b, n)
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
            _cols(in_rows, n, len(bcols)), _cols(out_rows, n, r), n,
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


def _reference_factor(cols, nrows, n):
    """(diag, rows, cols) of the elimination by the documented pivot rule,
    found by a full scan at every step: the shortest column with a unit,
    ties to the lowest column index, then its lightest row, ties in dict
    order (the order in which rows entered the column)."""
    cols = [dict(c) for c in cols]
    diag, rops, cops = [], [], []

    def unit(a):
        return math.gcd(a, n) == 1 if n else a in (1, -1)

    while True:
        found = [(len(c), j) for j, c in enumerate(cols)
                 if any(unit(a) for a in c.values())]
        if not found:
            break
        j = min(found)[1]
        weight = [sum(i in c for c in cols) for i in range(nrows)]
        col = cols[j]
        i = min((i for i, a in col.items() if unit(a)),
                key=weight.__getitem__)
        inv = pow(col[i], -1, n) if n else col[i]
        cols[j] = {}
        diag.append((i, j, col[i]))
        for i2, v in col.items():
            if i2 != i:
                rops.append((i2, i, -v * inv % n if n else -v * inv))
        for j2, c2 in enumerate(cols):
            if i in c2:
                f = c2[i] * inv % n if n else c2[i] * inv
                cops.append((j, j2, f))
                for i2, v in col.items():
                    w = c2.get(i2, 0) - f * v
                    w = w % n if n else w
                    if w:
                        c2[i2] = w
                    else:
                        c2.pop(i2, None)
    core_cols = [j for j, c in enumerate(cols) if c]
    core_rows = sorted({i for j in core_cols for i in cols[j]})
    A = [[cols[j].get(i, 0) for j in core_cols] for i in core_rows]
    r, c = _smith(A)
    rops += _relabel(r, core_rows)
    cops += _relabel(c, core_cols)
    for t in range(min(len(core_rows), len(core_cols))):
        d = A[t][t] % n if n else A[t][t]
        if d:
            diag.append((core_rows[t], core_cols[t], d))
    return diag, rops, cops


@st.composite
def _sparse_matrix(draw):
    """Column dicts over Z/n (Z for n = 0), rows ascending, where most
    columns may be empty: a set of the few nonempty column indices does
    not iterate in ascending order."""
    n = draw(st.sampled_from([0, 4, 5, 6, 9]))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 40))
    filled = draw(st.floats(0.05, 1.0))
    entry = (st.integers(-3, 3).filter(bool) if n == 0
             else st.integers(1, n - 1))
    cols = []
    for _ in range(ncols):
        if draw(st.floats(0, 1)) < filled:
            rows = draw(st.sets(st.integers(0, nrows - 1), max_size=nrows))
            cols.append({i: draw(entry) for i in sorted(rows)})
        else:
            cols.append({})
    return cols, nrows, n


class TestPivotRule:
    @settings(max_examples=150, deadline=None)
    @given(_sparse_matrix())
    def test_pivots_follow_the_documented_rule(self, matrix):
        cols, nrows, n = matrix
        want = _reference_factor(cols, nrows, n)
        f = _Factored([dict(c) for c in cols], n)
        assert (f.diag, f.rows, f.cols) == want

    def test_ties_go_to_the_lowest_column(self):
        # {9, 3} iterates as 9, 3 in a set: the rule picks column 3
        cols = [{} for _ in range(10)]
        cols[3] = {0: 1, 1: 1}
        cols[9] = {0: 2, 1: 1}
        f = _Factored(cols, 5)
        assert f.diag[0] == (0, 3, 1)

    def test_row_lost_and_regained_before_its_pivot(self):
        # over Z: row 0's pivot cancels row 2 out of column 3, row 1's
        # fills it back in, so column 3 is listed twice for row 2 beside
        # the emptied columns 0 and 1; row 2's pivot (column 2, whose 2 is
        # no unit) fills row 4 into column 3, which column 4 then clears
        cols = [{0: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 4: 2},
                {0: 1, 1: 1, 2: 1, 3: 2}, {4: 1, 5: 2}]
        f = _Factored([dict(c) for c in cols], 0)
        assert [(i, j) for i, j, _ in f.diag[:4]] == [(0, 0), (1, 1), (2, 2),
                                                     (4, 4)]
        assert (f.diag, f.rows, f.cols) == _reference_factor(cols, 6, 0)
