"""Exact linear algebra over Z and Z/n: one factorization per matrix.

A matrix M is factored once as U M V == D over Z/n (over Z for n = 0),
with D zero except at one entry in each of some rows and columns.  A
sparse elimination does almost all of the work: column dicts hold the
matrix, entries are reduced mod n so that they cannot grow, and every
pivot is a unit of Z/n (+-1 over Z).  The block of non-units that it
leaves goes to the dense Smith normal form (Dumas, Saunders and
Villard, J. Symbolic Comput. 32 (2001)).  U and V are kept as the lists
of elementary operations that built them; one pass of _apply runs either
list, or its inverse, over a dense or a sparse vector, skipping adds
from zero entries.  Solves and homology all read the one factorization.

A matrix is the list of its columns as dicts {row: entry mod n}, rows
ascending, and nothing else: a map into the zero module is a list of
empty columns, and a solve takes its row count from the right-hand side.
Everything is plain Python integers, so nothing overflows.

The pivot is a unit in the shortest column that has one, ties going to
the lowest column index; within that column, the unit in the row with
the fewest entries, ties going to the first in the column's dict order
(ascending rows, then fill-in in the order it arose).  The generators
returned depend on this rule.  Active columns are kept in buckets by
length, so the search does not rescan them.  The columns that hold the
pivot row are read from a per-row list of the columns that row has
entered, filtered when it is read rather than pruned as rows leave
columns, so keeping it costs one append per entry and per fill.
"""

import math

__all__ = [
    "solve_linear",
    "ModuleInfo",
    "homology_segment",
    "NotAComplexError",
]


class NotAComplexError(ValueError):
    pass


# -- elementary operations ---------------------------------------------------
#
# An operation acts on a vector x in place: (i, j, q) adds q * x[j] to
# x[i], (i, j) swaps x[i] and x[j], (i,) negates x[i].  A list of them,
# [E_1, ..., E_k], stands for the product E_k ... E_1.


class _Sparse(dict):
    """A sparse vector {index: value}: a missing entry reads as 0, and the
    read inserts nothing, so the keys stay close to the nonzero entries."""

    __slots__ = ()

    def __missing__(self, key):
        return 0


def _apply(ops, x, n, inverse=False):
    """x <- E_k ... E_1 x, or E_1^-1 ... E_k^-1 x with inverse; changed
    entries are reduced mod n.  An add from a zero entry, a swap of two
    zeros and a negation of a zero are skipped, so x may be a dense list
    or a _Sparse, which gains no key from them.  A _Sparse's sources are
    read with get: most are missing, and __missing__ would cost a call
    for each."""
    get = x.get if isinstance(x, dict) else x.__getitem__
    for op in reversed(ops) if inverse else ops:
        if len(op) == 3:
            i, j, q = op
            v = get(j)
            if v:
                v = x[i] - q * v if inverse else x[i] + q * v
                x[i] = v % n if n else v
        elif len(op) == 2:
            i, j = op
            if get(i) or get(j):
                x[i], x[j] = x[j], x[i]
        elif get(op[0]):
            x[op[0]] = -x[op[0]] % n if n else -x[op[0]]
    return x


def _smith(A):
    """Bring the dense list of rows A to Smith normal form in place.

    Returns the operation lists (rows, cols) of U and of V^-1, so that
    U @ A @ V is the final A.  Pivot choice is deterministic: the nonzero
    entry of least magnitude in the remaining block, ties broken in
    row-major order.
    """
    n = len(A)
    m = len(A[0]) if A else 0
    rows, cols = [], []

    def row_swap(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            rows.append((i, j))

    def col_swap(i, j):
        if i != j:
            for r in A:
                r[i], r[j] = r[j], r[i]
            cols.append((i, j))

    def row_add(i, j, q):
        # row_i += q * row_j
        if q:
            A[i] = [a + q * b for a, b in zip(A[i], A[j])]
            rows.append((i, j, q))

    def col_add(i, j, q):
        # col_i += q * col_j; V^-1 takes x[j] -= q * x[i]
        if q:
            for r in A:
                r[i] += q * r[j]
            cols.append((j, i, -q))

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        rows.append((i,))

    def find_pivot(t):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                a = A[i][j]
                if a and (best is None or abs(a) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        return best

    def clear_at(t):
        """Make A[t][t] the gcd of its row/column and zero the rest."""
        while True:
            piv = find_pivot(t)
            if piv is None:
                return False
            row_swap(t, piv[0])
            col_swap(t, piv[1])
            dirty = False
            for i in range(t + 1, n):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t]:
                        dirty = True
            for j in range(t + 1, m):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j]:
                        dirty = True
            if not dirty:
                return True

    t = 0
    while t < min(n, m) and clear_at(t):
        t += 1
    rank = t

    # nonnegative diagonal
    for i in range(rank):
        if A[i][i] < 0:
            row_negate(i)

    # enforce the divisibility chain d_1 | d_2 | ... | d_rank
    def fix_pair(i):
        # 2x2 Smith form of rows/cols i, i+1 after coupling the columns;
        # turns diag(a, b) into diag(gcd, lcm) without touching the rest
        col_add(i, i + 1, 1)
        while A[i + 1][i] or A[i][i + 1]:
            if A[i + 1][i]:
                q = A[i + 1][i] // A[i][i]
                row_add(i + 1, i, -q)
                if A[i + 1][i]:
                    row_swap(i, i + 1)
                continue
            q = A[i][i + 1] // A[i][i]
            col_add(i + 1, i, -q)
            if A[i][i + 1]:
                col_swap(i, i + 1)
        if A[i][i] < 0:
            row_negate(i)
        if A[i + 1][i + 1] < 0:
            row_negate(i + 1)

    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if A[i + 1][i + 1] % A[i][i]:
                fix_pair(i)
                changed = True

    return rows, cols


# -- the factorization -------------------------------------------------------

class _Factored:
    """U M V == D over Z/n (n = 0: over Z), for M given by its column
    dicts (consumed).

    diag: [(row, col, d)], the nonzero entries of D, unit pivots first,
        then the diagonal of the non-unit block in Smith order.
    rows: the operations of U, kept when keep_u (else empty);
    cols: the operations of V^-1, kept when keep_v (else empty).  A
        kernel needs only V and a cokernel only U, and the lists are the
        bulk of the memory a factorization holds.
    core_cols: the tail of `cols` from the non-unit block.  The unit
        pivots' operations change only coordinates of pivot columns, so
        on every other coordinate V^-1 acts as core_cols alone.

    Pivots follow the module's rule: shortest column with a unit, then
    lowest column index, then lightest row, then dict order, searched
    in buckets of columns by length.  The Schur step reaches the columns
    holding the pivot row through held[row], the columns the row has
    entered; an entry whose column has since lost the row is skipped.
    """

    def __init__(self, cols, n, keep_u=True, keep_v=True):
        self.n = n
        self.diag, self.rows, self.cols = [], [], []
        # entries per row, exact, for the pivot rule
        weight = [0] * (1 + max((max(c) for c in cols if c), default=-1))
        # held[i]: the columns that have held row i, with repeats and
        # stale entries; filtered when read, None once row i is pivoted
        held = [[] for _ in weight]
        # the nonempty columns by length: {length: set of columns}
        by_len = {}
        for j, col in enumerate(cols):
            for i in col:
                weight[i] += 1
                held[i].append(j)
            if col:
                by_len.setdefault(len(col), set()).add(j)
        while True:
            piv = self._pivot(cols, weight, by_len)
            if piv is None:
                break
            i, j, inv = piv
            col = cols[j]
            cols[j] = {}
            _move(by_len, j, len(col), 0)
            for i2 in col:
                weight[i2] -= 1
            self.diag.append((i, j, col[i]))
            # row ops clear the pivot column; they touch nothing else
            if keep_u:
                for i2, v in col.items():
                    if i2 != i:
                        q = -v * inv
                        self.rows.append((i2, i, q % n if n else q))
            # column ops clear the pivot row: the Schur complement, on the
            # columns that hold row i, ascending (pivot columns are empty);
            # no later fill can bring row i back
            hits = sorted({j2 for j2 in held[i] if i in cols[j2]})
            held[i] = None
            # f * col[i] == c2[i]: row i leaves c2, the other rows update
            rest = [(i2, v) for i2, v in col.items() if i2 != i]
            for j2 in hits:
                c2 = cols[j2]
                before = len(c2)
                f = c2.pop(i) * inv
                weight[i] -= 1
                if n:
                    f %= n
                if keep_v:
                    self.cols.append((j, j2, f))
                for i2, v in rest:
                    old = c2.get(i2)
                    if old is None:
                        w = -f * v % n if n else -f * v
                        if w:
                            c2[i2] = w
                            weight[i2] += 1
                            held[i2].append(j2)
                    else:
                        w = (old - f * v) % n if n else old - f * v
                        if w:
                            c2[i2] = w
                        else:
                            del c2[i2]
                            weight[i2] -= 1
                if len(c2) != before:
                    _move(by_len, j2, before, len(c2))

        # the block of non-units left over
        core_cols = [j for j, col in enumerate(cols) if col]
        core_rows = sorted({i for j in core_cols for i in cols[j]})
        A = [[cols[j].get(i, 0) for j in core_cols] for i in core_rows]
        rows, ops = _smith(A)
        if keep_u:
            self.rows.extend(_relabel(rows, core_rows))
        self.core_cols = _relabel(ops, core_cols) if keep_v else []
        self.cols.extend(self.core_cols)
        for t in range(min(len(core_rows), len(core_cols))):
            d = A[t][t] % n if n else A[t][t]
            if d:
                self.diag.append((core_rows[t], core_cols[t], d))

    def _pivot(self, cols, weight, by_len):
        """(row, col, inverse) of the pivot: a unit entry in the shortest
        column that has one, ties to the lowest column index, in its
        lightest row, ties in dict order; None when no unit is left."""
        n = self.n
        for length in sorted(by_len):
            for j in sorted(by_len[length]):
                col = cols[j]
                rows = [i for i, a in col.items()
                        if (math.gcd(a, n) == 1 if n else a in (1, -1))]
                if rows:
                    i = min(rows, key=weight.__getitem__)
                    a = col[i]
                    return i, j, pow(a, -1, n) if n else a
        return None


def _move(by_len, j, old, new):
    """Move column j from the bucket of length old to that of length new
    (new == 0: out of the buckets)."""
    bucket = by_len[old]
    bucket.discard(j)
    if not bucket:
        del by_len[old]
    if new:
        bucket = by_len.get(new)
        if bucket is None:
            by_len[new] = {j}
        else:
            bucket.add(j)


def _relabel(ops, names):
    return [tuple(names[k] for k in op[:2]) + op[2:] if len(op) == 3
            else tuple(names[k] for k in op) for op in ops]


def _image(cols, x, n):
    """M x for M given by its column dicts and x as {col: value}; the
    result as {row: value} without zero entries."""
    out = {}
    for j, v in x.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, 0) + a * v
    return {i: v for i, v in out.items() if (v % n if n else v)}


def solve_linear(cols, b, n):
    """Solve M x == b over Z (n = 0) or over Z/n, for M given by its
    column dicts (consumed); b has an entry for every row.

    Returns a solution vector or None; free coordinates are set to 0 and
    mod-n solutions are reduced to canonical residues, so the result is
    deterministic.
    """
    if any(max(c) >= len(b) for c in cols if c):
        raise ValueError("vector length mismatch")
    w = [0] * len(cols)
    f = _Factored(cols, n)
    c = _apply(f.rows, [v % n if n else v for v in b], n)
    for i, j, d in f.diag:
        g = math.gcd(d, n)
        if c[i] % g:
            return None
        w[j] = (c[i] // g * pow(d // g, -1, n // g)) if n else c[i] // d
        c[i] = 0
    if any(c):
        return None
    x = _apply(f.cols, w, n, inverse=True)
    return [v % n for v in x] if n else x


class ModuleInfo:
    """A finitely generated abelian group with a T-action.

    invariant_factors: tuple (d_1, ..., d_k), each d_i | d_{i+1}, with 0
    meaning a free summand; factors equal to 1 are dropped.
    generators: cycle representatives (integer vectors in the ambient
    chain coordinates) mapping to the summand generators.
    t_action: matrix of the T-action in the generator basis, entries
    reduced modulo the row's invariant factor.
    cycles: generators of the whole cycle group, when asked for.
    """

    def __init__(self, invariant_factors, generators, t_action, cycles=()):
        self.invariant_factors = tuple(invariant_factors)
        self.generators = [list(g) for g in generators]
        self.t_action = [list(r) for r in t_action]
        self.cycles = [list(z) for z in cycles]

    def order(self):
        if any(d == 0 for d in self.invariant_factors):
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def describe(self):
        if not self.invariant_factors:
            return "0"
        parts = ["Z" if d == 0 else "Z_%d" % d for d in self.invariant_factors]
        return " x ".join(parts)

    def __repr__(self):
        return "ModuleInfo(%s)" % self.describe()


def homology_segment(in_cols, out_cols, n, t_cols, cycles=False):
    """Homology ker(d_out) / im(d_in) of a segment of free Z/n-modules
    (n = 0: Z-modules).

    d_in, d_out and the T-action on the middle coordinates are given by
    their column dicts (not consumed).  With cycles=True the result also
    lists generators of the whole cycle group ker(d_out).
    """
    r = len(out_cols)

    # cycles: for each column j of D (entry d, or none), V e_j times
    # n / gcd(d, n) spans the cycles in that direction; a cycle's
    # coordinate there is read off V^-1 x
    cyc = _Factored([dict(c) for c in out_cols], n, keep_u=False)
    d_of = {j: d for _, j, d in cyc.diag}
    kernel = []  # (column, scale, order): scale * V e_column has this order
    for j in range(r):
        g = math.gcd(d_of.get(j, 0), n)
        if g != 1 and (n or not g):
            kernel.append((j, n // g if n else 1, g))
    where = {j: t for t, (j, _, _) in enumerate(kernel)}

    def coordinates(x):
        """Cycle coordinates {t: value} of the cycle x ({row: value}),
        ascending when x's rows are: `rel`'s pivot tie-break reads them."""
        if cyc.core_cols:
            x = _apply(cyc.core_cols, _Sparse(x), n)
        out = {}
        for i, v in x.items():
            t = where.get(i)
            if t is not None:
                c = (v % n) // kernel[t][1] if n else v
                if c:
                    out[t] = c
        return dict(sorted(out.items())) if cyc.core_cols else out

    def chain_vector(c):
        """The chain of the cycle with coordinates c ({t: value})."""
        w = [0] * r
        for t, v in c.items():
            j, scale, _ = kernel[t]
            w[j] = v * scale
        x = _apply(cyc.cols, w, n, inverse=True)
        return [v % n for v in x] if n else x

    # boundaries and the orders of the cycle generators, in cycle
    # coordinates; its cokernel is the homology
    rel = []
    for j, col in enumerate(in_cols):
        if _image(out_cols, col, n):
            raise NotAComplexError("d_out . d_in != 0 at column %d" % j)
        rel.append(coordinates(col))
    rel.extend({t: g} for t, (_, _, g) in enumerate(kernel) if 1 < g < n)
    # callers pass d_in as a temporary: free it before the factorization
    del in_cols
    hom = _Factored(rel, n, keep_v=False)

    # summands: the non-unit pivots of the Smith block in order, then
    # the free directions; factor 1 summands vanish
    pivot_rows = {i for i, _, _ in hom.diag}
    summands = [(i, g) for i, _, d in hom.diag if (g := math.gcd(d, n)) != 1]
    summands.extend((t, n) for t in range(len(kernel)) if t not in pivot_rows)

    factors = [g for _, g in summands]
    gens = [chain_vector(_apply(hom.rows, _Sparse({t: 1}), n,
                                 inverse=True))
            for t, _ in summands]
    t_action = [[0] * len(gens) for _ in gens]
    for col, g in enumerate(gens):
        tv = _image(t_cols, {i: x for i, x in enumerate(g) if x}, n)
        if _image(out_cols, tv, n):
            raise NotAComplexError("T-action does not preserve cycles")
        s = _apply(hom.rows, _Sparse(coordinates(tv)), n)
        for row, (t, d) in enumerate(summands):
            t_action[row][col] = s[t] % d if d else s[t]

    basis = ([chain_vector({t: 1}) for t in range(len(kernel))]
             if cycles else [])
    return ModuleInfo(factors, gens, t_action, basis)
