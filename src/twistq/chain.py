"""Twisted chain and cochain complexes of a finite quandle.

The degree-n chain group is the free module over the coefficient ring on
n-tuples of quandle elements, with boundary

    d(x_1, ..., x_n) = sum_{i=1..n} (-1)^i [ T (x_1, ..., ^x_i, ..., x_n)
        - (x_1 * x_i, ..., x_{i-1} * x_i, x_{i+1}, ..., x_n) ]

and d == 0 in degrees <= 1.  Three variants are supported: "TR" uses all
tuples, "TD" the degenerate ones (some x_i == x_{i+1}), and "TQ" the
quotient, realized on the non-degenerate tuples by deleting degenerate
terms from the boundary.

A tuple is indexed by its base-|X| digits, so index order is
lexicographic order.  `_face_lists` gives each of an n-tuple's 2n - 1
faces as a fixed c_0 + c_1 T and one list of targets over the sources,
by index arithmetic and `_heads`, the table of acted heads.  `_columns`
merges them over a basis into d_n and delta^{n-1} (d_n's blocks, signed
by (-1)^n and transposed); `boundary` reads them on a chain's keys.
`delta` sums every source's faces at once over flat lists of the
cochain's values, heads again from `_heads`.  For TQ the column builder
keeps the targets in its basis and `boundary` the non-degenerate ones,
while `delta` reads a cochain on every target, degenerate or not.

`exactlin` is imported when it is used: by `homology`, `cohomology`
and `is_coboundary`, which run its elimination, and by the oracle for
its result type.  A cocycle construction, pairing or state sum never
loads it.
"""

import itertools
from collections import namedtuple
from functools import reduce
from operator import sub

from . import VARIANTS
from .coeff import RingError
from .limits import check_limit, integer, lines, once, power, show

__all__ = [
    "ComplexSpec",
    "Chain",
    "Cochain",
    "basis_tuples",
    "is_degenerate",
    "boundary",
    "homology",
    "cohomology",
    "delta",
    "is_cocycle",
    "require_cocycle",
    "is_coboundary",
    "pair",
    "brute_force_homology",
    "parse_cochain",
    "render_cochain",
]

class ComplexSpec(namedtuple("ComplexSpec", "x ring variant degree")):
    """The degree-`degree` group of the `variant` complex of the quandle
    x over `ring`: an immutable value, compared field by field."""

    __slots__ = ()

    def __new__(cls, x, ring, variant, degree):
        if variant not in VARIANTS:
            raise ValueError("variant must be one of %s" % (VARIANTS,))
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return super().__new__(cls, x, ring, variant, degree)

    def at_degree(self, degree):
        """The same complex in another degree."""
        return ComplexSpec(self.x, self.ring, self.variant, degree)


class _FormalSum:
    """Shared behaviour of chains and cochains: tuple -> ring element."""

    def __init__(self, ring, degree, values=None):
        self.ring = ring
        self.degree = degree
        self.values = {}
        if values:
            for key, v in dict(values).items():
                self.add_term(key, v)

    def add_term(self, key, v):
        key = tuple(int(k) for k in key)
        if len(key) != self.degree:
            raise ValueError("key %s has wrong length for degree %s"
                             % (show(key), show(self.degree)))
        s = self.ring.add(self.values.get(key, self.ring.zero()), v)
        if self.ring.is_zero(s):
            self.values.pop(key, None)
        else:
            self.values[key] = s

    def __call__(self, key):
        return self.values.get(tuple(key), self.ring.zero())

    def is_zero(self):
        return not self.values

    def __eq__(self, other):
        return (type(self) is type(other) and self.ring == other.ring
                and self.degree == other.degree and self.values == other.values)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, render_cochain(self).strip())


class Chain(_FormalSum):
    pass


class Cochain(_FormalSum):
    pass


def is_degenerate(key):
    return any(key[i] == key[i + 1] for i in range(len(key) - 1))


def _basis_size(q, n):
    """Refuse q^n, the number of n-tuples of a quandle of order q, past
    TWISTQ_MAX_BASIS."""
    count = power(q, n)
    check_limit(count, "basis", RingError, "degree-%s basis has %s tuples",
                n, count)


def basis_tuples(x, n, variant):
    """Basis tuples for the degree-n group, in lexicographic order."""
    kept = _indices(x.size, n, variant)  # refused before any tuple is made
    tuples = list(itertools.product(range(x.size), repeat=n))
    return [tuples[s] for s in kept]


def _indices(q, n, variant):
    """The ascending indices of the degree-n basis tuples, q the order:
    for TQ each prefix extended by every digit but its last, TD the rest."""
    _basis_size(q, n)
    if variant == "TR":
        return range(q ** n)
    tq = range(q) if n else [0]
    for _ in range(n - 1):
        tq = [t * q + a for t in tq for a in range(q) if a != t % q]
    return tq if variant == "TQ" else sorted(set(range(q ** n)) - set(tq))


def _heads(x, k):
    """heads[i - 1][h q + c], i = 1..k: the index of the i-tuple h acted
    on by c (q the order of x), each length made from the one before."""
    q, heads = x.size, [list(itertools.chain.from_iterable(x.table))]
    for _ in range(k - 1):
        prev = heads[-1]  # (h, a) acted on by c: (h * c) q + a * c
        heads.append([prev[h + c] * q + row[c] for h in range(0, len(prev), q)
                      for row in x.table for c in range(q)])
    return heads


def _face_lists(x, n, sources, pos):
    """The 2n - 1 faces of the degree-n sources, given by index, as
    [(c_0, c_1, targets)], unmerged: d s = sum (c_0 + c_1 T) targets[k]
    for s the k-th source, a target given as pos[its index].  i = 1 gives
    (1 - T) (x_2, ..., x_n); for i >= 2, x_i is dropped or acts on the
    head (x_1, ..., x_{i-1}) through `_heads`."""
    if n <= 1:
        return []
    q, low = x.size, x.size ** (n - 1)
    faces = [(1, -1, [pos[s % low] for s in sources])]
    for i, acted in enumerate(_heads(x, n - 1), 1):
        r = q ** (n - 1 - i)  # the number of rests after x_{i+1}
        sign = 1 if i % 2 else -1  # (-1)^(i + 1), i counted from 0
        faces.append((0, sign, [pos[s // r // q * r + s % r]
                                for s in sources]))
        faces.append((-sign, 0, [pos[acted[s // r] * r + s % r]
                                 for s in sources]))
    return faces


def _check_chain(spec, c):
    """Refuse a chain off the spec's basis: of another degree, or with a
    degenerate key in a TQ chain, a non-degenerate key in a TD chain or
    a key entry outside the quandle."""
    if c.degree != spec.degree:
        raise ValueError("chain degree %d != spec degree %d"
                         % (c.degree, spec.degree))
    tq = spec.variant == "TQ"
    for key in c.values:
        if spec.variant != "TR" and is_degenerate(key) == tq:
            raise ValueError("%sdegenerate tuple %s in a %s chain" % (
                "" if tq else "non-", show(key), spec.variant))
        if not all(0 <= a < spec.x.size for a in key):
            raise ValueError("chain key %s is outside the quandle" % show(key))


def boundary(spec, c):
    """Boundary of a chain on the spec's basis; result has degree - 1."""
    _check_chain(spec, c)
    ring, n, q = spec.ring, spec.degree, spec.x.size
    low, tq = max(n - 1, 0), spec.variant == "TQ"
    _basis_size(q, n)  # refused before any table is made
    faces = _face_lists(spec.x, n, [reduce(lambda s, a: s * q + a, key, 0)
                                    for key in c.values],
                        list(itertools.product(range(q), repeat=low)))
    out = Chain(ring, low)
    for k, coef in enumerate(c.values.values()):
        # (c0 + c1 T) coef unreduced: T coef is coef shifted up a power
        v, tv = coef + (0,), (0,) + coef
        for c0, c1, targets in faces:
            if not (tq and is_degenerate(targets[k])):
                out.add_term(targets[k], ring.reduce(
                    [c0 * a + c1 * b for a, b in zip(v, tv)]))
    return out


def _block_columns(ring, blocks):
    """Column dicts {row: entry mod m}, rows ascending, of the matrix
    whose k-th column of d x d blocks (d the ring degree over Z_m) holds
    c_0 + c_1 T at block row r for each (r, c_0, c_1) of blocks[k]."""
    d, m = ring.degree, ring.modulus
    # column j of the T block: T times the j-th unit coefficient tuple
    t_block = [ring.t_act(tuple(int(i == j) for i in range(d)))
               for j in range(d)]
    cols = []
    for column in blocks:
        for j in range(d):
            col = {}
            for r, c0, c1 in column:
                for i, t in enumerate(t_block[j]):
                    v = c1 * t + (c0 if i == j else 0)
                    if m:
                        v %= m
                    if v:
                        col[r * d + i] = v
            cols.append(col)
    return cols


def _columns(spec, dual=False):
    """The boundary d_n: C_n -> C_{n-1} as _block_columns, or with dual
    the coboundary C^{n-1} -> C^n, (delta f)(c) = (-1)^n f(d c) for an
    n-chain c: the same blocks, signed, at the transposed positions.  A
    target off the degree-(n-1) basis (degenerate, for TQ) is at -1 and
    dropped.  exactlin breaks pivot ties in row order: rows ascend."""
    x, ring, n = spec.x, spec.ring, spec.degree
    q, d, m = x.size, ring.degree, ring.modulus
    src = _indices(q, n, spec.variant)  # refused before any table
    tgt = _indices(q, n - 1, spec.variant) if n else []
    pos = [-1] * q ** (n - 1) if n else []
    for k, t in enumerate(tgt):
        pos[t] = k
    faces = _face_lists(x, n, src, pos)
    # c_0 + c_1 T as c_0 + c_1 b: b is T's value when d == 1, so merging
    # evaluates it, else 2n + 1 > 2 |c_i|, so the merged pair is read back
    b = ring.t_act((1,))[0] if d == 1 else 2 * n + 1
    sign = -1 if dual and n % 2 else 1
    weights = [sign * (c0 + c1 * b) for c0, c1, _ in faces]
    cols = [[] for _ in (tgt if dual else src)]
    for j, targets in enumerate(zip(*[t for _, _, t in faces])):
        merged = {}
        for p, w in zip(targets, weights):
            merged[p] = merged.get(p, 0) + w
        merged.pop(-1, None)
        if dual:
            for p, w in merged.items():
                cols[p].append((j, w))
        else:
            cols[j] = sorted(merged.items())
    if d == 1:
        return [{r: v for r, w in col if (v := w % m if m else w)}
                for col in cols]
    return _block_columns(ring, [[(r, w - (w + n) // b * b, (w + n) // b)
                                  for r, w in col] for col in cols])


def _t_columns(spec):
    """The T-action on the degree-n chain coordinates as _block_columns."""
    size = len(_indices(spec.x.size, spec.degree, spec.variant))
    return _block_columns(spec.ring, [[(i, 0, 1)] for i in range(size)])


def _vector(spec, fs):
    basis = basis_tuples(spec.x, spec.degree, spec.variant)
    vec = []
    for t in basis:
        vec.extend(fs(t))
    covered = set(basis)
    for key in fs.values:
        if key not in covered and not spec.ring.is_zero(fs.values[key]):
            raise ValueError("value on %s outside the %s basis"
                             % (show(key), spec.variant))
    return vec


def _from_vector(spec, vec, basis):
    """The cochain with coordinates vec in basis, reduced mod n by Cochain."""
    d = spec.ring.degree
    values = {}
    for k, c in enumerate(vec):
        if c:
            values.setdefault(basis[k // d], [0] * d)[k % d] = c
    return Cochain(spec.ring, spec.degree, values)


def homology(spec):
    """Degree-n twisted homology as a ModuleInfo."""
    from .exactlin import homology_segment
    return homology_segment(_columns(spec.at_degree(spec.degree + 1)),
                            _columns(spec), spec.ring.modulus,
                            _t_columns(spec))


def cohomology(spec):
    """Degree-n twisted cohomology; returns (ModuleInfo, cocycle_gens)
    where cocycle_gens generate the group of n-cocycles."""
    from .exactlin import homology_segment
    info = homology_segment(_columns(spec, True),
                            _columns(spec.at_degree(spec.degree + 1), True),
                            spec.ring.modulus, _t_columns(spec), cycles=True)
    basis = basis_tuples(spec.x, spec.degree, spec.variant)
    return info, [_from_vector(spec, z, basis) for z in info.cycles]


def delta(spec, f):
    """Coboundary of a degree-n cochain; the result has degree n + 1.
    For TQ it also reads f on degenerate tuples, where a TQ cocycle is
    zero.

    (delta f)(c) = (-1)^(n+1) f(d c), over flat lists indexed by the
    tuples (q the order of the quandle): each coefficient of f's values v
    and of T v is one list of length q^n.  Over all q^(n+1) sources each
    face of d is one list: (1 - T) v repeated q times; for each i >= 2,
    T v without x_i, each head's block repeated q times, and v with the
    head (x_1, ..., x_{i-1}) acted on by x_i, blocks gathered through
    `_heads`.  The faces are summed entry by entry and reduced once."""
    if f.degree != spec.degree:
        raise ValueError("cochain degree %d != spec degree %d"
                         % (f.degree, spec.degree))
    x, ring, n = spec.x, spec.ring, spec.degree
    q, d, m = x.size, ring.degree, ring.modulus
    _basis_size(q, n + 1)  # refused before any list is made
    out = Cochain(ring, n + 1)
    if n == 0:
        return out
    low = q ** n
    v = [list(c) for c in zip(*map(
        f.values.get, itertools.product(range(q), repeat=n),
        itertools.repeat(ring.zero())))]
    # T v = (0, v_0, ..., v_{d-2}) - v_{d-1} h for the monic h, unreduced
    tv = [[-c * a for a in v[-1]] if k == 0 else
          [b - c * a for a, b in zip(v[-1], v[k - 1])]
          for k, c in enumerate(ring.h[:d])]
    heads = _heads(x, n)
    sign = 1 if n % 2 else -1
    accs = []
    for vk, tk in zip(v, tv):
        # signed[e] == (e v, e T v)
        signed = {1: (vk, tk), -1: ([-a for a in vk], [-a for a in tk])}
        pv, pt = signed[sign]
        faces = [list(map(sub, pv, pt)) * q]
        for i in range(1, n + 1):
            r = q ** (n - i)  # entries after the one dropped or acting
            e = sign if i % 2 else -sign
            dropped, acted = signed[e][1], signed[-e][0]
            faces.append(itertools.chain.from_iterable(
                [dropped[h:h + r] * q for h in range(0, low, r)]))
            faces.append(map(acted.__getitem__, heads[i - 1]) if r == 1 else
                         itertools.chain.from_iterable(
                             [acted[p * r:p * r + r] for p in heads[i - 1]]))
        acc = list(map(sum, zip(*faces)))
        accs.append(list(map(m.__rmod__, acc)) if m else acc)  # a % m
    nonzero = accs[0] if d == 1 else list(map(any, zip(*accs)))
    tr, td = spec.variant == "TR", spec.variant == "TD"
    for key, value in zip(
            itertools.compress(itertools.product(range(q), repeat=n + 1),
                               nonzero),
            itertools.compress(zip(*accs), nonzero)):
        if tr or is_degenerate(key) == td:
            out.values[key] = value
    return out


def is_cocycle(spec, f):
    """Check delta f == 0 (and, for TQ, vanishing on degenerate tuples).
    Returns (ok, witness_tuple_or_None)."""
    if spec.variant == "TQ":
        for key, v in f.values.items():
            if is_degenerate(key) and not spec.ring.is_zero(v):
                return False, key
    df = delta(spec, f)
    if df.is_zero():
        return True, None
    return False, min(df.values)


def require_cocycle(spec, f, error, what):
    """f, or error("<what> fails the <n>-cocycle condition at <key>")
    with key the witness of `is_cocycle`, shown through limits.show."""
    ok, witness = is_cocycle(spec, f)
    if not ok:
        raise error("%s fails the %d-cocycle condition at %s"
                    % (what, spec.degree, show(witness)))
    return f


def is_coboundary(spec, f):
    """Find g of degree n - 1 with delta g == f, or return None."""
    from .exactlin import solve_linear
    n = spec.degree
    if n == 0:
        return None if not f.is_zero() else Cochain(spec.ring, 0)
    low = spec.at_degree(n - 1)
    x = solve_linear(_columns(spec, True), _vector(spec, f), spec.ring.modulus)
    if x is None:
        return None
    g = _from_vector(low, x, basis_tuples(low.x, n - 1, low.variant))
    if delta(low, g) != f:
        raise RuntimeError("the solver returned a wrong primitive")
    return g


def pair(spec, f, c):
    """Evaluation <f, c> = sum_t c_t f(t) in the coefficient ring, c a
    chain on the spec's basis."""
    _check_chain(spec, c)
    acc = spec.ring.zero()
    for key, coef in c.values.items():
        acc = spec.ring.add(acc, spec.ring.mul(coef, f(key)))
    return acc


# -- brute-force oracle ----------------------------------------------------

def _subgroup_closure(gens, modulus):
    """All elements of the subgroup of Z_m^k generated by `gens`.  With B
    the subgroup generated so far and t the least t > 0 with t g in B,
    adding g adds the cosets B + s g, 0 < s < t."""
    group = {(0,) * len(gens[0]) if gens else ()}
    for g in gens:
        multiples = [(0,) * len(g)]
        while (sg := tuple((a + b) % modulus
                           for a, b in zip(multiples[-1], g))) not in group:
            multiples.append(sg)
        group |= {tuple((a + b) % modulus for a, b in zip(h, sg))
                  for sg in multiples[1:] for h in group}
    return group


def _cycles(cols, m):
    """Every chain over Z_m that the column dicts `cols` map to 0, in
    lexicographic order: each chain on the first half of the coordinates
    joined to the chains on the rest filed under the negative of its image."""
    rows = max((max(c) + 1 for c in cols if c), default=0)

    def chains(part):
        """Each chain on these coordinates with its image, as tuples."""
        level = [((), (0,) * rows)]
        for col in part:
            dense = [col.get(i, 0) for i in range(rows)]
            level = [(c + (a,), tuple((u + a * v) % m
                                      for u, v in zip(img, dense)))
                     for c, img in level for a in range(m)]
        return level

    h, cancels = len(cols) // 2, {}
    for c, img in chains([{i: -v % m for i, v in col.items()}
                          for col in cols[h:]]):
        cancels.setdefault(img, []).append(c)
    return [a + b for a, img in chains(cols[:h])
            for b in cancels.get(img, ())]


def _factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _abelian_invariants(order, torsion_count):
    """Invariant factors of a finite abelian group H of the given order,
    from torsion_count(q) = #{h in H : q h == 0}: the number of cyclic
    p-factors of exponent >= j is log_p torsion_count(p^j) minus the
    same for j - 1."""
    per_prime = {}
    for p in _factor(order):
        logs = [0]  # log_p of the p^j-torsion count, j = 0, 1, ...
        while True:
            c = torsion_count(p ** len(logs))
            m = 0
            while p ** (m + 1) <= c:
                m += 1
            if p ** m != c:
                raise RuntimeError("torsion count %d is not a power of %d"
                                   % (c, p))
            if m == logs[-1]:
                break
            logs.append(m)
        ge = [logs[j] - logs[j - 1] for j in range(1, len(logs))]
        factors = []  # prime powers, largest first
        for j in range(len(ge), 0, -1):
            exactly = ge[j - 1] - (ge[j] if j < len(ge) else 0)
            factors.extend([p ** j] * exactly)
        per_prime[p] = factors
    width = max((len(v) for v in per_prime.values()), default=0)
    chain = []
    for i in range(width):
        f = 1
        for lst in per_prime.values():
            if i < len(lst):
                f *= lst[i]
        chain.append(f)
    return tuple(c for c in reversed(chain) if c != 1)


def brute_force_homology(spec):
    """Homology by full enumeration of the (small) middle chain group.

    Independent of the elimination engine: cycles Z are matched by
    half-images (_cycles), boundaries B closed a coset at a time, and the
    group structure of H = Z / B found by torsion counting,
    #{h : q h == 0} being #{z in Z : q z in B} / |B|.  Only usable for
    finite coefficients and small chain groups (TWISTQ_MAX_BRUTE).
    """
    from .exactlin import ModuleInfo
    ring, n = spec.ring, spec.degree
    if ring.modulus == 0:
        raise RingError("brute-force oracle needs finite coefficients")
    m = ring.modulus
    k = len(_indices(spec.x.size, n, spec.variant)) * ring.degree
    total = power(m, k)
    check_limit(total, "oracle", RingError, "chain group has %s elements",
                total)
    out_cols = _columns(spec)
    in_cols = _columns(spec.at_degree(n + 1))

    cycles = _cycles(out_cols, m)
    bcols = [tuple(col.get(i, 0) for i in range(k)) for col in in_cols if col]
    boundaries = _subgroup_closure(bcols, m) if bcols else {(0,) * k}
    if not boundaries <= set(cycles):
        raise RuntimeError("a boundary is not a cycle")

    def torsion_count(q):
        times_q = [q * a % m for a in range(m)]
        c = sum(tuple([times_q[a] for a in z]) in boundaries for z in cycles)
        if c % len(boundaries):
            raise RuntimeError("%d cycles z have %d z in B, not a multiple "
                               "of |B| = %d" % (c, q, len(boundaries)))
        return c // len(boundaries)

    # torsion_count(0) = |Z| / |B| = |H|
    return ModuleInfo(_abelian_invariants(torsion_count(0), torsion_count),
                      [], [])


# -- cochain text ----------------------------------------------------------

def parse_cochain(ring, text, degree=None, size=None):
    """Parse lines of the form 'x1,x2,...,xn -> ringElem', or ' -> ringElem'
    for the key () of degree 0, each key given once; with size, the order
    of the quandle, each x_i must name one of its elements."""
    from .coeff import parse_poly
    out, keys = None, {}
    for raw, line, _ in lines(text, ValueError, "a cochain key"):
        lhs, sep, rhs = line.partition("->")
        if not sep:
            raise ValueError("missing '->' in cochain line %s" % show(raw))
        key = tuple(integer(v, ValueError, "a cochain key",
                            "bad cochain key in line %s", raw)
                    for v in lhs.split(",")) if lhs.strip() else ()
        if size is not None and not all(0 <= k < size for k in key):
            raise ValueError("cochain key %s is outside the quandle; the "
                             "quandle's elements are 0..%d"
                             % (show(key), size - 1))
        if out is None:
            out = Cochain(ring, degree if degree is not None else len(key))
        elif degree is None and len(key) != out.degree:
            raise ValueError("cochain key %s has %d entries, but the first "
                             "key has %d"
                             % (show(key), len(key), out.degree))
        once(keys, key, None, ValueError, "cochain key %s", key)
        out.add_term(key, ring.reduce(parse_poly(rhs.strip())))
    if out is None:
        if degree is None:
            raise ValueError("empty cochain text needs an explicit degree")
        out = Cochain(ring, degree)
    return out


def render_cochain(fs):
    from .coeff import render_poly
    lines = []
    for key in sorted(fs.values):
        lines.append("%s -> %s" % (",".join(str(v) for v in key),
                                   render_poly(fs.values[key])))
    return "\n".join(lines) + ("\n" if lines else "")
