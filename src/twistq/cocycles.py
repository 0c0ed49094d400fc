"""Construction of twisted quandle cocycles.

Three explicit families (modular carry, polynomial carry, and an
integral cocycle on dihedral quandles), the obstruction cocycles of a
short exact sequence of coefficient modules, and the lifting of a
cocycle valued in degree-one cohomology to one degree higher.

As for group extensions, each family and obstruction cocycle is the
coboundary `chain.delta` s of a set-theoretic section s read in the
bigger coefficient module.  `_lifted`, the one owner of delta of a
lifted section, maps each value into the smaller module and verifies
the cocycle condition: a family divides the carry unit (p^(m-1),
h^(m-1) or n) out of each value; an obstruction keeps each in G after
checking that it lies in N.
"""

import itertools

from .coeff import AlexanderRing, RingError
from .chain import (ComplexSpec, Cochain, _subgroup_closure, basis_tuples,
                    delta, is_degenerate, require_cocycle)
from .limits import check_limit, power, show
from .quandle import (FiniteQuandle, QuandleMap, _check_order,
                      alexander_quandle, dihedral_quandle, is_homomorphism)

__all__ = [
    "CocycleError",
    "SesSpec",
    "modular_extension_cocycle",
    "polynomial_extension_cocycle",
    "dihedral_integral_cocycle",
    "obstruction_2cocycle",
    "obstruction_3cocycle",
    "extension_homomorphism",
    "lift_h1",
]

class CocycleError(ValueError):
    pass


def _lifted(x, s, small, value, what):
    """delta s for a section s, a TQ cochain of degree n on x over the
    bigger ring s.ring, with each value passed through `value` into
    `small`; refused as `what` unless it is an (n + 1)-cocycle."""
    n1 = s.degree + 1
    ds = delta(ComplexSpec(x, s.ring, "TQ", s.degree), s)
    phi = Cochain(small, n1, {k: value(v) for k, v in ds.values.items()})
    return require_cocycle(ComplexSpec(x, small, "TQ", n1), phi,
                           CocycleError, what)


# -- carry cocycles --------------------------------------------------------

def _carry_cocycle(x, big, lift, small, unit, what):
    """(phi, x, small), phi = unit(delta s) for s(i) = lift[i] in big:
    (delta s)(x1, x2) = T s(x1) + (1 - T) s(x2) - s(x1 * x2), the operation
    in big minus the section of the result, is the carry times the unit."""
    s = Cochain(big, 1, {(i,): v for i, v in enumerate(lift)})
    return _lifted(x, s, small, unit, what), x, small


def modular_extension_cocycle(p, m, h_coeffs):
    """2-cocycle phi with AE(X, A, phi) = Lambda_{p^m}/(h) for the base
    quandle X on Lambda_{p^{m-1}}/(h) and coefficients A on Lambda_p/(h).

    The section zero-pads base-p digits; phi(x1, x2) is the top digit of
    the quandle operation computed in the big ring (the carry).
    Returns (phi, x_quandle, a_ring).
    """
    if p < 2 or m < 2:
        raise CocycleError("need p >= 2 and m >= 2")
    # |X| = p^((m-1) deg h), refused before p^m is computed; a constant
    # h counts as degree 1 here, and the ring refuses it
    deg = max([1] + [d for d, c in enumerate(h_coeffs) if c % p])
    _check_order(p, (m - 1) * deg)
    big = AlexanderRing(p ** m, h_coeffs)
    mid = AlexanderRing(p ** (m - 1), h_coeffs)
    small = AlexanderRing(p, h_coeffs)
    return _carry_cocycle(alexander_quandle(mid), big, mid.elements(), small,
                          lambda v: tuple(c // mid.modulus for c in v),
                          "modular carry cochain")


def _poly_pow(p, h, m):
    out = [1]
    for _ in range(m):
        nxt = [0] * (len(out) + len(h) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(h):
                nxt[i + j] = (nxt[i + j] + a * b) % p
        out = nxt
    return out


def _poly_quotient(num, den, p):
    """num // den over Z_p; den must be monic."""
    num = [c % p for c in num]
    d = len(den) - 1
    quo = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i] % p
        if c:
            quo[i - d] = c
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return quo


def polynomial_extension_cocycle(p, h_coeffs, m):
    """2-cocycle phi with AE(X, A, phi) = Z_p[T, T^-1]/(h^m) for the base
    quandle X on Z_p[..]/(h^{m-1}) and coefficients A on Z_p[..]/(h).

    The section zero-pads h-adic digits; phi is the top h-adic digit of
    the quandle operation in the big ring.  Returns (phi, x_quandle, a_ring).
    """
    if m < 2 or p < 2:
        raise CocycleError("need p >= 2 and m >= 2" if m >= 2 else
                           "need m >= 2")
    small = AlexanderRing(p, h_coeffs)
    h, d = small.h, small.degree
    check_limit(m * d, "polynomial degree", RingError,
                "h^%s has degree %s", m, m * d)
    _check_order(p, (m - 1) * d)  # |X|, before h^m is built
    big = AlexanderRing(p, _poly_pow(p, h, m))
    mid = AlexanderRing(p, _poly_pow(p, h, m - 1))
    x = alexander_quandle(mid)
    lift = [e + (0,) * d for e in mid.elements()]
    return _carry_cocycle(x, big, lift, small,
                          lambda v: tuple(_poly_quotient(v, mid.h, p)),
                          "polynomial carry cochain")


def dihedral_integral_cocycle(n):
    """Integral 2-cocycle on the dihedral quandle R_n with values in
    Z[T]/(T+1): the carry of 2b - a on representatives 0 .. n-1, i.e.
    phi(a, b) = -1 if 2b < a, 0 if a <= 2b < n + a, +1 if n + a <= 2b.
    Returns (phi, x_quandle, ring)."""
    if n < 2:
        raise CocycleError("need n >= 2")
    ring = AlexanderRing(0, [1, 1])  # Z[T]/(T+1), T acts as -1
    return _carry_cocycle(dihedral_quandle(n), ring,
                          [(a,) for a in range(n)], ring,
                          lambda v: (v[0] // n,), "dihedral integral cochain")


# -- short exact sequences of coefficients ----------------------------------

class SesSpec:
    """0 -> N -> G -> A -> 0 of modules over the Laurent ring, with G a
    finite coefficient ring and N the submodule `n_set` spanned by gens.

    A is realized on canonical (minimal) coset representatives inside G;
    `a_quandle` carries the Alexander quandle structure of A, and the
    section is `a_reps`: a_reps[i] represents the i-th element of A in G.
    """

    def __init__(self, g_ring, gens):
        self.g_ring = g = g_ring
        if g.modulus == 0:
            raise CocycleError("the ambient module must be finite")
        # N and G are listed
        size = power(g.modulus, g.degree)
        check_limit(size, "table", CocycleError,
                    "the ambient module has %s elements", size)
        # N is spanned by 0 and T^k v, 0 <= k < deg h, for each generator
        # v: h monic with a unit constant term puts T^deg h v and T^-1 v in it
        span = [g.zero()]
        for v in gens:
            v = g.reduce(v)
            for _ in range(g.degree):
                span.append(v)
                v = g.t_act(v)
        self.n_set = frozenset(_subgroup_closure(span, g.modulus))
        # a coset is represented by its least element, the first of its
        # members met in ascending order; _index: element -> index in A
        self._index, self.a_reps = {}, []
        for e in g.elements():
            if e not in self._index:
                for v in self.n_set:
                    self._index[g.add(e, v)] = len(self.a_reps)
                self.a_reps.append(e)
        _check_order(len(self.a_reps))
        ta, rest = g.quandle_halves(self.a_reps)
        table = [[self.project(g.add(t, r)) for r in rest] for t in ta]
        self.a_quandle = FiniteQuandle(
            table, labels=[g.render_elem(r) for r in self.a_reps])

    def project(self, e):
        """Index in A of the coset of e in G."""
        return self._index[e]


def _n_valued(ses, message):
    """An obstruction's value map: v in N to v, else CocycleError."""
    def value(v):
        if v not in ses.n_set:
            raise CocycleError(message)
        return v
    return value


def obstruction_2cocycle(ses, x, eta):
    """Obstruction to lifting a quandle homomorphism eta: x -> A through
    the section s:

        phi(x1, x2) = T s(eta x1) + (1 - T) s(eta x2) - s(eta(x1 * x2))

    with values in N, returned as a G-valued 2-cocycle.  eta must be a
    QuandleMap into ses.a_quandle."""
    if eta.codomain != ses.a_quandle:
        raise CocycleError("eta must land in the quotient quandle of the sequence")
    ok, witness = is_homomorphism(eta)
    if not ok:
        raise CocycleError("eta is not a quandle homomorphism (at %s)"
                           % show(witness))
    g = ses.g_ring
    s_eta = Cochain(g, 1, {(a,): ses.a_reps[eta(a)] for a in range(x.size)})
    return _lifted(x, s_eta, g, _n_valued(
        ses, "obstruction value escapes the submodule"), "lifting obstruction")


def extension_homomorphism(ses, x, eta):
    """Search for a lift of eta to the ambient module, i.e. a quandle map
    x -> G projecting to eta whose obstruction vanishes.  Returns a
    QuandleMap into the Alexander quandle of G, or None.  The search
    enumerates N-valued corrections and is guarded by size."""
    g = ses.g_ring
    phi = obstruction_2cocycle(ses, x, eta)
    n_elems = sorted(ses.n_set)
    size = power(len(n_elems), x.size)
    check_limit(size, "correction search", CocycleError,
                "the correction search has %s candidates", size)
    gq = alexander_quandle(g)
    index = {e: i for i, e in enumerate(g.elements())}
    s_eta = [ses.a_reps[eta(a)] for a in range(x.size)]
    for xi in itertools.product(n_elems, repeat=x.size):
        f = QuandleMap(x, gq, [index[g.add(s, v)] for s, v in zip(s_eta, xi)])
        if is_homomorphism(f)[0]:
            return f
    return None


def obstruction_3cocycle(ses, x, phi):
    """Obstruction to lifting an A-valued 2-cocycle phi through the
    section s (phi is given by its representative values s(phi) in G):

        theta = T s phi(x1,x2) + s phi(x1*x2, x3) + T s phi(x2,x3)
              - s phi(x2,x3) - T s phi(x1,x3) - s phi(x1*x3, x2*x3)

    Values lie in N; returned as a G-valued 3-cocycle."""
    g = ses.g_ring
    if any(is_degenerate(key) and v not in ses.n_set
           for key, v in phi.values.items()):
        raise CocycleError("phi is not normalized on degenerate pairs")
    s_phi = Cochain(g, 2, {key: ses.a_reps[ses.project(v)]
                           for key, v in phi.values.items()})
    # delta at degree 2 has sign -1, which gives theta term for term
    return _lifted(x, s_phi, g, _n_valued(
        ses, "phi is not a 2-cocycle over the quotient module"),
        "3-cocycle obstruction")


# -- lifting a cocycle valued in H^1 ----------------------------------------

def lift_h1(x, ring, seeds):
    """Complete an (n+1)-cochain psi(x_1, ..., x_n, z) from seed values.

    The completion uses three closure rules: psi vanishes when any two
    consecutive arguments coincide; acting on every argument by a fixed
    quandle element multiplies the value by T; and for a fixed prefix the
    last-argument slice is a quandle-module homomorphism,

        psi(.., z1 * z2) = T psi(.., z1) + (1 - T) psi(.., z2).

    Unreached tuples get 0.  The result is verified to be a TR cocycle;
    returns (psi, is_tq) where is_tq reports vanishing on all degenerate
    tuples (making it a TQ cocycle as well)."""
    seeds = dict(seeds)
    if not seeds:
        raise CocycleError("need at least one seed value")
    degrees = {len(k) for k in seeds}
    if len(degrees) != 1:
        raise CocycleError("seed keys must all have the same length")
    n1 = degrees.pop()
    if n1 < 2:
        raise CocycleError("seed keys must have length >= 2")
    for key in seeds:
        bad = [k for k in key if not 0 <= k < x.size]
        if bad:
            raise CocycleError("seed key %s names element %s, but the "
                               "quandle's elements are 0..%d"
                               % (show(tuple(key)), show(bad[0]), x.size - 1))

    table = {}

    def assign(key, v):
        v = ring.reduce(v)
        if table.setdefault(key, v) != v:
            raise CocycleError("inconsistent value forced at %s" % show(key))

    degenerate = basis_tuples(x, n1, "TD")
    for key in degenerate:
        assign(key, ring.zero())
    for key, v in seeds.items():
        assign(tuple(key), ring.reduce(v))

    changed = True
    while changed:
        changed = False
        # T-equivariance under the diagonal action
        for key, v in list(table.items()):
            for a in range(x.size):
                moved = tuple(x.op(k, a) for k in key)
                if moved not in table:
                    assign(moved, ring.t_act(v))
                    changed = True
        # homomorphism rule in the last argument
        prefixes = {}
        for key in table:
            prefixes.setdefault(key[:-1], {})[key[-1]] = table[key]
        for pre, known in prefixes.items():
            for z1 in list(known):
                for z2 in list(known):
                    z3 = x.op(z1, z2)
                    if z3 in known:
                        continue
                    known[z3] = table[pre + (z3,)] = ring.quandle_op(
                        known[z1], known[z2])
                    changed = True

    psi = Cochain(ring, n1, table)  # unreached tuples are zero
    require_cocycle(ComplexSpec(x, ring, "TR", n1), psi, CocycleError,
                    "lifted cochain")
    return psi, all(ring.is_zero(psi(k)) for k in degenerate)
