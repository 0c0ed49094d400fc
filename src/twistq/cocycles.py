"""Construction of twisted quandle cocycles.

Three explicit families (modular carry, polynomial carry, and an
integral cocycle on dihedral quandles), the obstruction cocycles of a
short exact sequence of coefficient modules, and the lifting of a
cocycle valued in degree-one cohomology to one degree higher.  Every
constructor verifies the cocycle condition before returning.
"""

import itertools

from .coeff import AlexanderRing, RingError
from .chain import ComplexSpec, Cochain, delta, is_cocycle, is_degenerate
from .quandle import (FiniteQuandle, QuandleMap, QuandleError,
                      alexander_quandle, dihedral_quandle)

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

_MAX_SECTION_SEARCH = 6561


class CocycleError(ValueError):
    pass


def _verified(spec, f, what):
    ok, witness = is_cocycle(spec, f)
    if not ok:
        raise CocycleError("%s failed the cocycle condition at %r"
                           % (what, witness))
    return f


# -- carry cocycles --------------------------------------------------------

def modular_extension_cocycle(p, m, h_coeffs):
    """2-cocycle phi with AE(X, A, phi) = Lambda_{p^m}/(h) for the base
    quandle X on Lambda_{p^{m-1}}/(h) and coefficients A on Lambda_p/(h).

    The section zero-pads base-p digits; phi(x1, x2) is the top digit of
    the quandle operation computed in the big ring (the carry).
    Returns (phi, x_quandle, a_ring).
    """
    if p < 2 or m < 2:
        raise CocycleError("need p >= 2 and m >= 2")
    big = AlexanderRing(p ** m, h_coeffs)
    mid = AlexanderRing(p ** (m - 1), h_coeffs)
    small = AlexanderRing(p, h_coeffs)
    x = alexander_quandle(mid)
    elems = mid.elements()
    q = p ** (m - 1)
    phi = Cochain(small, 2)
    for i1, e1 in enumerate(elems):
        for i2, e2 in enumerate(elems):
            u = big.quandle_op(tuple(e1), tuple(e2))  # residues < p^m
            top = tuple(c // q for c in u)
            if not small.is_zero(top):
                phi.add_term((i1, i2), top)
    spec = ComplexSpec(x, small, "TQ", 2)
    return _verified(spec, phi, "modular carry cochain"), x, small


def _poly_pow(p, h, m):
    out = [1]
    for _ in range(m):
        nxt = [0] * (len(out) + len(h) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(h):
                nxt[i + j] = (nxt[i + j] + a * b) % p
        out = nxt
    return out


def _poly_divmod(num, den, p):
    """Polynomial division over Z_p; den must be monic."""
    num = [c % p for c in num]
    d = len(den) - 1
    quo = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i] % p
        if c:
            quo[i - d] = c
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return quo, num[:d]


def _monic_mod_p(h_coeffs, p):
    h = [c % p for c in h_coeffs]
    while h and h[-1] == 0:
        h.pop()
    if len(h) < 2:
        raise CocycleError("polynomial degenerates mod %d" % p)
    inv = pow(h[-1], -1, p)
    return [(c * inv) % p for c in h]


def polynomial_extension_cocycle(p, h_coeffs, m):
    """2-cocycle phi with AE(X, A, phi) = Z_p[T, T^-1]/(h^m) for the base
    quandle X on Z_p[..]/(h^{m-1}) and coefficients A on Z_p[..]/(h).

    The section zero-pads h-adic digits; phi is the top h-adic digit of
    the quandle operation in the big ring.  Returns (phi, x_quandle, a_ring).
    """
    if m < 2:
        raise CocycleError("need m >= 2")
    h = _monic_mod_p(h_coeffs, p)
    big = AlexanderRing(p, _poly_pow(p, h, m))
    mid = AlexanderRing(p, _poly_pow(p, h, m - 1))
    small = AlexanderRing(p, h)
    x = alexander_quandle(mid)
    elems = mid.elements()
    d = len(h) - 1
    pad = big.degree - mid.degree
    phi = Cochain(small, 2)
    for i1, e1 in enumerate(elems):
        for i2, e2 in enumerate(elems):
            u = list(big.quandle_op(e1 + (0,) * pad, e2 + (0,) * pad))
            for _ in range(m - 1):  # strip the m-1 low h-adic digits
                u, _low = _poly_divmod(u, h, p)
            top = tuple((u + [0] * d)[:d])
            if not small.is_zero(top):
                phi.add_term((i1, i2), top)
    spec = ComplexSpec(x, small, "TQ", 2)
    return _verified(spec, phi, "polynomial carry cochain"), x, small


def dihedral_integral_cocycle(n):
    """Integral 2-cocycle on the dihedral quandle R_n with values in
    Z[T]/(T+1): the carry of 2b - a on representatives 0 .. n-1, i.e.
    phi(a, b) = -1 if 2b < a, 0 if a <= 2b < n + a, +1 if n + a <= 2b.
    Returns (phi, x_quandle, ring)."""
    if n < 2:
        raise CocycleError("need n >= 2")
    ring = AlexanderRing(0, [1, 1])  # Z[T]/(T+1), T acts as -1
    x = dihedral_quandle(n)
    phi = Cochain(ring, 2)
    for a in range(n):
        for b in range(n):
            d = 2 * b
            if d < a:
                v = -1
            elif d < n + a:
                v = 0
            else:
                v = 1
            if v:
                phi.add_term((a, b), ring.from_int(v))
    spec = ComplexSpec(x, ring, "TQ", 2)
    return _verified(spec, phi, "dihedral integral cochain"), x, ring


# -- short exact sequences of coefficients ----------------------------------

class SesSpec:
    """0 -> N -> G -> A -> 0 of modules over the Laurent ring, with G a
    finite coefficient ring and N the submodule generated by `n_gens`.

    A is realized on canonical (minimal) coset representatives inside G;
    `a_quandle` carries the Alexander quandle structure of A and
    `section` maps an A-index to its representative in G.
    """

    def __init__(self, g_ring, n_gens):
        self.g_ring = g_ring
        self.n_gens = n_gens
        g = g_ring
        if g.modulus == 0:
            raise CocycleError("the ambient module must be finite")
        gens = [g.reduce(v) for v in self.n_gens]
        # close under addition, negation and T in both directions
        seen = {g.zero()}
        frontier = list(seen)
        while frontier:
            base = frontier.pop()
            nxt = [g.add(base, v) for v in gens]
            nxt.append(g.t_act(base))
            nxt.append(g.t_pow(base, -1))
            nxt.append(g.neg(base))
            for e in nxt:
                if e not in seen:
                    seen.add(e)
                    frontier.append(e)
        self.n_set = frozenset(seen)
        reps = {}
        for e in g.elements():
            key = min(g.add(e, v) for v in self.n_set)
            reps.setdefault(key, []).append(e)
        self.a_reps = sorted(reps)
        self._rep_index = {r: i for i, r in enumerate(self.a_reps)}
        self._coset_rep = {}
        for rep, members in reps.items():
            for e in members:
                self._coset_rep[e] = rep
        table = [[self.project(g.quandle_op(a, b)) for b in self.a_reps]
                 for a in self.a_reps]
        self.a_quandle = FiniteQuandle(
            table, labels=[g.render_elem(r) for r in self.a_reps])

    def project(self, e):
        """Index in A of the coset of e in G."""
        return self._rep_index[self._coset_rep[e]]

    def section(self, i):
        """Canonical representative in G of the i-th element of A."""
        return self.a_reps[i]

    def in_n(self, e):
        return e in self.n_set


def obstruction_2cocycle(ses, x, eta):
    """Obstruction to lifting a quandle homomorphism eta: x -> A through
    the section s:

        phi(x1, x2) = T s(eta x1) + (1 - T) s(eta x2) - s(eta(x1 * x2))

    with values in N, returned as a G-valued 2-cocycle.  eta must be a
    QuandleMap into ses.a_quandle."""
    from .quandle import is_homomorphism
    if eta.codomain != ses.a_quandle:
        raise CocycleError("eta must land in the quotient quandle of the sequence")
    ok, witness = is_homomorphism(eta)
    if not ok:
        raise CocycleError("eta is not a quandle homomorphism (at %r)" % (witness,))
    g = ses.g_ring
    phi = Cochain(g, 2)
    for x1 in range(x.size):
        for x2 in range(x.size):
            v = g.sub(g.quandle_op(ses.section(eta(x1)), ses.section(eta(x2))),
                      ses.section(eta(x.op(x1, x2))))
            if not ses.in_n(v):
                raise CocycleError("obstruction value escapes the submodule")
            if not g.is_zero(v):
                phi.add_term((x1, x2), v)
    spec = ComplexSpec(x, g, "TQ", 2)
    return _verified(spec, phi, "lifting obstruction")


def extension_homomorphism(ses, x, eta):
    """Search for a lift of eta to the ambient module, i.e. a quandle map
    x -> G projecting to eta whose obstruction vanishes.  Returns a
    QuandleMap into the Alexander quandle of G, or None.  The search
    enumerates N-valued corrections and is guarded by size."""
    g = ses.g_ring
    phi = obstruction_2cocycle(ses, x, eta)
    n_elems = sorted(ses.n_set)
    if len(n_elems) ** x.size > _MAX_SECTION_SEARCH:
        raise CocycleError("correction search space too large")
    gq = alexander_quandle(g)
    index = {e: i for i, e in enumerate(g.elements())}
    for xi in itertools.product(n_elems, repeat=x.size):
        values = [g.add(ses.section(eta(a)), xi[a]) for a in range(x.size)]
        ok = all(
            values[x.op(a, b)] == g.quandle_op(values[a], values[b])
            for a in range(x.size) for b in range(x.size))
        if ok:
            return QuandleMap(x, gq, [index[v] for v in values])
    return None


def obstruction_3cocycle(ses, x, phi):
    """Obstruction to lifting an A-valued 2-cocycle phi through the
    section s (phi is given by its representative values s(phi) in G):

        theta = T s phi(x1,x2) + s phi(x1*x2, x3) + T s phi(x2,x3)
              - s phi(x2,x3) - T s phi(x1,x3) - s phi(x1*x3, x2*x3)

    Values lie in N; returned as a G-valued 3-cocycle."""
    g = ses.g_ring
    # phi must be an A-valued TQ 2-cocycle: check all conditions mod N
    for key, v in phi.values.items():
        if is_degenerate(key) and not ses.in_n(v):
            raise CocycleError("phi is not normalized on degenerate pairs")
    def s_phi(a, b):
        return ses.section(ses.project(phi((a, b))))
    for x1 in range(x.size):
        for x2 in range(x.size):
            for x3 in range(x.size):
                lhs = g.add(g.t_act(s_phi(x1, x2)), s_phi(x.op(x1, x2), x3))
                rhs = g.add(g.sub(g.t_act(s_phi(x1, x3)),
                                  g.t_act(s_phi(x2, x3))),
                            g.add(s_phi(x2, x3),
                                  s_phi(x.op(x1, x3), x.op(x2, x3))))
                if not ses.in_n(g.sub(lhs, rhs)):
                    raise CocycleError(
                        "phi is not a 2-cocycle over the quotient module")
    theta = Cochain(g, 3)
    for x1 in range(x.size):
        for x2 in range(x.size):
            for x3 in range(x.size):
                v = g.zero()
                v = g.add(v, g.t_act(s_phi(x1, x2)))
                v = g.add(v, s_phi(x.op(x1, x2), x3))
                v = g.add(v, g.t_act(s_phi(x2, x3)))
                v = g.sub(v, s_phi(x2, x3))
                v = g.sub(v, g.t_act(s_phi(x1, x3)))
                v = g.sub(v, s_phi(x.op(x1, x3), x.op(x2, x3)))
                if not ses.in_n(v):
                    raise CocycleError("obstruction value escapes the submodule")
                if not g.is_zero(v):
                    theta.add_term((x1, x2, x3), v)
    spec = ComplexSpec(x, g, "TQ", 3)
    return _verified(spec, theta, "3-cocycle obstruction")


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
            raise CocycleError("seed key %r names element %d, but the "
                               "quandle's elements are 0..%d"
                               % (tuple(key), bad[0], x.size - 1))

    table = {}

    def assign(key, v):
        v = ring.reduce(v)
        old = table.get(key)
        if old is None:
            table[key] = v
        elif old != v:
            raise CocycleError("inconsistent value forced at %r" % (key,))

    for key in itertools.product(range(x.size), repeat=n1):
        if is_degenerate(key):
            assign(key, ring.zero())
    for key, v in seeds.items():
        assign(tuple(key), ring.reduce(v))

    changed = True
    while changed:
        changed = False
        # T-equivariance under the diagonal action
        for key in list(table):
            v = table[key]
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
                    v = ring.add(ring.t_act(known[z1]),
                                 ring.sub(known[z2], ring.t_act(known[z2])))
                    assign(pre + (z3,), v)
                    known[z3] = table[pre + (z3,)]
                    changed = True

    psi = Cochain(ring, n1)
    for key, v in table.items():
        psi.add_term(key, v)
    # default unreached tuples to zero (already implicit in the cochain)

    tr_spec = ComplexSpec(x, ring, "TR", n1)
    _verified(tr_spec, psi, "lifted cochain")
    is_tq = all(ring.is_zero(psi(k))
                for k in itertools.product(range(x.size), repeat=n1)
                if is_degenerate(k))
    return psi, is_tq
