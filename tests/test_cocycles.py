"""Carry cocycles, obstruction cocycles, and degree-raising lifts."""

import itertools
import random

import pytest

from twistq.coeff import AlexanderRing, parse_poly, parse_ring
from twistq.chain import (Cochain, ComplexSpec, delta, is_cocycle,
                          is_coboundary, pair, render_cochain)
from twistq.cocycles import (CocycleError, SesSpec, dihedral_integral_cocycle,
                             extension_homomorphism, lift_h1,
                             modular_extension_cocycle,
                             obstruction_2cocycle, obstruction_3cocycle,
                             polynomial_extension_cocycle)
from twistq.quandle import (QuandleMap, alexander_quandle, dihedral_quandle,
                            is_homomorphism, quandle_standard)


class TestModularCarry:
    def test_table_p3_m2(self):
        phi, x, ring = modular_extension_cocycle(3, 2, [1, 1])
        assert render_cochain(phi) == "0,2 -> 1\n1,0 -> 2\n1,2 -> 1\n2,0 -> 2\n"
        assert x.size == 3 and ring.modulus == 3

    def test_diagonal_vanishes(self):
        for p, m in ((2, 2), (3, 2), (2, 3), (5, 2)):
            phi, x, ring = modular_extension_cocycle(p, m, [1, 1])
            for a in range(x.size):
                assert ring.is_zero(phi((a, a)))

    def test_p2_m2_verified(self):
        phi, x, ring = modular_extension_cocycle(2, 2, [1, 1])
        ok, _ = is_cocycle(ComplexSpec(x, ring, "TQ", 2), phi)
        assert ok

    def test_quadratic_h(self):
        phi, x, ring = modular_extension_cocycle(2, 2, [1, 1, 1])
        assert x.size == 4 and ring.size() == 4
        assert is_cocycle(ComplexSpec(x, ring, "TQ", 2), phi)[0]

    def test_preconditions(self):
        with pytest.raises(CocycleError):
            modular_extension_cocycle(3, 1, [1, 1])
        with pytest.raises(CocycleError):
            modular_extension_cocycle(1, 2, [1, 1])


class TestPolynomialCarry:
    def test_table_p3(self):
        phi, x, ring = polynomial_extension_cocycle(3, [1, 1], 2)
        assert render_cochain(phi) == \
            "0,1 -> 2\n0,2 -> 1\n1,0 -> 1\n1,2 -> 2\n2,0 -> 2\n2,1 -> 1\n"

    def test_diagonal_vanishes(self):
        phi, x, ring = polynomial_extension_cocycle(2, [1, 1, 1], 2)
        for a in range(x.size):
            assert ring.is_zero(phi((a, a)))

    def test_p2_verified(self):
        phi, x, ring = polynomial_extension_cocycle(2, [1, 1], 2)
        assert is_cocycle(ComplexSpec(x, ring, "TQ", 2), phi)[0]

    def test_m1_rejected(self):
        with pytest.raises(CocycleError):
            polynomial_extension_cocycle(3, [1, 1], 1)


class TestDihedralIntegral:
    def test_table_n3(self):
        phi, x, ring = dihedral_integral_cocycle(3)
        assert render_cochain(phi) == "0,2 -> 1\n1,0 -> -1\n1,2 -> 1\n2,0 -> -1\n"
        assert ring.modulus == 0

    def test_diagonal_vanishes(self):
        for n in (2, 3, 4, 5, 6):
            phi, x, ring = dihedral_integral_cocycle(n)
            for a in range(n):
                assert ring.is_zero(phi((a, a)))

    def test_carry_branch_n5(self):
        phi, _, ring = dihedral_integral_cocycle(5)
        assert phi((4, 0)) == ring.from_int(-1)

    @pytest.mark.parametrize("n", [3, 5])
    def test_never_a_coboundary(self, n):
        phi, x, ring = dihedral_integral_cocycle(n)
        assert is_coboundary(ComplexSpec(x, ring, "TQ", 2), phi) is None

    def test_pairing_values(self):
        # the two standard degree-2 cycles over R_3
        phi, x3, rphi = modular_extension_cocycle(3, 2, [1, 1])
        phip, _, rphip = polynomial_extension_cocycle(3, [1, 1], 2)
        from twistq.chain import Chain
        x = lambda r: Chain(r, 2, {(1, 0): r.from_int(1),
                                   (2, 0): r.from_int(-1)})
        y = lambda r: Chain(r, 2, {(0, 1): r.from_int(1),
                                   (2, 1): r.from_int(-1)})
        sp = ComplexSpec(x3, rphi, "TQ", 2)
        assert pair(sp, phi, y(rphi)) == rphi.zero()
        assert pair(sp, phip, x(rphip)) == rphip.from_int(2)
        assert pair(sp, phip, y(rphip)) == rphip.from_int(-2)


def _z9_ses():
    g = parse_ring("Z9[T]/(T+1)")
    return SesSpec(g, ((3,),))


class TestSesSpec:
    def test_structure(self):
        ses = _z9_ses()
        assert sorted(ses.n_set) == [(0,), (3,), (6,)]
        assert ses.a_quandle.size == 3
        for i in range(3):
            assert ses.project(ses.a_reps[i]) == i

    def test_infinite_rejected(self):
        with pytest.raises(CocycleError):
            SesSpec(parse_ring("Z[T]/(T+1)"), ((3,),))

    @pytest.mark.parametrize("ambient,sub", [
        ("Z9[T]/(T+1)", ["3"]), ("Z8[T]/(T+1)", ["4", "2"]),
        ("Z27[T]/(T+1)", ["9", "0", "3"]), ("Z6[T]/(T+1)", ["2", "3"]),
        ("Z4[T]/(T^2+T+1)", ["2"]), ("Z4[T]/(T^2+T+1)", ["2T", "0"]),
        ("Z9[T]/(T^2-1)", ["3T+3", "T-1"]), ("Z9[T]/(T^2+2)", ["T+1"]),
        ("Z5[T]/(T^2+1)", ["0"]), ("Z5[T]/(T^2+1)", []),
        ("Z5[T]/(T^2+1)", ["T+2"]), ("Z2[T]/(T^3+T+1)", ["T^2+1"]),
        ("Z3[T]/(T^3-1)", ["T-1"]), ("Z3[T]/(T^3-1)", ["T^2+T+1", "0"]),
        ("Z4[T]/(T^3+T+1)", ["2", "2T^2"]), ("Z2[T]/(T^4+T+1)", ["0", "0"]),
    ])
    def test_submodule_matches_the_closure_search(self, ambient, sub):
        g = parse_ring(ambient)
        gens = tuple(g.reduce(parse_poly(v)) for v in sub)
        assert SesSpec(g, gens).n_set == _ref_n_set(g, gens)


def _ref_n_set(g, gens):
    """N as SesSpec first built it: {0} closed, by a search, under adding
    a generator, T, T^-1 and negation."""
    gens = [g.reduce(v) for v in gens]
    seen, frontier = {g.zero()}, [g.zero()]
    while frontier:
        base = frontier.pop()
        for e in [g.add(base, v) for v in gens] + [
                g.t_act(base), g.t_pow(base, -1), g.sub(g.zero(), base)]:
            if e not in seen:
                seen.add(e)
                frontier.append(e)
    return frozenset(seen)


def reference_lift(ses, x, eta):
    """The images of extension_homomorphism's lift, or None, found with
    the ring's own quandle operation on every pair of each candidate."""
    g = ses.g_ring
    index = {e: i for i, e in enumerate(g.elements())}
    for xi in itertools.product(sorted(ses.n_set), repeat=x.size):
        values = [g.add(ses.a_reps[eta(a)], xi[a]) for a in range(x.size)]
        if all(values[x.op(a, b)] == g.quandle_op(values[a], values[b])
               for a in range(x.size) for b in range(x.size)):
            return tuple(index[v] for v in values)
    return None


class TestObstruction2:
    def test_identity_eta_gives_scaled_carry(self):
        ses = _z9_ses()
        x = dihedral_quandle(3)
        eta = QuandleMap(x, ses.a_quandle, [0, 1, 2])
        phi = obstruction_2cocycle(ses, x, eta)
        carry, _, _ = modular_extension_cocycle(3, 2, [1, 1])
        g = ses.g_ring
        for key in ((0, 2), (1, 0), (1, 2), (2, 0)):
            assert phi(key) == g.mul(g.from_int(3), (carry(key)[0],))
        # no N-valued correction lifts eta through the projection
        assert extension_homomorphism(ses, x, eta) is None

    def test_constant_zero_eta(self):
        ses = _z9_ses()
        x = dihedral_quandle(3)
        eta = QuandleMap(x, ses.a_quandle, [0, 0, 0])
        phi = obstruction_2cocycle(ses, x, eta)
        assert phi.is_zero()
        lift = extension_homomorphism(ses, x, eta)
        assert lift is not None and is_homomorphism(lift)[0]

    def test_section_independence(self):
        # perturbing the section by an N-valued shift changes the
        # obstruction only by a coboundary
        ses = _z9_ses()
        g = ses.g_ring
        x = dihedral_quandle(3)
        eta = QuandleMap(x, ses.a_quandle, [0, 1, 2])
        phi = obstruction_2cocycle(ses, x, eta)
        shift = {0: g.zero(), 1: (3,), 2: (6,)}  # s'(i) = s(i) + shift[i]
        s2 = lambda i: g.add(ses.a_reps[i], shift[i])
        diff = Cochain(g, 2)
        for x1 in range(3):
            for x2 in range(3):
                v = g.sub(g.quandle_op(s2(eta(x1)), s2(eta(x2))),
                          s2(eta(x.op(x1, x2))))
                diff.add_term((x1, x2), g.sub(v, phi((x1, x2))))
        assert is_coboundary(ComplexSpec(x, g, "TQ", 2), diff) is not None

    def test_first_lift_is_a_later_candidate(self):
        # R(4) onto Z4/(2) = T(2) by parity: the section's own values
        # (0, 1, 0, 1) do not lift, the correction (0, 0, 2, 2) does
        ses = SesSpec(parse_ring("Z4[T]/(T+1)"), ((2,),))
        x = dihedral_quandle(4)
        eta = QuandleMap(x, ses.a_quandle, [0, 1, 0, 1])
        assert not is_homomorphism(QuandleMap(
            x, alexander_quandle(ses.g_ring), [0, 1, 0, 1]))[0]
        assert extension_homomorphism(ses, x, eta).values == (0, 1, 2, 3)
        z9, r3 = _z9_ses(), dihedral_quandle(3)
        z8 = SesSpec(parse_ring("Z8[T]/(T+3)"), ((4,),))
        for ses, x, images in ((ses, x, [0, 1, 0, 1]), (ses, x, [1, 0, 1, 0]),
                               (z8, x, [1, 2, 1, 2]), (z8, x, [3, 0, 3, 0]),
                               (z9, r3, [0, 1, 2]), (z9, r3, [0, 0, 0])):
            eta = QuandleMap(x, ses.a_quandle, images)
            lift = extension_homomorphism(ses, x, eta)
            assert (lift.values if lift else None) == \
                reference_lift(ses, x, eta), images

    def test_non_homomorphism_rejected(self):
        ses = _z9_ses()
        x = dihedral_quandle(3)
        with pytest.raises(CocycleError):
            obstruction_2cocycle(ses, x, QuandleMap(x, ses.a_quandle, [0, 0, 1]))


class TestObstruction3:
    def test_zero_phi(self):
        ses = _z9_ses()
        x = dihedral_quandle(3)
        theta = obstruction_3cocycle(ses, x, Cochain(ses.g_ring, 2))
        assert theta.is_zero()

    def test_carry_section_gives_verified_cocycle(self):
        ses = _z9_ses()
        g = ses.g_ring
        x = dihedral_quandle(3)
        carry, _, _ = modular_extension_cocycle(3, 2, [1, 1])
        phi = Cochain(g, 2)
        for key, v in carry.values.items():
            phi.add_term(key, ses.a_reps[v[0]])
        theta = obstruction_3cocycle(ses, x, phi)
        assert is_cocycle(ComplexSpec(x, g, "TQ", 3), theta)[0]
        for key, v in theta.values.items():
            assert v in ses.n_set

    def test_exact_relation_gives_zero(self):
        # an N-valued cocycle projects to zero in A, so its section is the
        # zero cochain and the obstruction vanishes
        ses = _z9_ses()
        x = dihedral_quandle(3)
        eta = QuandleMap(x, ses.a_quandle, [0, 1, 2])
        phi = obstruction_2cocycle(ses, x, eta)
        theta = obstruction_3cocycle(ses, x, phi)
        assert theta.is_zero()


class TestLiftH1:
    def test_example_2cocycle(self):
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        psi, is_tq = lift_h1(x, ring, {(0, 1): (1,)})
        assert is_tq
        assert render_cochain(psi) == ("0,1 -> 1\n0,2 -> 2\n1,0 -> 2\n"
                                       "1,2 -> 1\n2,0 -> 1\n2,1 -> 2\n")

    def test_other_seed_gives_negative(self):
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        a, _ = lift_h1(x, ring, {(0, 1): (1,)})
        b, _ = lift_h1(x, ring, {(0, 1): (2,)})
        for key in a.values:
            assert ring.add(a(key), b(key)) == ring.zero()

    def test_example_3cocycle(self):
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        theta, is_tq = lift_h1(x, ring, {(0, 1, 0): (1,)})
        assert is_tq
        plus = {(0, 1, 0), (2, 0, 2), (1, 2, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)}
        minus = {(0, 2, 0), (2, 1, 2), (1, 0, 1), (0, 1, 2), (2, 0, 1), (1, 2, 0)}
        assert {k for k, v in theta.values.items() if v == (1,)} == plus
        assert {k for k, v in theta.values.items() if v == (2,)} == minus
        spec = ComplexSpec(x, ring, "TQ", 3)
        assert is_coboundary(spec, theta) is None

    def test_pairing_detects_nontrivial_class(self):
        from twistq.chain import Chain
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        theta, _ = lift_h1(x, ring, {(0, 1, 0): (1,)})
        spec = ComplexSpec(x, ring, "TQ", 3)
        c = Chain(ring, 3, {(0, 1, 0): ring.from_int(1),
                            (0, 2, 0): ring.from_int(-1)})
        assert pair(spec, theta, c) == ring.from_int(2)

    def test_zero_seed_gives_zero(self):
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        psi, is_tq = lift_h1(x, ring, {(0, 1): ring.zero()})
        assert psi.is_zero() and is_tq

    def test_inconsistent_seeds_rejected(self):
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        with pytest.raises(CocycleError):
            lift_h1(x, ring, {(0, 1): (1,), (1, 2): (2,)})

    def test_vast_seed_element_is_refused_in_a_short_message(self):
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        with pytest.raises(CocycleError) as info:
            lift_h1(x, ring, {(0, 10 ** 4299) + (0,) * 5000: (1,)})
        assert "names element ~10^4299" in str(info.value)
        assert len(str(info.value)) < 300

    def test_empty_and_short_seeds_rejected(self):
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        with pytest.raises(CocycleError):
            lift_h1(x, ring, {})
        with pytest.raises(CocycleError):
            lift_h1(x, ring, {(0,): (1,)})

    def test_seeds_of_mixed_lengths_rejected(self):
        x = dihedral_quandle(3)
        ring = parse_ring("Z3[T]/(T+1)")
        with pytest.raises(CocycleError, match="seed keys must all have the "
                                               "same length"):
            lift_h1(x, ring, {(0, 1): (1,), (0, 1, 2): (1,)})


# -- the paper's formulas, written out as references -------------------------
# Each reference builds the same quandle and rings as its constructor, then
# evaluates the explicit formula on every tuple, as the constructors did
# before they took chain.delta of a lifted section.  Comparing the two
# (values in insertion order, quandle tables and raised messages) checks
# that chain's sign convention is the paper's.

def _checked(x, ring, n, f, what):
    ok, witness = is_cocycle(ComplexSpec(x, ring, "TQ", n), f)
    if not ok:
        raise CocycleError("%s fails the %d-cocycle condition at %r"
                           % (what, n, witness))
    return f


def _poly_times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return out


def _poly_quotient(num, den, p):
    """num // den over Z_p for a monic den."""
    num, d = list(num), len(den) - 1
    quo = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i] % p
        quo[i - d] = c
        for j in range(d + 1):
            num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return quo


def _ref_modular(p, m, h):
    if p < 2 or m < 2:
        raise CocycleError("need p >= 2 and m >= 2")
    big = AlexanderRing(p ** m, h)
    mid = AlexanderRing(p ** (m - 1), h)
    small = AlexanderRing(p, h)
    x = alexander_quandle(mid)
    phi = Cochain(small, 2)
    for (i1, e1), (i2, e2) in itertools.product(enumerate(mid.elements()),
                                                repeat=2):
        # the carry: the top base-p digit of the operation in the big ring
        phi.add_term((i1, i2), tuple(c // p ** (m - 1)
                                     for c in big.quandle_op(e1, e2)))
    return _checked(x, small, 2, phi, "modular carry cochain"), x, small


def _ref_polynomial(p, h, m):
    if m < 2:
        raise CocycleError("need m >= 2")
    if p < 2:
        raise CocycleError("need p >= 2 and m >= 2")
    small = AlexanderRing(p, h)
    h, d = list(small.h), small.degree
    powers = [[1]]
    for _ in range(m):
        powers.append(_poly_times(powers[-1], h, p))
    big, mid = AlexanderRing(p, powers[m]), AlexanderRing(p, powers[m - 1])
    x = alexander_quandle(mid)
    phi = Cochain(small, 2)
    pad = (0,) * d
    for (i1, e1), (i2, e2) in itertools.product(enumerate(mid.elements()),
                                                repeat=2):
        # the carry: the top h-adic digit of the operation in the big ring
        u = list(big.quandle_op(e1 + pad, e2 + pad))
        for _ in range(m - 1):
            u = _poly_quotient(u, h, p)
        phi.add_term((i1, i2), tuple((u + [0] * d)[:d]))
    return _checked(x, small, 2, phi, "polynomial carry cochain"), x, small


def _ref_dihedral(n):
    if n < 2:
        raise CocycleError("need n >= 2")
    ring = AlexanderRing(0, [1, 1])
    x = dihedral_quandle(n)
    phi = Cochain(ring, 2)
    for a, b in itertools.product(range(n), repeat=2):
        v = -1 if 2 * b < a else 0 if 2 * b < n + a else 1
        phi.add_term((a, b), ring.from_int(v))
    return _checked(x, ring, 2, phi, "dihedral integral cochain"), x, ring


def _ref_obstruction2(ses, x, eta):
    if eta.codomain != ses.a_quandle:
        raise CocycleError("eta must land in the quotient quandle of the "
                           "sequence")
    ok, witness = is_homomorphism(eta)
    if not ok:
        raise CocycleError("eta is not a quandle homomorphism (at %r)"
                           % (witness,))
    g, s = ses.g_ring, lambda a: ses.a_reps[eta(a)]
    phi = Cochain(g, 2)
    for x1, x2 in itertools.product(range(x.size), repeat=2):
        # T s(eta x1) + (1 - T) s(eta x2) - s(eta(x1 * x2))
        v = g.sub(g.add(g.t_act(s(x1)), g.sub(s(x2), g.t_act(s(x2)))),
                  s(x.op(x1, x2)))
        if v not in ses.n_set:
            raise CocycleError("obstruction value escapes the submodule")
        phi.add_term((x1, x2), v)
    return _checked(x, g, 2, phi, "lifting obstruction")


def _ref_obstruction3(ses, x, phi):
    g, op = ses.g_ring, x.op
    for key, v in phi.values.items():
        if key[0] == key[1] and v not in ses.n_set:
            raise CocycleError("phi is not normalized on degenerate pairs")
    s = lambda a, b: ses.a_reps[ses.project(phi((a, b)))]
    theta = Cochain(g, 3)
    for x1, x2, x3 in itertools.product(range(x.size), repeat=3):
        v = g.zero()
        for sign, t, value in (
                (1, 1, s(x1, x2)), (1, 0, s(op(x1, x2), x3)),
                (1, 1, s(x2, x3)), (-1, 0, s(x2, x3)),
                (-1, 1, s(x1, x3)), (-1, 0, s(op(x1, x3), op(x2, x3)))):
            v = g.add(v, g.mul(g.from_int(sign),
                               g.t_act(value) if t else value))
        if v not in ses.n_set:
            raise CocycleError(
                "phi is not a 2-cocycle over the quotient module")
        theta.add_term((x1, x2, x3), v)
    return _checked(x, g, 3, theta, "3-cocycle obstruction")


def _outcome(fn, *args):
    """Values in insertion order and the quandle table and ring, or the
    type and message of the error."""
    try:
        out = fn(*args)
    except ValueError as e:
        return type(e).__name__, str(e)
    if isinstance(out, Cochain):
        return list(out.values.items())
    phi, x, ring = out
    return list(phi.values.items()), x.table, ring


_H = [[1, 1], [1, 1, 1], [2, 1], [1, 2], [3, 3], [1], [0, 1]]


class TestPaperFormulas:
    @pytest.mark.parametrize("p,top", [(-1, 3), (2, 4), (3, 3), (4, 3),
                                       (5, 2), (6, 2)])
    def test_carry_families(self, p, top):
        for m, h in itertools.product(range(1, top + 1), _H):
            if p ** (m - 1) == 16 and len(h) == 3:
                continue  # |X| = 256: the loops would run past the guard
            assert _outcome(modular_extension_cocycle, p, m, h) == \
                _outcome(_ref_modular, p, m, h)
            assert _outcome(polynomial_extension_cocycle, p, h, m) == \
                _outcome(_ref_polynomial, p, h, m)

    def test_dihedral(self):
        for n in range(-1, 16):
            assert _outcome(dihedral_integral_cocycle, n) == \
                _outcome(_ref_dihedral, n)

    @pytest.mark.parametrize("ambient,sub", [
        ("Z9[T]/(T+1)", "3"), ("Z8[T]/(T+1)", "2"), ("Z4[T]/(T^2+T+1)", "2"),
        ("Z9[T]/(T+2)", "3")])
    def test_obstructions(self, ambient, sub):
        g = parse_ring(ambient)
        ses = SesSpec(g, (g.reduce(parse_poly(sub)),))
        a = ses.a_quandle
        rng = random.Random(ambient)
        for name in ("R(3)", "T(2)", "R(4)"):
            x = quandle_standard(name)
            derived = []
            for values in itertools.product(range(a.size), repeat=x.size):
                eta = QuandleMap(x, a, values)
                got = _outcome(obstruction_2cocycle, ses, x, eta)
                assert got == _outcome(_ref_obstruction2, ses, x, eta)
                if isinstance(got, list):
                    derived.append(Cochain(g, 2, dict(got)))
            elems = g.elements()
            randoms = [Cochain(g, 2, {k: rng.choice(elems) for k in
                                      itertools.product(range(x.size),
                                                        repeat=2)
                                      if normal or k[0] != k[1]})
                       for normal in (True, False, False) for _ in range(4)]
            for phi in derived[:6] + randoms:
                assert _outcome(obstruction_3cocycle, ses, x, phi) == \
                    _outcome(_ref_obstruction3, ses, x, phi)

    def test_every_raise_is_reached(self):
        # the messages the formulas raise, each compared with its reference
        g = parse_ring("Z9[T]/(T+1)")
        ses = SesSpec(g, ((3,),))
        x = dihedral_quandle(3)
        for phi, message in ((Cochain(g, 2, {(0, 1): (1,)}),
                              "phi is not a 2-cocycle over the quotient "
                              "module"),
                             (Cochain(g, 2, {(1, 1): (1,)}),
                              "phi is not normalized on degenerate pairs")):
            assert _outcome(obstruction_3cocycle, ses, x, phi) == \
                _outcome(_ref_obstruction3, ses, x, phi) == \
                ("CocycleError", message)
        # A = Z8/(2) is trivial, so any map from T(3) is a homomorphism,
        # but it need not lift on R(3), which the values are read on
        g = parse_ring("Z8[T]/(T+1)")
        ses = SesSpec(g, ((2,),))
        eta = QuandleMap(quandle_standard("T(3)"), ses.a_quandle, [0, 1, 1])
        assert _outcome(obstruction_2cocycle, ses, x, eta) == \
            _outcome(_ref_obstruction2, ses, x, eta) == \
            ("CocycleError", "obstruction value escapes the submodule")
