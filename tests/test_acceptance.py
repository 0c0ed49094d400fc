"""Acceptance checklist: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -q` to see the checklist.  Two
sub-items that direct computation contradicts are reported as FAIL lines
here and carried by strict-xfail companion tests; everything this suite
asserts is independently verified.
"""

import random

import pytest

from twistq.coeff import GroupRingElem, parse_ring
from twistq.chain import (Chain, Cochain, ComplexSpec, VARIANTS,
                          basis_tuples, boundary, brute_force_homology,
                          delta, homology, is_coboundary, pair)
from twistq.chain import _columns
from twistq.cocycles import (SesSpec, dihedral_integral_cocycle, lift_h1,
                             modular_extension_cocycle, obstruction_2cocycle,
                             polynomial_extension_cocycle)
from twistq.exactlin import homology_segment
from twistq.chain import render_cochain
from twistq.knot import parse_pd, state_sum
from twistq.quandle import (QuandleMap, alexander_quandle, dihedral_quandle,
                            find_isomorphism, quandle_extension,
                            quandle_product, quandle_standard,
                            trivial_quandle)


def report(capsys, num, ok, text):
    with capsys.disabled():
        print("criterion %02d: %s - %s" % (num, "PASS" if ok else "FAIL", text))


R3C = parse_ring("Z3[T]/(T+1)")

HOPF = "Xp[1,3,2,4]\nXp[3,1,4,2]\nface out: 3L\nouter out\n"
HOPF_B = "Xp[1,2,4,3]\nXp[2,1,3,4]\nface f: 1L\nouter f\n"
HOPF_R2 = ("Xp[1,2,6,5]\nXn[6,2,3,7]\nXp[3,4,8,7]\nXp[4,1,5,8]\n"
           "face f: 1L\nouter f\n")
TREFOIL = "Xp[6,4,1,3]\nXp[4,5,2,1]\nXp[5,6,3,2]\nface out: 6L\nouter out\n"
TREFOIL_K = ("Xp[8,4,1,3]\nXp[4,5,2,1]\nXp[5,6,3,2]\nXn[6,7,7,8]\n"
             "face out: 6L\nouter out\n")
TORUS = "Xp[2,3,1,4]\nXp[1,4,2,3]\nmod 2\n"


def test_criterion_01(capsys):
    info = homology(ComplexSpec(dihedral_quandle(3), R3C, "TQ", 2))
    assert info.invariant_factors == (3, 3)
    assert info.t_action == [[2, 0], [0, 2]]
    report(capsys, 1, True,
           "degree-2 homology of R(3) over Z3[T]/(T+1) is Z_3 x Z_3 "
           "with T = -identity")


def test_criterion_02(capsys):
    for n in (5, 7):
        ring = parse_ring("Z%d[T]/(T+1)" % n)
        assert not homology(ComplexSpec(dihedral_quandle(3), ring, "TQ",
                                        2)).invariant_factors
    report(capsys, 2, True,
           "degree-2 homology of R(3) vanishes over Z5 and Z7 coefficients")


def test_criterion_03(capsys):
    got2 = homology(ComplexSpec(dihedral_quandle(3),
                                parse_ring("Z2[T]/(T+1)"), "TQ", 1))
    got3 = homology(ComplexSpec(dihedral_quandle(3), R3C, "TQ", 1))
    assert got2.invariant_factors == (2,)
    assert got3.invariant_factors == (3, 3)
    report(capsys, 3, True,
           "degree-1 homology of R(3) is Z_2 over Z2 and Z_3 x Z_3 over Z3")


def _quotient_by_t_minus_1(ring):
    """Invariant factors of A / (T-1)A as an abelian group."""
    units = [tuple(int(i == j) for i in range(ring.degree))
             for j in range(ring.degree)]

    def columns(elements):
        return [{i: v for i, v in enumerate(e) if v} for e in elements]

    t = columns(ring.t_act(e) for e in units)
    t_minus_1 = columns(ring.sub(ring.t_act(e), e) for e in units)
    return homology_segment(t_minus_1, [{} for _ in units], ring.modulus,
                            t).invariant_factors


def test_criterion_04(capsys):
    rings = [parse_ring("Z2[T]/(T+1)"), parse_ring("Z3[T]/(T+1)"),
             parse_ring("Z2[T]/(T^2+T+1)")]
    mismatch = []
    for ring in rings:
        spec = ComplexSpec(trivial_quandle(2), ring, "TQ", 2)
        got = homology(spec).invariant_factors
        assert got == brute_force_homology(spec).invariant_factors
        formula = _quotient_by_t_minus_1(ring)
        if got != formula:
            mismatch.append((ring.descriptor(), got, formula))
    assert mismatch == [("Z2[T]/(T + 1)", (2, 2), (2,))]
    report(capsys, 4, False,
           "engine and oracle agree on all three coefficient modules, and "
           "the quotient formula holds over Z3 and Z2[T]/(T^2+T+1); over "
           "Z2[T]/(T+1) both engines give (2, 2) where the formula "
           "predicts (2)")


@pytest.mark.xfail(strict=True,
                   reason="the stated quotient formula predicts (2,) for "
                          "Z2[T]/(T+1) coefficients, but both the matrix "
                          "engine and the brute-force oracle compute (2, 2)")
def test_criterion_04_formula_over_z2():
    ring = parse_ring("Z2[T]/(T+1)")
    spec = ComplexSpec(trivial_quandle(2), ring, "TQ", 2)
    assert homology(spec).invariant_factors == _quotient_by_t_minus_1(ring)


def test_criterion_04_by_hand():
    # over a trivial quandle x_j * x_i = x_j, so every boundary term pairs
    # up as +-(T - 1) (tuple), and T - 1 = 0 in Z2[T]/(T+1): every boundary
    # vanishes and H_2^Q is all of C_2^Q, free over Z_2 on (0, 1), (1, 0)
    ring = parse_ring("Z2[T]/(T+1)")
    x = trivial_quandle(2)
    for n in (2, 3):
        spec = ComplexSpec(x, ring, "TQ", n)
        for key in basis_tuples(x, n, "TQ"):
            assert boundary(spec, Chain(ring, n, {key: ring.one()})).is_zero()
        # and the engine's input matrix has only empty columns
        cols = _columns(spec)
        assert len(cols) == 2 and not any(cols)
    assert basis_tuples(x, 2, "TQ") == [(0, 1), (1, 0)]
    assert homology(ComplexSpec(x, ring, "TQ", 2)).invariant_factors == (2, 2)


def test_criterion_05(capsys):
    phi, _, _ = modular_extension_cocycle(3, 2, [1, 1])
    assert render_cochain(phi) == "0,2 -> 1\n1,0 -> 2\n1,2 -> 1\n2,0 -> 2\n"
    report(capsys, 5, True,
           "modular carry cocycle (p=3, m=2, h=T+1) matches the "
           "expected table")


def test_criterion_06(capsys):
    phi, _, _ = polynomial_extension_cocycle(3, [1, 1], 2)
    assert render_cochain(phi) == \
        "0,1 -> 2\n0,2 -> 1\n1,0 -> 1\n1,2 -> 2\n2,0 -> 2\n2,1 -> 1\n"
    report(capsys, 6, True,
           "polynomial carry cocycle (p=3, h=T+1, m=2) matches the "
           "expected table")


def test_criterion_07(capsys):
    phi, x, ring = dihedral_integral_cocycle(3)
    assert render_cochain(phi) == "0,2 -> 1\n1,0 -> -1\n1,2 -> 1\n2,0 -> -1\n"
    assert ring.modulus == 0
    assert is_coboundary(ComplexSpec(x, ring, "TQ", 2), phi) is None
    report(capsys, 7, True,
           "integral dihedral cocycle (n=3) matches the table and has no "
           "primitive over Z[T]/(T+1)")


def _standard_cycles(ring):
    x = Chain(ring, 2, {(1, 0): ring.from_int(1), (2, 0): ring.from_int(-1)})
    y = Chain(ring, 2, {(0, 1): ring.from_int(1), (2, 1): ring.from_int(-1)})
    return x, y


def test_criterion_08(capsys):
    phi, q, r = modular_extension_cocycle(3, 2, [1, 1])
    phip, _, rp = polynomial_extension_cocycle(3, [1, 1], 2)
    spec = ComplexSpec(q, r, "TQ", 2)
    cx, cy = _standard_cycles(r)
    assert pair(spec, phi, cy) == r.zero()
    assert pair(spec, phip, cx) == rp.from_int(2)
    assert pair(spec, phip, cy) == rp.from_int(-2)
    assert pair(spec, phi, cx) == r.zero()
    report(capsys, 8, False,
           "pairings give phi(y)=0, phi'(x)=2, phi'(y)=-2 as expected; "
           "phi(x) evaluates to 0 where -1 was expected")


def test_criterion_08_by_hand():
    # read phi(1, 0) and phi(2, 0) off the rendered modular carry table
    table = "0,2 -> 1\n1,0 -> 2\n1,2 -> 1\n2,0 -> 2\n"
    phi, q, r = modular_extension_cocycle(3, 2, [1, 1])
    assert render_cochain(phi) == table
    values = dict(line.split(" -> ") for line in table.splitlines())
    assert values["1,0"] == values["2,0"] == "2"
    # x = (1, 0) - (2, 0) has zero boundary, so it is a 2-cycle and
    # <phi, x> = phi(1, 0) - phi(2, 0) = 2 - 2 = 0 in Z3, not -1
    cx, _ = _standard_cycles(r)
    assert set(cx.values) == {(1, 0), (2, 0)}
    assert boundary(ComplexSpec(q, r, "TQ", 2), cx).is_zero()
    assert r.modulus == 3
    assert (int(values["1,0"]) - int(values["2,0"])) % 3 == 0


@pytest.mark.xfail(strict=True,
                   reason="expected -1 but direct evaluation of the "
                          "pairing gives 0")
def test_criterion_08_phi_of_x():
    phi, q, r = modular_extension_cocycle(3, 2, [1, 1])
    cx, _ = _standard_cycles(r)
    assert pair(ComplexSpec(q, r, "TQ", 2), phi, cx) == r.from_int(-1)


def test_criterion_09(capsys):
    x = dihedral_quandle(3)
    psi, is_tq = lift_h1(x, R3C, {(0, 1): (1,)})
    assert is_tq
    assert render_cochain(psi) == ("0,1 -> 1\n0,2 -> 2\n1,0 -> 2\n"
                                   "1,2 -> 1\n2,0 -> 1\n2,1 -> 2\n")
    theta, _ = lift_h1(x, R3C, {(0, 1, 0): (1,)})
    plus = {(0, 1, 0), (2, 0, 2), (1, 2, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)}
    minus = {(0, 2, 0), (2, 1, 2), (1, 0, 1), (0, 1, 2), (2, 0, 1), (1, 2, 0)}
    assert {k for k, v in theta.values.items() if v == (1,)} == plus
    assert {k for k, v in theta.values.items() if v == (2,)} == minus
    spec3 = ComplexSpec(x, R3C, "TQ", 3)
    c = Chain(R3C, 3, {(0, 1, 0): R3C.from_int(1),
                       (0, 2, 0): R3C.from_int(-1)})
    assert pair(spec3, theta, c) == R3C.from_int(2)
    assert is_coboundary(spec3, theta) is None
    report(capsys, 9, True,
           "lifted 2- and 3-cocycle tables match; the 3-cocycle pairs to 2 "
           "against (0,1,0)-(0,2,0) and is not a coboundary, so degree-3 "
           "cohomology of R(3) over Z3 is nonzero")


def test_criterion_10(capsys):
    x = dihedral_quandle(3)
    phi, _, small = modular_extension_cocycle(3, 2, [1, 1])
    ext = quandle_extension(x, small, phi)
    assert find_isomorphism(ext, dihedral_quandle(9)) is not None
    phip, _, smallp = polynomial_extension_cocycle(3, [1, 1], 2)
    extp = quandle_extension(x, smallp, phip)
    assert find_isomorphism(extp, quandle_standard("A(3;T^2+2T+1)")) \
        is not None
    prod = quandle_product(dihedral_quandle(2), dihedral_quandle(3))
    assert find_isomorphism(dihedral_quandle(6), prod) is not None
    report(capsys, 10, True,
           "carry-cocycle extensions of R(3) are R(9) and "
           "A(3;(T+1)^2); R(6) splits as R(2) x R(3)")


def test_criterion_11(capsys):
    ring = parse_ring("Z[T]/(T^2-1)")
    phi = Cochain(ring, 2, {(0, 1): (0, 1), (1, 0): (1, 0)})
    value, cols, _ = state_sum(parse_pd(HOPF), trivial_quandle(2), ring, phi)
    assert value.render() == "2 + 2st"
    assert len(cols) == 4
    report(capsys, 11, True,
           "positive Hopf link state sum over T(2) renders '2 + 2st'")


def test_criterion_12(capsys):
    d = parse_pd(TORUS)
    phip, xp, rp = polynomial_extension_cocycle(3, [1, 1], 2)
    value = state_sum(d, xp, rp, phip)[0]
    expect = GroupRingElem(rp, {(0,): 3, (1,): 3, (2,): 3})
    assert value == expect.canonical_under_T()
    phi, x, r = modular_extension_cocycle(3, 2, [1, 1])
    assert state_sum(d, x, r, phi)[0].render() == "9"
    report(capsys, 12, True,
           "torus-diagram state sum is 3(1 + T + T^2) up to the T-action "
           "with the polynomial cocycle and 9 with the modular one")


def test_criterion_13(capsys):
    from twistq.knot import parse_surface, state_sum_surface
    ring = parse_ring("Z0[T]/(T^2-1)")
    theta = Cochain(ring, 3, {(0, 1, 2): (1, 1)})
    sp = parse_surface("sheets: x y z\n"
                       "tp: sign=+1 L=0 x=x y=y z=z\n"
                       "tp: sign=+1 L=0 x=x y=z z=y\n"
                       "tp: sign=-1 L=0 x=y y=z z=x\n"
                       "tp: sign=-1 L=0 x=z y=y z=x\n")
    value, cols, _ = state_sum_surface(sp, trivial_quandle(3), ring, theta)
    assert value.render() == "23 + 2st + 2(st)^-1"
    assert len(cols) == 27
    report(capsys, 13, True,
           "spun-Hopf surface state sum over T(3) renders "
           "'23 + 2st + 2(st)^-1'")


_SMALL_QUANDLES = [trivial_quandle(2), dihedral_quandle(3),
                   alexander_quandle(parse_ring("Z2[T]/(T^2+T+1)"))]
_SMALL_RINGS = [parse_ring("Z2[T]/(T+1)"), parse_ring("Z3[T]/(T+1)"),
                parse_ring("Z2[T]/(T^2+T+1)")]


def test_criterion_14a(capsys):
    for x in _SMALL_QUANDLES:
        for ring in _SMALL_RINGS:
            for variant in VARIANTS:
                for n in (2, 3):
                    spec = ComplexSpec(x, ring, variant, n)
                    for key in basis_tuples(x, n, variant):
                        dc = boundary(spec, Chain(ring, n, {key: ring.one()}))
                        assert boundary(ComplexSpec(x, ring, variant, n - 1),
                                        dc).is_zero()
                for n in (0, 1):
                    spec = ComplexSpec(x, ring, variant, n)
                    for key in basis_tuples(x, n, variant):
                        df = delta(spec, Cochain(ring, n, {key: ring.one()}))
                        assert delta(ComplexSpec(x, ring, variant, n + 1),
                                     df).is_zero()
    report(capsys, 14, True,
           "(a) boundary-squared and coboundary-squared vanish across the "
           "quandle/ring/variant catalog")


def test_criterion_14b(capsys):
    rng = random.Random(14)
    setups = [(dihedral_quandle(3), R3C),
              (trivial_quandle(2), parse_ring("Z2[T]/(T+1)"))]
    diagrams = [parse_pd(HOPF), parse_pd(TREFOIL)]
    for run in range(50):
        x, ring = setups[run % 2]
        eta = Cochain(ring, 1)
        for a in range(x.size):
            eta.add_term((a,), (rng.randrange(ring.modulus),))
        phi = delta(ComplexSpec(x, ring, "TQ", 1), eta)
        for d in diagrams:
            value, cols, _ = state_sum(d, x, ring, phi)
            assert value.is_integer() and value.total() == len(cols)
    report(capsys, 14, True,
           "(b) coboundary weights give the bare coloring count on 50 "
           "random 1-cochains")


def test_criterion_14c(capsys):
    ses = SesSpec(parse_ring("Z9[T]/(T+1)"), ((3,),))
    x = dihedral_quandle(3)
    eta = QuandleMap(x, ses.a_quandle, [0, 1, 2])
    phi = obstruction_2cocycle(ses, x, eta)
    for text in (HOPF, TREFOIL, TREFOIL_K):
        value, cols, _ = state_sum(parse_pd(text), x, ses.g_ring, phi)
        assert value.is_integer() and value.total() == len(cols) > 0
    report(capsys, 14, True,
           "(c) obstruction 2-cocycles give positive integer values on "
           "planar diagrams")


def test_criterion_14d(capsys):
    checked = 0
    for x in [trivial_quandle(1), trivial_quandle(2), trivial_quandle(3),
              dihedral_quandle(3)]:
        for ring in _SMALL_RINGS:
            for variant in VARIANTS:
                for n in range(0, 4):
                    spec = ComplexSpec(x, ring, variant, n)
                    k = len(basis_tuples(x, n, variant)) * ring.degree
                    if ring.modulus ** k > 729:
                        continue
                    assert homology(spec).invariant_factors == \
                        brute_force_homology(spec).invariant_factors
                    checked += 1
    assert checked >= 50
    report(capsys, 14, True,
           "(d) matrix engine matches the brute-force oracle on %d small "
           "complexes" % checked)


def test_criterion_14e(capsys):
    ring = parse_ring("Z[T]/(T^2-1)")
    phi = Cochain(ring, 2, {(0, 1): (0, 1), (1, 0): (1, 0)})
    t2 = trivial_quandle(2)
    a = state_sum(parse_pd(HOPF_B), t2, ring, phi)[0]
    b = state_sum(parse_pd(HOPF_R2), t2, ring, phi)[0]
    assert a == b
    phid, xd, rd = dihedral_integral_cocycle(3)
    c = state_sum(parse_pd(TREFOIL), xd, rd, phid)[0]
    d = state_sum(parse_pd(TREFOIL_K), xd, rd, phid)[0]
    assert c == d
    report(capsys, 14, True,
           "(e) Reidemeister-equivalent diagram pairs (II: Hopf braids, "
           "I: kinked trefoil) give equal state sums")


def test_criterion_14f(capsys):
    ring = parse_ring("Z3[T]/(T-1)")
    for x in (dihedral_quandle(3), trivial_quandle(2)):
        for variant in VARIANTS:
            for n in (2, 3):
                got = _columns(ComplexSpec(x, ring, variant, n))
                tgt = basis_tuples(x, n - 1, variant)
                src = basis_tuples(x, n, variant)
                want = [[0] * len(src) for _ in tgt]
                tix = {t: i for i, t in enumerate(tgt)}
                for j, key in enumerate(src):
                    for i in range(1, n + 1):
                        sign = -1 if i % 2 else 1
                        omit = key[:i - 1] + key[i:]
                        act = tuple(x.op(key[k], key[i - 1])
                                    for k in range(i - 1)) + key[i:]
                        for tup, s in ((omit, sign), (act, -sign)):
                            if tup in tix:
                                want[tix[tup]][j] += s
                assert all((got[j].get(i, 0) - want[i][j]) % 3 == 0
                           for i in range(len(tgt))
                           for j in range(len(src)))
    report(capsys, 14, True,
           "(f) T = 1 coefficients reproduce the untwisted boundary "
           "matrices")
