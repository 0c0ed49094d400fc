"""Twisted chain complexes: boundaries, (co)homology, oracle agreement."""

import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import twistq
from twistq import knot
from twistq.coeff import AlexanderRing, parse_ring
from twistq.chain import (Chain, Cochain, ComplexSpec, VARIANTS, boundary,
                          brute_force_homology, cohomology, delta, homology,
                          is_cocycle, is_coboundary, is_degenerate,
                          basis_tuples, pair, parse_cochain, render_cochain,
                          require_cocycle, _abelian_invariants, _basis_size,
                          _columns, _subgroup_closure, _t_columns)
from twistq.cocycles import CocycleError, SesSpec, modular_extension_cocycle
from twistq.quandle import (QuandleError, _check_order, alexander_quandle,
                            dihedral_quandle, quandle_extension,
                            quandle_standard, trivial_quandle)

from boundary_formula import boundary_terms

R3 = parse_ring("Z3[T]/(T+1)")


def spec(x, ring, variant="TQ", degree=2):
    return ComplexSpec(x, ring, variant, degree)


def run_optimized(code):
    """stdout of `code` run by `python -O`, which strips asserts."""
    src = os.path.dirname(os.path.dirname(twistq.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip() + out.stderr


class TestBoundary:
    def test_degree_one_is_zero(self):
        s = spec(dihedral_quandle(3), R3, "TR", 1)
        c = Chain(R3, 1, {(0,): R3.one()})
        assert boundary(s, c).is_zero()

    def test_two_chain_dihedral_mod3(self):
        # over R_3 with coefficients R_3: d(a,b) = -(a) - (b) - (a*b)
        x = dihedral_quandle(3)
        s = spec(x, R3, "TR", 2)
        c = Chain(R3, 2, {(0, 1): R3.one()})
        d = boundary(s, c)
        assert d.values == {(0,): (2,), (1,): (2,), (2,): (2,)}

    def test_two_chain_dihedral_mod5(self):
        # with gcd(n, 6) = 1 coefficients: d(a,b) = 2(b) - (a) - (a*b)
        r5 = parse_ring("Z5[T]/(T+1)")
        x = dihedral_quandle(3)
        d = boundary(spec(x, r5, "TR", 2), Chain(r5, 2, {(0, 1): r5.one()}))
        assert d.values == {(1,): (2,), (0,): (4,), (2,): (4,)}

    def test_tq_refuses_degenerate_chain(self):
        s = spec(dihedral_quandle(3), R3, "TQ", 2)
        with pytest.raises(ValueError):
            boundary(s, Chain(R3, 2, {(1, 1): R3.one()}))

    def test_td_refuses_non_degenerate_chain(self):
        # the TD complex has no non-degenerate tuples, so none in degree 1
        s = spec(dihedral_quandle(3), R3, "TD", 2)
        with pytest.raises(ValueError) as info:
            boundary(s, Chain(R3, 2, {(0, 1): R3.one()}))
        assert str(info.value) == "non-degenerate tuple (0, 1) in a TD chain"
        assert boundary(s, Chain(R3, 2, {(1, 1): R3.one()})).is_zero()

    def test_long_keys_are_refused_in_short_messages(self):
        long_key = (0,) * 200
        for call in (
                lambda: boundary(spec(dihedral_quandle(3), R3, "TQ", 200),
                                 Chain(R3, 200, {long_key: R3.one()})),
                lambda: is_coboundary(
                    spec(trivial_quandle(1), R3, "TQ", 200),
                    Cochain(R3, 200, {long_key: R3.one()}))):
            with pytest.raises(ValueError) as info:
                call()
            assert "(length 200)" in str(info.value)
            assert len(str(info.value)) < 300

    def test_trivial_quandle_factors_through_t_minus_1(self):
        # over T_2: d(x1, x2) = (T-1)[(x1) - (x2)]
        ring = parse_ring("Z[T]/(T^2-1)")
        x = trivial_quandle(2)
        d = boundary(spec(x, ring, "TR", 2),
                     Chain(ring, 2, {(0, 1): ring.one()}))
        tm1 = ring.sub(ring.t_act(ring.one()), ring.one())
        assert d.values == {(0,): tm1, (1,): ring.sub(ring.zero(), tm1)}


_SQUARE_QUANDLES = [trivial_quandle(2), trivial_quandle(3),
                    dihedral_quandle(3), dihedral_quandle(4),
                    alexander_quandle(AlexanderRing(2, [1, 1, 1]))]
_SQUARE_RINGS = [parse_ring("Z2[T]/(T+1)"), parse_ring("Z3[T]/(T+1)"),
                 parse_ring("Z2[T]/(T^2+T+1)")]


class TestComplexProperty:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_boundary_squared_zero(self, variant):
        for x in _SQUARE_QUANDLES:
            for ring in _SQUARE_RINGS:
                for n in range(2, 5):
                    s = spec(x, ring, variant, n)
                    for key in basis_tuples(x, n, variant):
                        c = Chain(ring, n, {key: ring.one()})
                        dc = boundary(s, c)
                        ddc = boundary(spec(x, ring, variant, n - 1), dc)
                        assert ddc.is_zero(), (x.name, ring.descriptor(),
                                               variant, key)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_delta_squared_zero(self, variant):
        for x in _SQUARE_QUANDLES:
            for ring in _SQUARE_RINGS:
                for n in range(0, 3):
                    s = spec(x, ring, variant, n)
                    for key in basis_tuples(x, n, variant):
                        f = Cochain(ring, n, {key: ring.one()})
                        df = delta(s, f)
                        ddf = delta(spec(x, ring, variant, n + 1), df)
                        assert ddf.is_zero()


def reference_delta(spec, f):
    """delta f from the formula's terms (boundary_formula) over the
    degree-(n + 1) basis, each source's terms summed in plain integers
    and reduced."""
    ring, n = spec.ring, spec.degree
    d, m = ring.degree, ring.modulus
    sign = 1 if n % 2 else -1  # (-1)^(n + 1)
    table = {t: [sign * a for a in v + ring.t_act(v)]
             for t, v in f.values.items()}
    out = Cochain(ring, n + 1)
    for key in basis_tuples(spec.x, n + 1, spec.variant):
        acc = [0] * d
        for t, texp, s in boundary_terms(spec.x, key):
            w = table.get(t)
            if w is not None:
                for k in range(d):
                    acc[k] += s * w[texp * d + k]
        if m:
            acc = [a % m for a in acc]
        if any(acc):
            out.add_term(key, tuple(acc))
    return out


def reference_is_cocycle(spec, f, df):
    """chain.is_cocycle given df = reference_delta(spec, f)."""
    if spec.variant == "TQ":
        for key, v in f.values.items():
            if is_degenerate(key) and not spec.ring.is_zero(v):
                return False, key
    return (True, None) if df.is_zero() else (False, min(df.values))


_DELTA_QUANDLES = [trivial_quandle(1), trivial_quandle(2),
                   dihedral_quandle(3), dihedral_quandle(4),
                   dihedral_quandle(5), quandle_standard("A(2;T^2+T+1)")]
_DELTA_RINGS = [parse_ring(r) for r in (
    "Z3[T]/(T+1)", "Z4[T]/(T+1)", "Z9[T]/(T+1)", "Z[T]/(T+1)",
    "Z2[T]/(T^2+T+1)", "Z[T]/(T^2-1)", "Z[T]/(T^3-2T+1)")]


def _random_cochain(ring, x, n, rng):
    """Values on about half of all n-tuples, degenerate ones included;
    over Z negative and 100-bit ones.  One key lies outside the quandle."""
    f = Cochain(ring, n)
    for key in itertools.product(range(x.size), repeat=n):
        if rng.random() < 0.5:
            f.add_term(key, tuple(
                rng.randrange(ring.modulus) if ring.modulus
                else rng.randrange(-2 ** 100, 2 ** 100)
                for _ in range(ring.degree)))
    if n:
        f.add_term((x.size,) * n, ring.one())
    return f


class TestDeltaAgainstReference:
    def test_values_order_and_witness(self):
        rng = random.Random(18)
        checked = 0
        for x in _DELTA_QUANDLES:
            for i, ring in enumerate(_DELTA_RINGS):
                for j, variant in enumerate(VARIANTS):
                    for n in range(0, 5):
                        # over 500 sources: each ring in one variant
                        if x.size ** (n + 1) > 500 and (i - j - n) % 3:
                            continue
                        s = spec(x, ring, variant, n)
                        f = _random_cochain(ring, x, n, rng)
                        got, want = delta(s, f), reference_delta(s, f)
                        where = (x.name, ring.descriptor(), variant, n)
                        assert got.values == want.values, where
                        assert list(got.values) == list(want.values), where
                        assert is_cocycle(s, f) == \
                            reference_is_cocycle(s, f, want), where
                        if n < 4:  # a coboundary is a cocycle
                            g = Cochain(ring, n, {
                                k: v for k, v in f.values.items()
                                if variant != "TQ" or not is_degenerate(k)})
                            assert is_cocycle(s.at_degree(n + 1),
                                              delta(s, g)) == (True, None)
                        checked += 1
        assert checked >= 300


def reference_closure(gens, modulus):
    """chain._subgroup_closure as a breadth-first search that tries every
    generator at every element."""
    zero = tuple(0 for _ in gens[0]) if gens else ()
    seen = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % modulus for a, b in zip(base, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reference_brute_force(spec):
    """chain.brute_force_homology's invariant factors by testing every
    chain's image, closing the boundaries by breadth-first search and
    multiplying each cycle's entries one by one."""
    m, n = spec.ring.modulus, spec.degree
    k = len(basis_tuples(spec.x, n, spec.variant)) * spec.ring.degree
    out_cols = _columns(spec)
    in_cols = _columns(spec.at_degree(n + 1))

    cycles = []
    for vec in itertools.product(range(m), repeat=k):
        img = {}
        for col, a in zip(out_cols, vec):
            if a:
                for i, v in col.items():
                    img[i] = (img.get(i, 0) + a * v) % m
        if not any(img.values()):
            cycles.append(vec)

    bcols = [tuple(col.get(i, 0) for i in range(k)) for col in in_cols if col]
    boundaries = reference_closure(bcols, m) if bcols else {(0,) * k}
    if not boundaries <= set(cycles):
        raise RuntimeError("a boundary is not a cycle")

    def torsion_count(q):
        c = sum(1 for z in cycles if tuple(q * a % m for a in z) in boundaries)
        if c % len(boundaries):
            raise RuntimeError("%d cycles z have %d z in B, not a multiple "
                               "of |B| = %d" % (c, q, len(boundaries)))
        return c // len(boundaries)

    return _abelian_invariants(torsion_count(0), torsion_count)


_ORACLE_QUANDLES = [trivial_quandle(1), trivial_quandle(2),
                    trivial_quandle(3), dihedral_quandle(3),
                    dihedral_quandle(4), quandle_standard("A(2;T^2+T+1)")]
# Z6 and Z12 put two primes into one torsion count
_ORACLE_RINGS = [parse_ring(r) for r in (
    "Z2[T]/(T+1)", "Z3[T]/(T+1)", "Z4[T]/(T+1)", "Z6[T]/(T+1)",
    "Z9[T]/(T+1)", "Z12[T]/(T+1)", "Z2[T]/(T^2+T+1)", "Z4[T]/(T^2+T+1)")]


@st.composite
def _generators(draw):
    """(m, gens): generators of a subgroup of Z_m^k, possibly none, with
    zero, repeated and dependent ones mixed in."""
    m = draw(st.sampled_from([2, 3, 4, 6, 9]))
    k = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(0, m - 1)] * k)
    gens = draw(st.lists(vector, max_size=4))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), (0,) * k)
    if gens and draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    if gens and draw(st.booleans()):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        s, t = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        gens.append(tuple((s * x + t * y) % m for x, y in zip(a, b)))
    return m, draw(st.permutations(gens))


class TestHomology:
    def test_h2_tq_r3_r3(self):
        info = homology(spec(dihedral_quandle(3), R3, "TQ", 2))
        assert info.invariant_factors == (3, 3)
        assert info.t_action == [[2, 0], [0, 2]]  # T acts as -identity

    def test_h2_tq_r3_coprime_coefficients(self):
        for n in (5, 7):
            ring = parse_ring("Z%d[T]/(T+1)" % n)
            info = homology(spec(dihedral_quandle(3), ring, "TQ", 2))
            assert not info.invariant_factors

    def test_h1_tq_r3(self):
        assert homology(spec(dihedral_quandle(3), parse_ring("Z2[T]/(T+1)"),
                             "TQ", 1)).invariant_factors == (2,)
        assert homology(spec(dihedral_quandle(3), R3,
                             "TQ", 1)).invariant_factors == (3, 3)

    def test_h2_tq_t2_invertible_shift(self):
        # T - 1 invertible makes the degree-2 group vanish
        ring = parse_ring("Z3[T]/(T-2)")
        assert not homology(spec(trivial_quandle(2), ring, "TQ",
                                 2)).invariant_factors

    def test_oracle_t1(self):
        info = brute_force_homology(
            spec(trivial_quandle(1), parse_ring("Z2[T]/(T+1)"), "TQ", 1))
        assert info.invariant_factors == (2,)

    def test_engine_matches_oracle_small_complexes(self):
        # every complex within the default guard; the oracle also matches
        # the loops it replaced
        kinds, checked = set(), 0
        for x in _ORACLE_QUANDLES:
            for ring in _ORACLE_RINGS:
                for variant in VARIANTS:
                    for n in range(0, 4):
                        s = spec(x, ring, variant, n)
                        k = len(basis_tuples(x, n, variant)) * ring.degree
                        if ring.modulus ** k > 729:
                            continue
                        a = homology(s).invariant_factors
                        b = brute_force_homology(s).invariant_factors
                        assert a == b == reference_brute_force(s), \
                            (x.name, ring.descriptor(), variant, n)
                        kinds.add("k = %d" % k if k < 2
                                  else "odd k" if k % 2 else "even k")
                        kinds.add("d = 0" if not any(_columns(s)) else "d")
                        checked += 1
        assert kinds == {"k = 0", "k = 1", "odd k", "even k", "d = 0", "d"}
        assert checked >= 300

    def test_h4_tq_r5_z5(self):
        # agrees with the F_5 rank of the block boundary matrices
        info = homology(spec(dihedral_quandle(5), parse_ring("Z5[T]/(T+1)"),
                             "TQ", 4))
        assert info.invariant_factors == (5, 5, 5)
        assert info.t_action == [[4, 0, 0], [0, 4, 0], [0, 0, 4]]

    def test_h3_tq_a4_f4(self):
        # agrees with the F_2 rank of the block boundary matrices
        info = homology(spec(quandle_standard("A(2;T^2+T+1)"),
                             parse_ring("Z2[T]/(T^2+T+1)"), "TQ", 3))
        assert info.invariant_factors == (2,) * 6


class TestOracleAgainstReference:
    """The oracle's half-image matching, coset closure and torsion
    tables against the loops they replaced."""

    @pytest.mark.parametrize("name,ring,variant,n,k,d_is_zero,factors", [
        ("T(1)", "Z2[T]/(T+1)", "TQ", 2, 0, True, ()),
        ("T(1)", "Z4[T]/(T+1)", "TR", 3, 1, False, (2,)),
        ("R(3)", "Z2[T]/(T+1)", "TR", 2, 9, False, (2,)),
        ("R(3)", "Z3[T]/(T+1)", "TQ", 2, 6, False, (3, 3)),
        ("R(4)", "Z4[T]/(T+1)", "TD", 2, 4, True, (2, 2)),
        ("R(3)", "Z9[T]/(T+1)", "TD", 2, 3, True, ()),
        ("T(3)", "Z2[T]/(T+1)", "TR", 2, 9, True, (2,) * 9),
    ], ids=["k0", "k1", "odd-k", "even-k", "d0-even-k", "d0-odd-k",
            "d0-every-chain-a-cycle"])
    def test_named_complexes(self, name, ring, variant, n, k, d_is_zero,
                             factors):
        s = spec(quandle_standard(name), parse_ring(ring), variant, n)
        assert len(basis_tuples(s.x, n, variant)) * s.ring.degree == k
        assert (not any(_columns(s))) == d_is_zero
        assert brute_force_homology(s).invariant_factors == factors
        assert reference_brute_force(s) == factors

    @settings(max_examples=100, deadline=None)
    @given(_generators())
    def test_closure_matches_breadth_first_search(self, case):
        m, gens = case
        assert _subgroup_closure(gens, m) == reference_closure(gens, m)

    def test_closure_of_no_generators(self):
        assert _subgroup_closure([], 5) == reference_closure([], 5) == {()}

    @pytest.mark.parametrize("name,ring,variant,n", [
        ("R(3)", "Z9[T]/(T+1)", "TD", 2),
        ("R(3)", "Z3[T]/(T+1)", "TQ", 2),
    ], ids=["d0-r3-td2-z9", "r3-tq2-z3"])
    def test_memory_at_most_the_old_loops(self, name, ring, variant, n):
        # 729 chains each, the default guard.  On CPython 3.11 the old
        # loops peak at 309 and 130 KB and this oracle at 193 and 56 KB;
        # listing all m^k chains with their images peaks at 233 and 240 KB
        s = spec(quandle_standard(name), parse_ring(ring), variant, n)

        def traced(oracle):
            oracle(s)  # fills the caches it reads
            gc.collect()  # empties the tuple free lists, so tuples count
            tracemalloc.start()
            try:
                return oracle(s), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        want, old_peak = traced(reference_brute_force)
        got, peak = traced(brute_force_homology)
        assert got.invariant_factors == want
        assert peak <= old_peak


class TestCohomology:
    def test_generators_are_cocycles(self):
        s = spec(dihedral_quandle(3), R3, "TQ", 2)
        info, gens = cohomology(s)
        assert info.invariant_factors
        for g in gens:
            assert is_cocycle(s, g)[0]

    def test_delta_of_indicator(self):
        # over R_3 with R_3 coefficients: delta chi_0 = -sum_{i != j} chi_{i,j}
        x = dihedral_quandle(3)
        s = spec(x, R3, "TQ", 1)
        chi0 = Cochain(R3, 1, {(0,): R3.one()})
        d = delta(s, chi0)
        expect = {(i, j): (2,) for i in range(3) for j in range(3) if i != j}
        assert d.values == expect

    def test_quandle_homomorphism_is_1_cocycle(self):
        x = dihedral_quandle(3)
        s = spec(x, R3, "TQ", 1)
        eta = Cochain(R3, 1, {(0,): (0,), (1,): (1,), (2,): (2,)})
        assert delta(s, eta).is_zero()

    def test_coboundary_over_z5(self):
        # the integral dihedral table becomes a coboundary mod 5
        r5 = parse_ring("Z5[T]/(T+1)")
        x = dihedral_quandle(3)
        s = spec(x, r5, "TQ", 2)
        f = Cochain(r5, 2, {(0, 2): (1,), (1, 2): (1,),
                            (1, 0): (4,), (2, 0): (4,)})
        assert is_cocycle(s, f)[0]
        g = is_coboundary(s, f)
        assert g is not None and delta(spec(x, r5, "TQ", 1), g) == f

    def test_wrong_primitive_raises_under_optimize(self):
        # the check on the solver's answer must not be an assert, which
        # python -O strips
        code = (
            "import twistq.chain as c, twistq.exactlin as e\n"
            "from twistq.coeff import parse_ring\n"
            "from twistq.quandle import dihedral_quandle\n"
            "r = parse_ring('Z3[T]/(T+1)')\n"
            "s = c.ComplexSpec(dihedral_quandle(3), r, 'TQ', 2)\n"
            "f = c.Cochain(r, 2, {(0, 1): (1,), (1, 0): (2,)})\n"
            "e.solve_linear = lambda cols, b, n: [0] * len(cols)\n"
            "try:\n"
            "    c.is_coboundary(s, f)\n"
            "except RuntimeError:\n"
            "    print('raised')\n")
        assert run_optimized(code) == "raised"

    def test_torsion_count_check_survives_optimize(self):
        # a fake "group" of order 4 with three elements killed by 2: the
        # oracle must refuse it, also when python -O strips asserts
        code = (
            "import twistq.chain as c\n"
            "try:\n"
            "    c._abelian_invariants(4, lambda q: 3)\n"
            "except RuntimeError as e:\n"
            "    print('raised:', e)\n")
        assert run_optimized(code) == \
            "raised: torsion count 3 is not a power of 2"

    def test_non_cocycle_witnessed(self):
        s = spec(dihedral_quandle(3), R3, "TQ", 2)
        f = Cochain(R3, 2, {(0, 1): (1,)})
        ok, witness = is_cocycle(s, f)
        assert not ok and witness is not None

    def test_tq_degenerate_value_rejected(self):
        s = spec(dihedral_quandle(3), R3, "TQ", 2)
        f = Cochain(R3, 2, {(1, 1): (1,)})
        ok, witness = is_cocycle(s, f)
        assert not ok and witness == (1, 1)

    def test_pair_zero_chain(self):
        s = spec(dihedral_quandle(3), R3, "TQ", 2)
        f = Cochain(R3, 2, {(0, 1): (1,)})
        assert pair(s, f, Chain(R3, 2)) == R3.zero()

    @pytest.mark.parametrize("variant,key,reason", [
        ("TQ", (0, 0), "degenerate tuple (0, 0) in a TQ chain"),
        ("TD", (0, 1), "non-degenerate tuple (0, 1) in a TD chain"),
        ("TR", (0, 3), "chain key (0, 3) is outside the quandle"),
    ])
    def test_pair_refuses_what_boundary_refuses(self, variant, key, reason):
        s = spec(dihedral_quandle(3), R3, variant, 2)
        c = Chain(R3, 2, {key: R3.one()})
        for call in (boundary, lambda s, c: pair(s, Cochain(R3, 2), c)):
            with pytest.raises(ValueError) as info:
                call(s, c)
            assert str(info.value) == reason


class TestText:
    def test_roundtrip(self):
        f = Cochain(R3, 2, {(0, 2): (1,), (1, 0): (2,)})
        assert parse_cochain(R3, render_cochain(f)).values == f.values

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_render_parse_roundtrip_in_every_degree(self, degree):
        rng = random.Random(degree)
        for ring in (R3, parse_ring("Z5[T]/(T^2+2)"),
                     parse_ring("Z[T]/(T^2-T+1)")):
            f = Cochain(ring, degree, {
                key: ring.reduce([rng.randint(-9, 9) for _ in range(2)])
                for key in itertools.product(range(3), repeat=degree)})
            text = render_cochain(f)
            for given in (None, degree):
                assert parse_cochain(ring, text, given, 3).values == f.values
        assert render_cochain(Cochain(R3, 0, {(): (1,)})) == " -> 1\n"

    def test_comments_and_blanks(self):
        f = parse_cochain(R3, "# weight table\n\n0,1 -> 2T + 1\n")
        assert f.values == {(0, 1): (0,)} or f((0, 1)) == R3.reduce([1, 2])

    def test_missing_arrow(self):
        with pytest.raises(ValueError):
            parse_cochain(R3, "0,1 2\n")

    def test_empty_needs_degree(self):
        with pytest.raises(ValueError):
            parse_cochain(R3, "")
        assert parse_cochain(R3, "", degree=2).is_zero()


class TestComplexSpec:
    def test_immutable_value(self):
        s = spec(dihedral_quandle(3), R3)
        assert s == spec(dihedral_quandle(3), R3)
        assert s != spec(dihedral_quandle(3), R3, degree=3)
        assert repr(s) == ("ComplexSpec(x=FiniteQuandle(size=3, name='R(3)'),"
                           " ring=%r, variant='TQ', degree=2)" % (R3,))
        with pytest.raises(AttributeError):
            s.degree = 3
        assert s.at_degree(3) == spec(dihedral_quandle(3), R3, degree=3)

    def test_fields_are_checked(self):
        x = dihedral_quandle(3)
        with pytest.raises(ValueError, match="variant must be one of"):
            spec(x, R3, "TX")
        with pytest.raises(ValueError, match="degree must be >= 0"):
            spec(x, R3, degree=-1)
        with pytest.raises(ValueError, match="degree must be >= 0"):
            spec(x, R3, degree=0).at_degree(-1)


class TestGuards:
    def test_basis_guard(self, monkeypatch):
        monkeypatch.setenv("TWISTQ_MAX_BASIS", "10")
        with pytest.raises(Exception, match="TWISTQ_MAX_BASIS"):
            basis_tuples(dihedral_quandle(4), 3, "TR")

    def test_delta_guard_comes_before_its_lists(self, monkeypatch):
        x = dihedral_quandle(30)
        s = spec(x, R3, "TR", 3)  # 810,000 sources
        f = Cochain(R3, 3, {(0, 1, 2): R3.one()})
        monkeypatch.setenv("TWISTQ_MAX_BASIS", "1000")
        tracemalloc.start()
        try:
            with pytest.raises(Exception) as refused:
                delta(s, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == ("degree-4 basis has 810000 tuples "
                                      "(limit 1000; set TWISTQ_MAX_BASIS)")
        assert peak < 100_000  # one list of 810,000 entries takes 6.5 MB

    @pytest.mark.parametrize("refuse,reason", [
        (lambda: _basis_size(3, 10 ** 8),
         "degree-100000000 basis has ~10^47712125 tuples (limit 20000; "
         "set TWISTQ_MAX_BASIS)"),
        (lambda: SesSpec(parse_ring("Z%d[T]/(T^1000+1)" % 10 ** 4000), []),
         "the ambient module has ~10^4000000 elements (limit 65536; "
         "set TWISTQ_MAX_TABLE)"),
        (lambda: modular_extension_cocycle(3, 10 ** 8, [1, 1]),
         "a quandle of order ~10^47712124 has a ~10^95424249-cell table "
         "(limit 65536; set TWISTQ_MAX_TABLE)"),
        (lambda: _check_order(10 ** 4000, 1000),
         "a quandle of order ~10^4000000 has a ~10^8000000-cell table "
         "(limit 65536; set TWISTQ_MAX_TABLE)"),
        (lambda: brute_force_homology(spec(
            dihedral_quandle(3), parse_ring("Z%d[T]/(T+1)" % 10 ** 4000),
            "TQ", 9)),
         "chain group has ~10^3072000 elements (limit 729; "
         "set TWISTQ_MAX_BRUTE)"),
    ], ids=["basis", "ambient", "modular", "order", "oracle"])
    def test_vast_sizes_are_refused_without_being_built(self, monkeypatch,
                                                        refuse, reason):
        # as integers, the sizes (or their lower bounds) take 1.3 to 25 MB
        for var in ("TWISTQ_MAX_BASIS", "TWISTQ_MAX_BRUTE",
                    "TWISTQ_MAX_TABLE"):
            monkeypatch.delenv(var, raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(Exception) as refused:
                refuse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == reason
        assert peak < 1_000_000

    def test_brute_guard(self):
        s = spec(dihedral_quandle(3), R3, "TR", 3)
        with pytest.raises(Exception, match="limit"):
            brute_force_homology(s)

    def test_guards_read_the_environment_when_called(self, monkeypatch):
        monkeypatch.setenv("TWISTQ_MAX_BASIS", "10")
        with pytest.raises(Exception, match="limit 10"):
            basis_tuples(dihedral_quandle(4), 3, "TR")
        monkeypatch.delenv("TWISTQ_MAX_BASIS")
        monkeypatch.setenv("TWISTQ_MAX_BRUTE", "26")
        s = spec(dihedral_quandle(3), R3, "TQ", 1)  # 27 chains
        with pytest.raises(Exception, match="limit 26"):
            brute_force_homology(s)
        monkeypatch.setenv("TWISTQ_MAX_BRUTE", "27")
        assert brute_force_homology(s).invariant_factors == \
            homology(s).invariant_factors

    def test_oracle_refuses_a_boundary_that_is_not_a_cycle(self,
                                                           monkeypatch):
        import twistq.chain as chain_mod
        real = chain_mod._columns

        def with_stray_column(s):
            cols = real(s)
            # the chain (0, 1) of degree 2 is not a cycle
            return cols + [{0: 1}] if s.degree == 3 else cols
        monkeypatch.setattr(chain_mod, "_columns", with_stray_column)
        with pytest.raises(RuntimeError, match="not a cycle"):
            brute_force_homology(spec(dihedral_quandle(3), R3, "TQ", 2))

    def test_t_columns_shape(self):
        s = spec(dihedral_quandle(3), R3, "TQ", 2)
        cols = _t_columns(s)
        assert len(cols) == len(basis_tuples(s.x, 2, "TQ"))


# -- the one cocycle check ---------------------------------------------------
# Each caller that needs a cocycle refuses a non-cocycle through
# require_cocycle, with its own error type and subject; the witness key
# shows through limits.show, so a long key is cut.

_HOPF = "Xp[1,3,2,4]\nXp[3,1,4,2]\nface out: 3L\nouter out\n"


def _non_cocycle(n, key=(0, 1, 0)):
    return Cochain(R3, n, {key[:n]: (1,)})


@pytest.mark.parametrize("call,error,message", [
    (lambda: knot.state_sum(knot.parse_pd(_HOPF), dihedral_quandle(3), R3,
                            _non_cocycle(2)),
     knot.DiagramError,
     "weight function fails the 2-cocycle condition at (0, 1, 0)"),
    (lambda: knot.state_sum_surface(knot.parse_surface("sheets: a\n"),
                                    dihedral_quandle(3), R3,
                                    _non_cocycle(3, (0, 1, 2))),
     knot.DiagramError,
     "weight function fails the 3-cocycle condition at (0, 1, 0, 2)"),
    (lambda: quandle_extension(dihedral_quandle(3), R3, _non_cocycle(2)),
     QuandleError, "phi fails the 2-cocycle condition at (0, 1, 0)"),
    (lambda: require_cocycle(spec(trivial_quandle(1), R3, "TQ", 200),
                             _non_cocycle(200, (0,) * 200), CocycleError,
                             "a cochain"),
     CocycleError, "a cochain fails the 200-cocycle condition at "
     + repr((0,) * 80)[:80] + "... (length 200)"),
], ids=["state_sum", "state_sum_surface", "quandle_extension",
        "long-key"])
def test_require_cocycle_refuses_in_each_callers_words(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
    assert len(str(info.value).encode()) < 300


def test_require_cocycle_returns_a_cocycle():
    f = Cochain(R3, 2)
    assert require_cocycle(spec(dihedral_quandle(3), R3), f, CocycleError,
                           "f") is f
