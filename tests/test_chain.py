"""Twisted chain complexes: boundaries, (co)homology, oracle agreement."""

import itertools
import os
import subprocess
import sys

import pytest

import twistq
from twistq.coeff import AlexanderRing, parse_ring
from twistq.chain import (Chain, Cochain, ComplexSpec, VARIANTS, boundary,
                          brute_force_homology, cohomology, delta, homology,
                          is_cocycle, is_coboundary, basis_tuples, pair,
                          parse_cochain, render_cochain, _t_columns)
from twistq.quandle import (alexander_quandle, dihedral_quandle,
                            quandle_standard, trivial_quandle)

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

    def test_trivial_quandle_factors_through_t_minus_1(self):
        # over T_2: d(x1, x2) = (T-1)[(x1) - (x2)]
        ring = parse_ring("Z[T]/(T^2-1)")
        x = trivial_quandle(2)
        d = boundary(spec(x, ring, "TR", 2),
                     Chain(ring, 2, {(0, 1): ring.one()}))
        tm1 = ring.sub(ring.t_act(ring.one()), ring.one())
        assert d.values == {(0,): tm1, (1,): ring.neg(tm1)}


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


class TestHomology:
    def test_h2_tq_r3_r3(self):
        info = homology(spec(dihedral_quandle(3), R3, "TQ", 2))
        assert info.invariant_factors == (3, 3)
        assert info.t_action == [[2, 0], [0, 2]]  # T acts as -identity

    def test_h2_tq_r3_coprime_coefficients(self):
        for n in (5, 7):
            ring = parse_ring("Z%d[T]/(T+1)" % n)
            info = homology(spec(dihedral_quandle(3), ring, "TQ", 2))
            assert info.is_trivial()

    def test_h1_tq_r3(self):
        assert homology(spec(dihedral_quandle(3), parse_ring("Z2[T]/(T+1)"),
                             "TQ", 1)).invariant_factors == (2,)
        assert homology(spec(dihedral_quandle(3), R3,
                             "TQ", 1)).invariant_factors == (3, 3)

    def test_h2_tq_t2_invertible_shift(self):
        # T - 1 invertible makes the degree-2 group vanish
        ring = parse_ring("Z3[T]/(T-2)")
        assert homology(spec(trivial_quandle(2), ring, "TQ", 2)).is_trivial()

    def test_oracle_t1(self):
        info = brute_force_homology(
            spec(trivial_quandle(1), parse_ring("Z2[T]/(T+1)"), "TQ", 1))
        assert info.invariant_factors == (2,)

    def test_engine_matches_oracle_small_complexes(self):
        quandles = [trivial_quandle(1), trivial_quandle(2), trivial_quandle(3),
                    dihedral_quandle(3)]
        # Z6 and Z12 put two primes into one torsion count
        rings = [parse_ring(r) for r in (
            "Z2[T]/(T+1)", "Z3[T]/(T+1)", "Z2[T]/(T^2+T+1)", "Z4[T]/(T+1)",
            "Z6[T]/(T+1)", "Z9[T]/(T+1)", "Z12[T]/(T+1)",
            "Z4[T]/(T^2+T+1)")]
        checked = 0
        for x in quandles:
            for ring in rings:
                for variant in VARIANTS:
                    for n in range(0, 4):
                        s = spec(x, ring, variant, n)
                        k = len(basis_tuples(x, n, variant)) * ring.degree
                        if ring.modulus ** k > 729:
                            continue
                        a = homology(s).invariant_factors
                        b = brute_force_homology(s).invariant_factors
                        assert a == b, (x.name, ring.descriptor(), variant, n)
                        checked += 1
        assert checked >= 50

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


class TestCohomology:
    def test_generators_are_cocycles(self):
        s = spec(dihedral_quandle(3), R3, "TQ", 2)
        info, gens = cohomology(s)
        assert not info.is_trivial()
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
            "import twistq.chain as c\n"
            "from twistq.coeff import parse_ring\n"
            "from twistq.quandle import dihedral_quandle\n"
            "r = parse_ring('Z3[T]/(T+1)')\n"
            "s = c.ComplexSpec(dihedral_quandle(3), r, 'TQ', 2)\n"
            "f = c.Cochain(r, 2, {(0, 1): (1,), (1, 0): (2,)})\n"
            "c.solve_linear = lambda cols, b, n: [0] * len(cols)\n"
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


class TestText:
    def test_roundtrip(self):
        f = Cochain(R3, 2, {(0, 2): (1,), (1, 0): (2,)})
        assert parse_cochain(R3, render_cochain(f)).values == f.values

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
        import twistq.chain as chain_mod
        monkeypatch.setattr(chain_mod, "_MAX_BASIS", 10)
        with pytest.raises(Exception, match="TWISTQ_MAX_BASIS"):
            basis_tuples(dihedral_quandle(4), 3, "TR")

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
