"""Quandle validation, standard families, extensions and isomorphisms."""

import itertools
import random
import tracemalloc

import pytest

from twistq import catalog, cli
from twistq.coeff import AlexanderRing, RingError, parse_poly, parse_ring
from twistq.chain import Cochain, parse_cochain
from twistq.cocycles import SesSpec
from twistq.quandle import (FiniteQuandle, QuandleError, QuandleMap,
                            alexander_quandle, dihedral_quandle,
                            find_isomorphism, is_homomorphism,
                            parse_quandle_table, quandle_extension,
                            quandle_product, quandle_standard,
                            render_quandle_table, trivial_quandle)


def _first_distributivity_failure(t):
    """The error message for the first (a, b, c), in lexicographic
    order, where (a*b)*c != (a*c)*(b*c), found triple by triple; None
    when there is none."""
    q = len(t)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                lhs, rhs = t[t[a][b]][c], t[t[a][c]][t[b][c]]
                if lhs != rhs:
                    return ("self-distributivity fails at (a, b, c) = "
                            "(%d, %d, %d): (a*b)*c == %d but (a*c)*(b*c) "
                            "== %d" % (a, b, c, lhs, rhs))
    return None


class TestValidation:
    def test_singleton(self):
        assert FiniteQuandle([[0]]).size == 1

    def test_dihedral_table_valid(self):
        t = [[(2 * b - a) % 3 for b in range(3)] for a in range(3)]
        assert FiniteQuandle(t) == dihedral_quandle(3)

    def test_idempotency_violation(self):
        with pytest.raises(QuandleError, match="idempotency"):
            FiniteQuandle([[1, 0], [0, 1]])

    def test_right_invertibility_violation(self):
        with pytest.raises(QuandleError, match="bijection"):
            FiniteQuandle([[0, 0, 0], [1, 1, 1], [0, 2, 2]])

    def test_distributivity_violation(self):
        # right translations are bijections and the diagonal is fixed,
        # but ((a*b)*c) == (a*c)*(b*c) fails
        with pytest.raises(QuandleError, match="self-distributivity"):
            FiniteQuandle([[0, 0, 3, 0], [2, 1, 0, 1],
                                [3, 3, 2, 2], [1, 2, 1, 3]])

    def test_distributivity_check_matches_triple_loop(self):
        # fixed diagonal and bijective right translations, so only
        # self-distributivity can fail
        rng = random.Random(8)
        failed = passed = 0
        for _ in range(400):
            q = rng.randint(2, 5)
            cols = []
            for b in range(q):
                col = [v for v in range(q) if v != b]
                rng.shuffle(col)
                col.insert(b, b)
                cols.append(col)
            table = [[cols[b][a] for b in range(q)] for a in range(q)]
            want = _first_distributivity_failure(table)
            if want is None:
                assert FiniteQuandle(table).size == q
                passed += 1
            else:
                with pytest.raises(QuandleError) as exc:
                    FiniteQuandle(table)
                assert str(exc.value) == want
                failed += 1
        assert failed > 100 and passed > 10

    def test_op_inverse(self):
        x = dihedral_quandle(5)
        for a in range(x.size):
            for b in range(x.size):
                assert x.inv[b][x.op(a, b)] == a


class TestStandardFamilies:
    def test_trivial(self):
        t2 = trivial_quandle(2)
        assert all(t2.op(a, b) == a for a in range(2) for b in range(2))

    def test_r2_is_t2(self):
        assert dihedral_quandle(2).table == trivial_quandle(2).table

    def test_alexander_four_element(self):
        x = alexander_quandle(AlexanderRing(2, [1, 1, 1]))
        assert x.size == 4

    def test_standard_names(self):
        assert quandle_standard("T(3)") == trivial_quandle(3)
        assert quandle_standard("R(5)") == dihedral_quandle(5)
        a = quandle_standard("A(2;T^2+T+1)")
        assert a.size == 4
        with pytest.raises(QuandleError):
            quandle_standard("Q(3)")
        with pytest.raises(QuandleError):
            quandle_standard("A(4)")

    def test_table_guard_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("TWISTQ_MAX_TABLE", "15")
        ring = AlexanderRing(2, [1, 1, 1])
        # the guard runs before the ring's elements are listed
        monkeypatch.setattr(ring, "elements",
                            lambda: pytest.fail("elements listed"))
        for build in (lambda: trivial_quandle(4), lambda: dihedral_quandle(4),
                      lambda: alexander_quandle(ring)):
            with pytest.raises(QuandleError, match=(
                    r"order 4 has a 16-cell table \(limit 15; "
                    r"set TWISTQ_MAX_TABLE\)")):
                build()
        monkeypatch.setenv("TWISTQ_MAX_TABLE", "16")
        assert dihedral_quandle(4).size == 4

    def test_alexander_name_is_sized_before_its_ring(self, monkeypatch):
        import twistq.coeff as coeff_mod
        monkeypatch.setenv("TWISTQ_MAX_DEGREE", "100000")
        monkeypatch.delenv("TWISTQ_MAX_TABLE", raising=False)
        monkeypatch.setattr(coeff_mod, "AlexanderRing",
                            lambda *a: pytest.fail("ring built"))
        with pytest.raises(QuandleError, match=(
                r"^a quandle of order ~10\^47712 has a ~10\^95424-cell "
                r"table \(limit 65536; set TWISTQ_MAX_TABLE\)$")):
            quandle_standard("A(3;T^100000+1)")

    def test_alexander_name_is_sized_before_its_terms_are_listed(
            self, monkeypatch):
        # h's 10^7 + 1 coefficients, listed, take 85 MB
        monkeypatch.setenv("TWISTQ_MAX_DEGREE", "10000000")
        monkeypatch.delenv("TWISTQ_MAX_TABLE", raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(QuandleError) as refused:
                quandle_standard("A(3;T^10000000+1)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == (
            "a quandle of order ~10^4771212 has a ~10^9542425-cell table "
            "(limit 65536; set TWISTQ_MAX_TABLE)")
        assert peak <= 5_000_000

    def test_alexander_name_is_sized_by_its_reduced_degree(self,
                                                           monkeypatch):
        # 3T^20 vanishes mod 3: the order is 3, not 3^20
        monkeypatch.setenv("TWISTQ_MAX_TABLE", "9")
        assert quandle_standard("A(3;3T^20+T+1)").size == 3
        with pytest.raises(RingError, match="zero ring"):
            quandle_standard("A(1;T^1000+1)")

    def test_dihedral_is_alexander_mod_t_plus_1(self):
        assert alexander_quandle(AlexanderRing(5, [1, 1])).table == \
            dihedral_quandle(5).table


class TestProductAndExtension:
    def test_product_of_trivials(self):
        assert quandle_product(trivial_quandle(2), trivial_quandle(2)).table \
            == trivial_quandle(4).table

    def test_product_with_singleton(self):
        x = dihedral_quandle(3)
        assert quandle_product(trivial_quandle(1), x).table == x.table

    def test_zero_cocycle_extension_is_product(self):
        ring = AlexanderRing(3, [1, 1])
        x = dihedral_quandle(3)
        zero = Cochain(ring, 2)
        ext = quandle_extension(x, ring, zero)
        assert ext.table == quandle_product(alexander_quandle(ring), x).table

    def test_extension_rejects_non_cocycle(self):
        ring = AlexanderRing(3, [1, 1])
        x = dihedral_quandle(3)
        bad = Cochain(ring, 2, {(0, 1): (1,), (1, 0): (1,)})
        with pytest.raises(QuandleError):
            quandle_extension(x, ring, bad)

    def test_guarded_before_building(self, monkeypatch):
        monkeypatch.setenv("TWISTQ_MAX_TABLE", "35")
        x = dihedral_quandle(3)
        ring = AlexanderRing(2, [1, 1])
        monkeypatch.setattr(x, "op", lambda a, b: pytest.fail("table read"))
        monkeypatch.setattr(ring, "elements",
                            lambda: pytest.fail("elements listed"))
        # not a cocycle: the guard runs before the cocycle check
        bad = Cochain(ring, 2, {(0, 1): (1,)})
        for build in (lambda: quandle_product(x, trivial_quandle(2)),
                      lambda: quandle_extension(x, ring, bad)):
            with pytest.raises(QuandleError, match=(
                    r"order 6 has a 36-cell table \(limit 35; "
                    r"set TWISTQ_MAX_TABLE\)")):
                build()
        monkeypatch.setenv("TWISTQ_MAX_TABLE", "36")
        assert quandle_product(dihedral_quandle(3),
                               trivial_quandle(2)).size == 6

    def test_ring_order_is_guarded_before_it_is_computed(self,
                                                         monkeypatch):
        # the ring's order 10^4000000, computed, is an integer of 1.7 MB
        monkeypatch.delenv("TWISTQ_MAX_TABLE", raising=False)
        ring = AlexanderRing(10 ** 4000, [1] + [0] * 999 + [1])
        x, phi = trivial_quandle(1), Cochain(ring, 2)
        tracemalloc.start()
        try:
            with pytest.raises(QuandleError) as refused:
                quandle_extension(x, ring, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == (
            "a quandle of order ~10^4000000 has a ~10^8000000-cell table "
            "(limit 65536; set TWISTQ_MAX_TABLE)")
        assert peak < 100_000

    def test_infinite_ring_rejected(self):
        with pytest.raises(QuandleError):
            quandle_extension(dihedral_quandle(3), AlexanderRing(0, [1, 1]),
                              Cochain(AlexanderRing(0, [1, 1]), 2))


# rings whose Alexander tables are checked against ring.quandle_op
_TABLE_RINGS = ["Z9[T]/(T+1)", "Z2[T]/(T^2+T+1)", "Z3[T]/(T^2+2T+1)",
                "Z4[T]/(T^2+1)", "Z5[T]/(T+2)", "Z7[T]/(T+1)"]


def _reference_table(ring, elems, cell):
    """The table over `elems` with a * b read off ring.quandle_op, one
    call per cell; cell(a * b, i, j) gives the entry."""
    return tuple(tuple(cell(ring.quandle_op(a, b), i, j)
                       for j, b in enumerate(elems))
                 for i, a in enumerate(elems))


class TestAlexanderTables:
    @pytest.mark.parametrize("text", _TABLE_RINGS)
    def test_alexander_quandle_matches_quandle_op(self, text):
        ring = parse_ring(text)
        elems = ring.elements()
        index = {e: i for i, e in enumerate(elems)}
        assert alexander_quandle(ring).table == _reference_table(
            ring, elems, lambda c, i, j: index[c])

    @pytest.mark.parametrize("eid", ["carry-modular-9", "carry-polynomial-9"])
    def test_catalog_extensions_match_quandle_op(self, eid):
        params, = (e["construct"] for e in catalog.load_catalog()
                   if e["id"] == eid)
        made = cli._checker().construct(params)
        ring = parse_ring(made["ring"])
        x = FiniteQuandle(made["quandle"]["table"])
        phi = parse_cochain(ring, made["cocycle"])
        elems = ring.elements()
        index = {e: i for i, e in enumerate(elems)}
        pairs = [(a, x1) for a in elems for x1 in range(x.size)]
        want = tuple(tuple(
            index[ring.add(ring.quandle_op(a1, a2), phi((x1, x2)))] * x.size
            + x.op(x1, x2) for a2, x2 in pairs) for a1, x1 in pairs)
        assert quandle_extension(x, ring, phi).table == want

    @pytest.mark.parametrize("text,sub", [
        ("Z9[T]/(T+1)", "3"), ("Z2[T]/(T^2+T+1)", "0"),
        ("Z3[T]/(T^2+2T+1)", "T+1"), ("Z4[T]/(T^2+1)", "2"),
        ("Z8[T]/(T+1)", "2")])
    def test_quotient_table_matches_quandle_op(self, text, sub):
        g = parse_ring(text)
        ses = SesSpec(g, (g.reduce(parse_poly(sub)),))
        assert ses.a_quandle.table == _reference_table(
            g, ses.a_reps, lambda c, i, j: ses.project(c))


class TestHomomorphisms:
    def test_identity(self):
        x = dihedral_quandle(3)
        ok, witness = is_homomorphism(QuandleMap(x, x, [0, 1, 2]))
        assert ok and witness is None

    def test_constant_map(self):
        x = dihedral_quandle(5)
        ok, _ = is_homomorphism(QuandleMap(x, x, [2] * 5))
        assert ok

    def test_every_permutation_of_r3(self):
        x = dihedral_quandle(3)
        for perm in itertools.permutations(range(3)):
            ok, _ = is_homomorphism(QuandleMap(x, x, perm))
            assert ok

    def test_non_homomorphism_witnessed(self):
        x = dihedral_quandle(4)
        ok, witness = is_homomorphism(QuandleMap(x, x, [1, 0, 2, 3]))
        assert not ok and witness is not None

    def test_find_isomorphism_r6(self):
        prod = quandle_product(dihedral_quandle(2), dihedral_quandle(3))
        f = find_isomorphism(dihedral_quandle(6), prod)
        assert f is not None
        assert is_homomorphism(f)[0]
        assert sorted(f.values) == list(range(6))

    def test_find_isomorphism_t2_r2(self):
        assert find_isomorphism(trivial_quandle(2), dihedral_quandle(2)) \
            is not None

    def test_no_isomorphism(self):
        assert find_isomorphism(trivial_quandle(3), dihedral_quandle(3)) is None
        assert find_isomorphism(trivial_quandle(2), dihedral_quandle(3)) is None

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_least_isomorphism_matches_permutation_search(self, q):
        # every labelled quandle of order q: a choice of right
        # translations a -> a * b, each fixing b, that is self-distributive
        fixing = [[p for p in itertools.permutations(range(q)) if p[b] == b]
                  for b in range(q)]
        quandles = []
        for right in itertools.product(*fixing):
            t = [[right[b][a] for b in range(q)] for a in range(q)]
            if all(t[t[a][b]][c] == t[t[a][c]][t[b][c]]
                   for a in range(q) for b in range(q) for c in range(q)):
                quandles.append(FiniteQuandle(t))
        assert len(quandles) == [1, 1, 5, 36][q - 1]
        for x in quandles:
            for y in quandles:
                least = next((p for p in itertools.permutations(range(q))
                              if is_homomorphism(QuandleMap(x, y, p))[0]),
                             None)
                f = find_isomorphism(x, y)
                assert (f.values if f else None) == least, (x.table, y.table)


class TestText:
    def test_roundtrip(self):
        x = dihedral_quandle(4)
        assert parse_quandle_table(render_quandle_table(x.table)) == x

    def test_parse_errors(self):
        with pytest.raises(QuandleError):
            parse_quandle_table("")
        with pytest.raises(QuandleError):
            parse_quandle_table("2\n0 0\n")
        with pytest.raises(QuandleError):
            parse_quandle_table("x\n0\n")
