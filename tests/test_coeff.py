"""Ring arithmetic, polynomial text, and group-ring rendering."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from twistq.coeff import (_TOO_LONG, AlexanderRing, GroupRingElem, RingError,
                          parse_poly, parse_ring, render_poly)


def R(n):
    return AlexanderRing(n, [1, 1])  # Z_n[T]/(T+1), T acts as -1


class TestConstruction:
    def test_dihedral_ring(self):
        r3 = R(3)
        assert r3.size() == 3
        assert r3.t_act((2,)) == (1,)  # T = -1

    def test_integer_coefficients(self):
        rinf = R(0)
        assert rinf.size() is None
        assert rinf.t_act((5,)) == (-5,)
        with pytest.raises(RingError):
            rinf.elements()

    def test_four_element_field(self):
        f4 = AlexanderRing(2, [1, 1, 1])
        assert f4.size() == 4
        assert sorted(f4.render_elem(e) for e in f4.elements()) == \
            ["0", "1", "T", "T + 1"]

    def test_nonunit_constant_rejected(self):
        with pytest.raises(RingError):
            AlexanderRing(4, [2, 1])  # constant coefficient 2 not a unit

    def test_degree_zero_rejected(self):
        with pytest.raises(RingError):
            AlexanderRing(3, [1])

    def test_monic_normalization(self):
        # 2T + 2 generates the same ideal as T + 1 mod 3
        assert AlexanderRing(3, [2, 2]) == R(3)


class TestArithmetic:
    def test_t_squared_in_t2_minus_1(self):
        r = AlexanderRing(0, [-1, 0, 1])  # Z[T]/(T^2 - 1)
        t = (0, 1)
        assert r.mul(t, t) == r.one()

    def test_t_times_2_dihedral(self):
        assert R(3).t_act((2,)) == (1,)

    def test_t_squared_double_root(self):
        r = AlexanderRing(3, [1, 2, 1])  # Z_3[T]/((T+1)^2)
        assert r.mul((0, 1), (0, 1)) == (2, 1)  # T^2 = T + 2

    def test_t_pow_negative(self):
        r3 = R(3)
        assert r3.t_pow((1,), 5) == (2,)
        assert r3.t_pow((1,), -1) == (2,)

    def test_t_pow_identity(self):
        r = AlexanderRing(0, [-1, 0, 1])
        assert r.t_pow((1, 1), 0) == (1, 1)
        assert r.t_pow((1, 1), 1) == (1, 1)  # T(T+1) = T^2+T = 1+T

    def test_t_inverse_roundtrip(self):
        for ring in (R(3), AlexanderRing(2, [1, 1, 1]),
                     AlexanderRing(5, [2, 3, 1]), AlexanderRing(0, [-1, 0, 1])):
            for e in ([1] + [0] * (ring.degree - 1),
                      [0] * (ring.degree - 1) + [1]):
                e = tuple(e)
                assert ring.t_pow(ring.t_pow(e, -3), 3) == e

    def test_t_pow_is_repeated_t(self):
        for ring in (R(3), R(0), AlexanderRing(2, [1, 1, 1]),
                     AlexanderRing(5, [2, 3, 1]), AlexanderRing(0, [-1, 0, 1]),
                     AlexanderRing(0, [-1, -1, 1])):
            a = ring.reduce(range(2, ring.degree + 2))
            up = a
            for k in range(13):
                assert ring.t_pow(a, k) == up
                # T^-k a is the element that k steps of T take back to a
                down = ring.t_pow(a, -k)
                for _ in range(k):
                    down = ring.t_act(down)
                assert down == a
                up = ring.t_act(up)

    def test_t_pow_takes_logarithmically_many_products(self):
        ring = R(0)  # T = -1
        steps = []

        def counted(op):
            def run(*args):
                steps.append(op)
                assert len(steps) <= 200, "more than 200 products"
                return getattr(AlexanderRing, op)(ring, *args)
            return run
        ring.mul, ring.t_act = counted("mul"), counted("t_act")
        assert ring.t_pow((5,), 10 ** 12) == (5,)
        assert ring.t_pow((5,), -10 ** 12 - 1) == (-5,)

    def test_t_pow_refuses_coefficients_too_long_to_print(self,
                                                          monkeypatch):
        # T has infinite order in Z[T]/(T^2-T-1): T^k = F_k T + F_{k-1}
        # (Fibonacci numbers), about 0.21 k digits
        monkeypatch.delenv("TWISTQ_MAX_DIGITS", raising=False)
        ring = parse_ring("Z[T]/(T^2-T-1)")
        fib = [0, 1]
        while len(fib) <= 20001:
            fib.append(fib[-1] + fib[-2])
        assert ring.t_pow(ring.one(), 20000) == (fib[19999], fib[20000])
        started = time.perf_counter()
        for k in (10 ** 7, -10 ** 7, 10 ** 12):
            with pytest.raises(RingError, match=r"computing T\^%d makes "
                               r".*\(limit 4300; set TWISTQ_MAX_DIGITS\)"
                               % k):
                ring.t_pow(ring.one(), k)
        assert time.perf_counter() - started < 1
        monkeypatch.setenv("TWISTQ_MAX_DIGITS", "2000")
        with pytest.raises(RingError, match="limit 2000"):
            ring.t_pow(ring.one(), 10000)
        monkeypatch.setenv("TWISTQ_MAX_DIGITS", "3000")
        # T^-k = (-1)^k (F_{k+1} - F_k T)
        assert ring.t_pow(ring.one(), -10000) == (fib[10001], -fib[10000])

    def test_quandle_op(self):
        r3 = R(3)
        assert r3.quandle_op((1,), (0,)) == (2,)  # 2*0 - 1 = -1
        r = AlexanderRing(3, [1, 2, 1])
        assert r.quandle_op((1, 0), (0, 0)) == (0, 1)  # T*1

    def test_quandle_rows_are_the_quandle_op(self):
        for r in (R(5), AlexanderRing(2, [1, 1, 1]),
                  AlexanderRing(3, [2, 0, 1])):
            elems = r.elements()
            rows = r.quandle_rows(elems)
            assert next(rows) == [r.quandle_op(elems[0], b) for b in elems]
            assert list(rows) == [[r.quandle_op(a, b) for b in elems]
                                  for a in elems[1:]]

    @given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
    def test_quandle_axioms_27(self, a, b, c):
        r = AlexanderRing(3, [1, 0, 0, 1])  # 27 elements
        elems = r.elements()
        ea, eb, ec = elems[a], elems[b], elems[c]
        assert r.quandle_op(ea, ea) == ea
        lhs = r.quandle_op(r.quandle_op(ea, eb), ec)
        rhs = r.quandle_op(r.quandle_op(ea, ec), r.quandle_op(eb, ec))
        assert lhs == rhs

    def test_right_invertibility(self):
        r = AlexanderRing(2, [1, 1, 1])
        for b in r.elements():
            images = {r.quandle_op(a, b) for a in r.elements()}
            assert len(images) == r.size()


class TestText:
    def test_parse_render_roundtrip(self):
        for text in ("2T^2 - T + 1", "T + 1", "T^3 - 1", "5"):
            assert render_poly(parse_poly(render_poly(parse_poly(text)))) == \
                render_poly(parse_poly(text))

    def test_parse_ring_forms(self):
        assert parse_ring("Z3[T]/(T+1)") == R(3)
        assert parse_ring("Z[T]/(T^2-1)") == AlexanderRing(0, [-1, 0, 1])
        assert parse_ring("z3[t]/(t + 1)") == R(3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(RingError):
            parse_ring("GF(4)")
        with pytest.raises(RingError):
            parse_poly("T^-1 + 1")
        with pytest.raises(RingError):
            parse_poly("")

    @pytest.mark.parametrize("text", ["1 1", "T T", "2 3T", "T^2 T",
                                      "1 + 2 3"])
    def test_terms_after_the_first_need_a_sign(self, text):
        with pytest.raises(RingError, match="cannot parse polynomial"):
            parse_poly(text)

    def test_coefficient_and_t_of_one_term_may_be_spaced(self):
        assert parse_poly("3 T") == parse_poly("3*T") == [0, 3]
        assert parse_poly(" 2 - 3 T^2 ") == [2, 0, -3]

    def test_degree_guard_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("TWISTQ_MAX_DEGREE", "3")
        with pytest.raises(RingError, match=(
                r"polynomial 'T\^4 \+ 1' has degree 4 \(limit 3; "
                r"set TWISTQ_MAX_DEGREE\)")):
            parse_poly("T^4 + 1")
        assert parse_poly("T^3 + 1") == [1, 0, 0, 1]
        monkeypatch.delenv("TWISTQ_MAX_DEGREE")
        assert len(parse_poly("T^1024")) == 1025
        with pytest.raises(RingError, match="limit 1024"):
            parse_poly("T^1025")

    def test_descriptor(self):
        assert R(3).descriptor() == "Z3[T]/(T + 1)"
        assert parse_ring(R(3).descriptor()) == R(3)

    def test_elem_roundtrip(self):
        r = AlexanderRing(3, [1, 2, 1])
        for e in r.elements():
            assert r.reduce(parse_poly(r.render_elem(e))) == e


class TestGroupRing:
    def test_render_hopf_value(self):
        r = AlexanderRing(0, [-1, 0, 1])
        v = GroupRingElem(r, {(0, 0): 2, (1, 1): 2})
        assert v.render() == "2 + 2st"

    def test_render_inverse_powers(self):
        r = AlexanderRing(0, [-1, 0, 1])
        v = GroupRingElem(r, {(0, 0): 23, (1, 1): 2, (-1, -1): 2})
        assert v.render() == "23 + 2st + 2(st)^-1"

    def test_t_act_fixes_full_orbit(self):
        r3 = R(3)
        v = GroupRingElem(r3, {(0,): 3, (1,): 3, (2,): 3})
        assert v.t_act() == v

    def test_canonical_single_integer_term(self):
        r3 = R(3)
        v = GroupRingElem(r3, {(0,): 9})
        assert v.canonical_under_T() == v
        assert v.is_integer()
        assert v.total() == 9

    def test_canonical_picks_least_text(self):
        r3 = R(3)
        a = GroupRingElem(r3, {(1,): 1})
        b = GroupRingElem(r3, {(2,): 1})
        assert a.canonical_under_T() == b.canonical_under_T()

    def test_add_term_cancels_a_term(self):
        v = GroupRingElem(R(3), {(1,): 2})
        v.add_term((1,), -4)
        assert v.render() == "-2s"
        v.add_term((1,), 2)
        assert v.terms == {}

    def test_zero_renders(self):
        assert GroupRingElem(R(3)).render() == "0"

    def test_rank_9_key_needs_a_ninth_letter_only_when_used(self):
        r = AlexanderRing(2, [1, 1] + [0] * 7 + [1])  # T^9 + T + 1
        assert GroupRingElem(r, {(0,) * 9: 4}).render() == "4"
        assert GroupRingElem(r, {(1,) + (0,) * 8: 1}).render() == "s"
        with pytest.raises(RingError, match="no letters left to render "
                                            "rank-9 keys"):
            GroupRingElem(r, {(0,) * 8 + (1,): 1}).render()

    @pytest.mark.parametrize("render", [
        lambda big: render_poly([1, big]),
        lambda big: GroupRingElem(R(0), {(big,): 1}).render(),
        lambda big: GroupRingElem(parse_ring("Z[T]/(T^2-1)"),
                                  {(big, big): 1}).render(),
        lambda big: GroupRingElem(parse_ring("Z[T]/(T^2-1)"),
                                  {(0, 0): big}).render()],
        ids=["polynomial", "exponent", "common-exponent", "multiplicity"])
    def test_integer_too_long_to_print_is_refused(self, render):
        assert render(10 ** 4299)  # 4300 digits print
        with pytest.raises(RingError, match="more than 4300 digits, too "
                                            "long to print"):
            render(10 ** 4300)


# -- the one sum writer, against the two writers it replaced ----------------

def _ref_render_poly(coeffs):
    parts = []
    try:
        for e in range(len(coeffs) - 1, -1, -1):
            c = coeffs[e]
            if c == 0:
                continue
            if e == 0:
                body = str(abs(c))
            else:
                mono = "T" if e == 1 else "T^%d" % e
                body = mono if abs(c) == 1 else "%d%s" % (abs(c), mono)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
    except ValueError:
        raise RingError(_TOO_LONG) from None
    return " ".join(parts) if parts else "0"


def _ref_word(key):
    nonzero = [(i, e) for i, e in enumerate(key) if e != 0]
    if not nonzero:
        return "1"
    if nonzero[-1][0] >= len("stuvwxyz"):
        raise RingError("no letters left to render rank-%d keys" % len(key))
    exps = {e for _, e in nonzero}
    try:
        if len(nonzero) > 1 and len(exps) == 1 and nonzero[0][1] != 1:
            word = "".join("stuvwxyz"[i] for i, _ in nonzero)
            return "(%s)^%d" % (word, nonzero[0][1])
        return "".join("stuvwxyz"[i] if e == 1 else
                       "%s^%d" % ("stuvwxyz"[i], e) for i, e in nonzero)
    except ValueError:
        raise RingError(_TOO_LONG) from None


def _ref_render(elem):
    if not elem.terms:
        return "0"
    chunks = []
    for key in sorted(elem.terms,
                      key=lambda k: (sum(1 for e in k if e < 0), k)):
        mult = elem.terms[key]
        word = _ref_word(key)
        if word == "1":
            body = str(abs(mult))  # a ValueError past 4300 digits
        elif abs(mult) == 1:
            body = word
        else:
            body = "%d%s" % (abs(mult), word)
        if not chunks:
            chunks.append(("-" if mult < 0 else "") + body)
        else:
            chunks.append(("- " if mult < 0 else "+ ") + body)
    return " ".join(chunks)


def _written(write, *args):
    try:
        return write(*args)
    except RingError as e:
        return "RingError", str(e)
    except ValueError:
        return "ValueError"  # str() of a long multiplicity, old writer only


# 4300 digits print, 4301 do not; mapped, so no strategy's repr holds one
_INTS = st.one_of(st.integers(-3, 3), st.integers(-10 ** 25, 10 ** 25),
                  st.tuples(st.sampled_from([1, -1]),
                            st.sampled_from([4299, 4300])).map(
                                lambda t: t[0] * 10 ** t[1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_INTS, max_size=7))
def test_render_poly_writes_as_before(coeffs):
    assert _written(render_poly, coeffs) == \
        _written(_ref_render_poly, coeffs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_ring_render_writes_as_before(data):
    degree = data.draw(st.integers(1, 9))
    elem = GroupRingElem(AlexanderRing(0, [1] + [0] * (degree - 1) + [1]),
                         data.draw(st.dictionaries(
                             st.tuples(*[_INTS] * degree), _INTS,
                             max_size=4)))
    got, want = _written(elem.render), _written(_ref_render, elem)
    # the old writer leaked str()'s own ValueError for a long multiplicity
    assert got == want or want == "ValueError" and \
        got == ("RingError", _TOO_LONG)
