"""Chain assembly against an independent reference of the boundary.

The reference evaluates the formula of the `twistq.chain` docstring term
by term (`boundary_formula`) with the ring's own arithmetic and builds
every matrix entry by entry, so it shares no code with the face lists
that `boundary` and the engine's columns read, nor with `delta`.
"""

import itertools
import random

import pytest

from twistq import cli
from twistq.chain import (Chain, Cochain, ComplexSpec, VARIANTS,
                          basis_tuples, boundary, delta, is_degenerate,
                          _columns, _t_columns)
from twistq.coeff import RingError, parse_ring
from twistq.quandle import quandle_standard

from boundary_formula import boundary_terms

QUANDLES = ["T(2)", "R(3)", "R(4)", "A(2;T^2+T+1)"]
# degree 1, 2 and 3, over Z and over Z/n
RINGS = ["Z[T]/(T+1)", "Z5[T]/(T+2)", "Z[T]/(T^2-1)", "Z4[T]/(T^2+T+1)",
         "Z2[T]/(T^3+T+1)"]


def _act(ring, sign, texp, v):
    v = ring.t_act(v) if texp else v
    return v if sign > 0 else ring.sub(ring.zero(), v)


def _ref_boundary(spec, values):
    """d of the chain {tuple: ring element}, degenerate targets dropped
    for TQ, as {tuple: nonzero ring element}."""
    ring, out = spec.ring, {}
    for key, coef in values.items():
        for tup, texp, s in boundary_terms(spec.x, key):
            if spec.variant == "TQ" and is_degenerate(tup):
                continue
            out[tup] = ring.add(out.get(tup, ring.zero()),
                                _act(ring, s, texp, coef))
    return {k: v for k, v in out.items() if not ring.is_zero(v)}


def _ref_delta(spec, values):
    """(delta f)(c) = (-1)^{n+1} f(d c) on the degree-(n+1) basis, with f
    read on every tuple of d c, degenerate or not."""
    ring, n = spec.ring, spec.degree
    out = {}
    for key in basis_tuples(spec.x, n + 1, spec.variant):
        acc = ring.zero()
        for tup, texp, s in boundary_terms(spec.x, key):
            if tup in values:
                acc = ring.add(acc, _act(ring, s * (-1) ** (n + 1), texp,
                                         values[tup]))
        if not ring.is_zero(acc):
            out[key] = acc
    return out


def _unit(ring, k):
    return tuple(int(i == k) for i in range(ring.degree))


def _ref_columns(ring, images, rows):
    """Column dicts from images {row tuple: ring element} of the
    coefficient units, rows ascending."""
    d = ring.degree
    index = {t: r for r, t in enumerate(rows)}
    cols = []
    for image in images:
        col = {}
        for tup in sorted(image, key=index.__getitem__):
            for m, v in enumerate(image[tup]):
                if v:
                    col[index[tup] * d + m] = v
        cols.append(col)
    return cols


def _grid():
    for qname in QUANDLES:
        x = quandle_standard(qname)
        for rtext in RINGS:
            ring = parse_ring(rtext)
            for variant in VARIANTS:
                for n in range(4):
                    yield ComplexSpec(x, ring, variant, n)


def _same(got, want):
    # rows ascending is part of the format: compare item order too
    assert [list(c.items()) for c in got] == \
        [list(c.items()) for c in want]


def _check_d(spec):
    """d_n against the formula."""
    ring, n, v = spec.ring, spec.degree, spec.variant
    low = basis_tuples(spec.x, n - 1, v) if n >= 1 else []
    _same(_columns(spec), _ref_columns(
        ring, [_ref_boundary(spec, {s: _unit(ring, k)})
               for s in basis_tuples(spec.x, n, v)
               for k in range(ring.degree)], low))


def _check_delta(spec):
    """The coboundary C^{n-1} -> C^n (n >= 1) against the formula."""
    ring, n, v = spec.ring, spec.degree, spec.variant
    high = basis_tuples(spec.x, n, v)
    # column (s, e): (delta f)(h) for f = e at s, gathered over the terms
    # of every d h
    images = {(s, k): {} for s in basis_tuples(spec.x, n - 1, v)
              for k in range(ring.degree)}
    for h in high:
        for tup, texp, sg in boundary_terms(spec.x, h):
            for k in range(ring.degree):
                image = images.get((tup, k))
                if image is not None:
                    image[h] = ring.add(image.get(h, ring.zero()), _act(
                        ring, sg * (-1) ** n, texp, _unit(ring, k)))
    _same(_columns(spec, True),
          _ref_columns(ring, list(images.values()), high))


def _check_t(spec):
    """The T-action on the degree-n coordinates."""
    ring = spec.ring
    basis = basis_tuples(spec.x, spec.degree, spec.variant)
    _same(_t_columns(spec), _ref_columns(
        ring, [{s: ring.t_act(_unit(ring, k))} for s in basis
               for k in range(ring.degree)], basis))


@pytest.mark.parametrize("qname", QUANDLES)
def test_columns_match_the_formula(qname):
    for spec in _grid():
        if spec.x.name == qname:
            _check_d(spec)
            _check_delta(spec.at_degree(spec.degree + 1))
            _check_t(spec)


def test_columns_match_the_formula_at_the_benchmark_sizes():
    # R(5) TQ as the homology workload's degree-4 case builds it: d_4 and
    # d_5 for homology, the coboundaries into degrees 4 and 5 for
    # cohomology
    spec = ComplexSpec(quandle_standard("R(5)"), parse_ring("Z5[T]/(T+1)"),
                       "TQ", 4)
    for s in (spec, spec.at_degree(5)):
        _check_d(s)
        _check_delta(s)


@pytest.mark.parametrize("variant", ["TR", "TD"])
def test_columns_match_the_formula_at_order_six(variant):
    spec = ComplexSpec(quandle_standard("R(6)"),
                       parse_ring("Z4[T]/(T^2+T+1)"), variant, 3)
    _check_d(spec)
    _check_delta(spec.at_degree(4))
    _check_t(spec)


def _random_element(rng, ring):
    bound = ring.modulus or 7
    return ring.reduce([rng.randrange(-bound, bound)
                        for _ in range(ring.degree)])


def test_boundary_and_delta_match_the_formula():
    rng = random.Random(7)
    checked = 0
    for spec in _grid():
        ring, n = spec.ring, spec.degree
        basis = basis_tuples(spec.x, n, spec.variant)
        chain = {t: _random_element(rng, ring)
                 for t in rng.sample(basis, min(len(basis), 5))}
        got = boundary(spec, Chain(ring, n, chain))
        assert got.values == _ref_boundary(spec, chain)
        # a cochain on every tuple: for TQ also on the degenerate ones,
        # which delta reads
        cochain = {t: _random_element(rng, ring)
                   for t in itertools.product(range(spec.x.size), repeat=n)}
        got = delta(spec, Cochain(ring, n, cochain))
        assert got.values == _ref_delta(spec, cochain)
        checked += 1
    assert checked == len(QUANDLES) * len(RINGS) * len(VARIANTS) * 4


def test_delta_reads_degenerate_values():
    # f = 1 on (0, 0) over R(3), TQ degree 2: -f(d h) picks up T (0, 0)
    # from (x_1, ^x_2, x_3) on h = (0, x, 0) and -(x_1 * x_2, x_3) from
    # h = (2, 1, 0) and (1, 2, 0), where x_1 * x_2 = 2 x_2 - x_1 = 0
    ring = parse_ring("Z[T]/(T^2-1)")
    spec = ComplexSpec(quandle_standard("R(3)"), ring, "TQ", 2)
    got = delta(spec, Cochain(ring, 2, {(0, 0): ring.one()}))
    assert got.values == {(0, 1, 0): (0, -1), (0, 2, 0): (0, -1),
                          (1, 2, 0): (1, 0), (2, 1, 0): (1, 0)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_basis_is_the_filtered_product(variant):
    keep = {"TR": lambda t: True, "TD": is_degenerate,
            "TQ": lambda t: not is_degenerate(t)}[variant]
    for size in range(1, 5):
        x = quandle_standard("T(%d)" % size)
        for n in range(5):
            want = [t for t in itertools.product(range(size), repeat=n)
                    if keep(t) and (n or variant != "TD")]
            assert basis_tuples(x, n, variant) == want


@pytest.mark.parametrize("variant", VARIANTS)
def test_basis_guard_runs_before_enumeration(variant, monkeypatch, capsys):
    ring = parse_ring("Z3[T]/(T+1)")

    def calls(x, n):
        # the basis, both column builders (their position tables have
        # |X|^(n-1) entries, their head tables up to |X|^n) and boundary
        spec = ComplexSpec(x, ring, variant, n)
        key = (0,) * n if variant == "TD" else tuple(range(n))  # in the basis
        chain = Chain(ring, n, {key: ring.one()})
        return [lambda: basis_tuples(x, n, variant), lambda: _columns(spec),
                lambda: _columns(spec, True), lambda: boundary(spec, chain)]

    monkeypatch.delenv("TWISTQ_MAX_BASIS", raising=False)
    # 50^12 tuples could not be enumerated in the lifetime of the test
    for call in calls(quandle_standard("R(50)"), 12):
        with pytest.raises(RingError,
                           match="limit 20000; set TWISTQ_MAX_BASIS"):
            call()
    monkeypatch.setenv("TWISTQ_MAX_BASIS", "8")
    for call in calls(quandle_standard("R(3)"), 2):
        with pytest.raises(RingError, match=r"^degree-2 basis has 9 tuples "
                           r"\(limit 8; set TWISTQ_MAX_BASIS\)$"):
            call()
    # the command line reports the refusal in one line, not a traceback
    code = cli.main(["homology", "--quandle", "R(3)", "--coeff", "Z3[T]/(T+1)",
                     "--variant", variant, "--degree", "1"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: degree-2 basis has 9 tuples (limit 8; set " \
        "TWISTQ_MAX_BASIS)\n"
    monkeypatch.setenv("TWISTQ_MAX_BASIS", "9")
    basis, d, dual, dc = [call() for call in calls(quandle_standard("R(3)"), 2)]
    assert len(basis) == len(d) == {"TR": 9, "TD": 3, "TQ": 6}[variant]
    assert len(dual) == {"TR": 3, "TD": 0, "TQ": 3}[variant]
    assert dc.degree == 1
