"""Chain assembly against an independent reference of the boundary.

The reference evaluates the formula of the `twistq.chain` docstring term
by term (`boundary_formula`) with the ring's own arithmetic and builds
every matrix entry by entry, so it shares no code with the one boundary
pass that `boundary`, `delta` and the engine's columns read.
"""

import itertools
import random

import pytest

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


@pytest.mark.parametrize("qname", QUANDLES)
def test_columns_match_the_formula(qname):
    for spec in _grid():
        if spec.x.name != qname:
            continue
        ring, n, v = spec.ring, spec.degree, spec.variant
        low = basis_tuples(spec.x, n - 1, v) if n >= 1 else []
        basis = basis_tuples(spec.x, n, v)
        high = basis_tuples(spec.x, n + 1, v)
        units = [_unit(ring, k) for k in range(ring.degree)]
        _same(_columns(spec), _ref_columns(
            ring, [_ref_boundary(spec, {s: e}) for s in basis
                   for e in units], low))
        # column (s, e) of the coboundary: (delta f)(h) for f = e at s,
        # gathered over the terms of every d h
        images = {(s, k): {} for s in basis for k in range(ring.degree)}
        for h in high:
            for tup, texp, sg in boundary_terms(spec.x, h):
                for k, e in enumerate(units):
                    image = images.get((tup, k))
                    if image is not None:
                        image[h] = ring.add(image.get(h, ring.zero()), _act(
                            ring, sg * (-1) ** (n + 1), texp, e))
        _same(_columns(spec.at_degree(n + 1), True),
              _ref_columns(ring, list(images.values()), high))
        _same(_t_columns(spec), _ref_columns(
            ring, [{s: ring.t_act(e)} for s in basis for e in units],
            basis))


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
def test_basis_guard_runs_before_enumeration(variant, monkeypatch):
    monkeypatch.delenv("TWISTQ_MAX_BASIS", raising=False)
    # 50^12 tuples could not be enumerated in the lifetime of the test
    with pytest.raises(RingError, match="limit 20000; set TWISTQ_MAX_BASIS"):
        basis_tuples(quandle_standard("R(50)"), 12, variant)
    monkeypatch.setenv("TWISTQ_MAX_BASIS", "8")
    with pytest.raises(RingError, match="limit 8"):
        basis_tuples(quandle_standard("R(3)"), 2, variant)
    monkeypatch.setenv("TWISTQ_MAX_BASIS", "9")
    assert len(basis_tuples(quandle_standard("R(3)"), 2, variant)) == \
        {"TR": 9, "TD": 3, "TQ": 6}[variant]
