"""Golden state sums: every state sum of a grid of diagrams, pinned.

A SHA-256 digest per weight quandle over the rendered value, the number
of colorings and the rendered weight of each coloring of every state sum
on a grid: the catalog's four diagrams (one with a negative crossing,
one numbered `mod 2`), the torus links T(2, n) for n = 2..12, and the
surfaces of test_knot.py.  A diagram takes the quandle's 2-cocycle, a
surface the first generator of its degree-3 TQ cohomology; a refusal is
pinned by its message.  The digests were computed before the weight sum
and the coloring search were rewritten on integer tables; never
regenerate them to make a change pass.

The weights are also compared, coloring by coloring, with the state
sum's original loop of ring operations, kept here as the reference.
"""

import hashlib
import json

import pytest

from twistq import knot
from twistq.chain import ComplexSpec, cohomology, parse_cochain
from twistq.cocycles import (dihedral_integral_cocycle,
                             modular_extension_cocycle)
from twistq.coeff import GroupRingElem, RingError, parse_ring
from twistq.knot import (DiagramError, parse_pd, parse_surface, state_sum,
                         state_sum_surface)
from twistq.quandle import trivial_quandle

from test_knot import CATALOG_PDS, SURFACES


def _hopf():
    ring = parse_ring("Z[T]/(T^2-1)")
    return (parse_cochain(ring, "0,1 -> T\n1,0 -> 1\n"), trivial_quandle(2),
            ring)


# (2-cocycle, quandle, ring) of each weight quandle
WEIGHTS = {
    "T(2)": _hopf,
    "R(3)": lambda: dihedral_integral_cocycle(3),
    "R(5)": lambda: dihedral_integral_cocycle(5),
    "X9": lambda: modular_extension_cocycle(3, 3, [1, 1]),
    "A(2;T^2+T+1)": lambda: modular_extension_cocycle(2, 2, [1, 1, 1]),
}

PINNED = {
    "T(2)": "fee4bcae1c347b989e633cbc1624ac879a4bc709170173ac482a8ff04f109856",
    "R(3)": "77b88c975248db3f8212183e79daae220e52fcfeb5a89d78325ffc831bb319b9",
    "R(5)": "de1ef629f8f142538e53258159a1a381051e0892930b06a057b91812eb94f89b",
    "X9": "116413d74ba16409faf7699300890d6fcc5b1ad7eb4e87d784569b1114c03771",
    "A(2;T^2+T+1)":
        "6a61061c87e154d67fe1666048e36aeee6077cedcd272d1c2970946cb1aa73de",
}


def reference_weigh(cols, terms, ring, f, canonical):
    """knot._weigh as one ring operation per crossing per coloring."""
    value = GroupRingElem(ring)
    weights = []
    power = {L: ring.t_pow(ring.one(), -L) for L in {t[1] for t in terms}}
    for col in cols:
        w = ring.zero()
        for sign, L, cells in terms:
            contrib = f(tuple(col[s] for s in cells))
            if L:
                contrib = ring.mul(power[L], contrib)
            w = ring.add(w, contrib) if sign > 0 else ring.sub(w, contrib)
        weights.append(w)
        value.add_term(w, 1)
    return value.canonical_under_T() if canonical else value, cols, weights


def _grid(qname, monkeypatch, torus_pd):
    """(reports, pairs): the report of every state sum on the grid, and
    for each call of knot._weigh the pair of its (value, weights) and
    reference_weigh's on the same arguments."""
    phi, x, ring = WEIGHTS[qname]()
    _, gens = cohomology(ComplexSpec(x, ring, "TQ", 3))
    runs = [(state_sum, parse_pd(text), phi)
            for text in CATALOG_PDS + [torus_pd(n) for n in range(2, 13)]]
    runs += [(state_sum_surface, parse_surface(text), gens[0])
             for text in SURFACES]
    weigh, pairs = knot._weigh, []

    def both(*args):
        value, cols, weights = weigh(*args)
        ref_value, _, ref_weights = reference_weigh(*args)
        pairs.append(((value, weights), (ref_value, ref_weights)))
        return value, cols, weights

    monkeypatch.setattr(knot, "_weigh", both)
    reports = []
    for fn, thing, f in runs:
        try:
            value, cols, weights = fn(thing, x, ring, f)
        except (DiagramError, RingError) as e:
            reports.append(str(e))
        else:
            reports.append([value.render(), len(cols),
                            [ring.render_elem(w) for w in weights]])
    return reports, pairs


@pytest.mark.parametrize("qname", sorted(WEIGHTS))
def test_state_sums_match_the_pinned_digest(qname, monkeypatch, torus_pd):
    reports, _ = _grid(qname, monkeypatch, torus_pd)
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED[qname]


@pytest.mark.parametrize("qname", sorted(WEIGHTS))
def test_weights_match_the_ring_reference(qname, monkeypatch, torus_pd):
    _, pairs = _grid(qname, monkeypatch, torus_pd)
    assert pairs
    for got, want in pairs:
        assert got == want
