"""Golden reports: full homology and cohomology results, pinned.

A SHA-256 digest per quandle over every homology and cohomology result
(invariant factors, generators, T-action, rendered cocycle generators)
and two coboundaries (of the first cocycle generator, and of a fixed
probe cochain, which for TQ is also nonzero on a degenerate tuple) on a
grid of quandles, rings, variants and degrees.  Printed generators and
non-scalar T-actions depend on the pivot order, so this pins that order
as well as the answers.  The digests were computed before the chain
assembly and the pivot search were rewritten; never regenerate them to
make a change pass.
"""

import hashlib
import json

import pytest

from twistq.chain import (Cochain, ComplexSpec, VARIANTS, basis_tuples,
                          cohomology, delta, homology, render_cochain)
from twistq.coeff import parse_ring
from twistq.quandle import quandle_standard

QUANDLES = ["T(2)", "R(3)", "R(4)", "A(2;T^2+T+1)", "A(3;T+1)"]
RINGS = ["Z[T]/(T+1)", "Z[T]/(T^2-1)", "Z3[T]/(T+1)", "Z9[T]/(T+1)",
         "Z2[T]/(T^2+T+1)", "Z4[T]/(T^2+T+1)", "Z5[T]/(2T^3+T+3)"]
DEGREES = range(4)

PINNED = {
    "T(2)": "b04e160196b59a390cf286f5c85ceb3df62b9da266e0ec7d3d5437d7167696e2",
    "R(3)": "8c386ecb1a35ee2bb00c8108aefa1aceafc4cfecf11f8e61631a515fe45bb96b",
    "R(4)": "c4011265f7a2cd2fa9962e50aa3ee8af536b791764613a00f6ce40d0b62b3c69",
    "A(2;T^2+T+1)":
        "53f1dbbb6612605c533dd92c02f1c4d8858bbc3a40528aca431920542eca3f68",
    # the same table as R(3)
    "A(3;T+1)": "8c386ecb1a35ee2bb00c8108aefa1aceafc4cfecf11f8e61631a515fe45bb96b",
}


def _probe(spec):
    """A cochain that is not a cocycle in general: 1 on the first basis
    tuple, T on the last, and for TQ in degree >= 2 also 1 on the
    degenerate tuple (0, ..., 0)."""
    ring, n = spec.ring, spec.degree
    basis = basis_tuples(spec.x, n, spec.variant)
    f = Cochain(ring, n)
    if basis:
        f.add_term(basis[0], ring.one())
        f.add_term(basis[-1], ring.t_act(ring.one()))
    if spec.variant == "TQ" and n >= 2:
        f.add_term((0,) * n, ring.one())
    return f


def _reports(qname):
    x = quandle_standard(qname)
    out = []
    for rtext in RINGS:
        ring = parse_ring(rtext)
        for variant in VARIANTS:
            for n in DEGREES:
                spec = ComplexSpec(x, ring, variant, n)
                h = homology(spec)
                c, gens = cohomology(spec)
                first = gens[0] if gens else Cochain(ring, n)
                out.append({
                    "complex": [rtext, variant, n],
                    "homology": [h.invariant_factors, h.generators,
                                 h.t_action],
                    "cohomology": [c.invariant_factors, c.generators,
                                   c.t_action,
                                   [render_cochain(g) for g in gens]],
                    "delta_cocycle": render_cochain(delta(spec, first)),
                    "delta_probe": render_cochain(delta(spec, _probe(spec))),
                })
    return out


@pytest.mark.parametrize("qname", QUANDLES)
def test_reports_match_the_pinned_digest(qname):
    blob = json.dumps(_reports(qname), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED[qname]
