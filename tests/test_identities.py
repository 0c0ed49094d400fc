"""Structural identities of twisted (co)homology, checked without an oracle.

- Duality: for a finite modulus n, Z_n[T]/(h) is a Frobenius algebra and
  Z_n is self-injective, so H^k is isomorphic to H_k.  Over Z[T]/(h)
  the universal coefficient theorem gives H^k the free rank of H_k and
  the torsion of H_{k-1}.
- A scalar T-action on H_k and one on H^k are the same scalar.
- Splitting: H_k^TR is isomorphic to H_k^TD + H_k^TQ as abelian groups
  (Litherland and Nelson, JPAA 178 (2003), for untwisted homology).

None of them depends on an elimination order, so they check the engine
where the brute-force oracle is too slow.  A failure is a bug to
explain, never a reason to change a pinned value.
"""

import math

import pytest

from twistq.chain import VARIANTS, ComplexSpec, cohomology, homology
from twistq.coeff import parse_ring
from twistq.quandle import quandle_standard

QUANDLES = ["T(2)", "R(3)", "A(2;T^2+T+1)"]
# the rings of tests/test_golden.py
RINGS = ["Z[T]/(T+1)", "Z[T]/(T^2-1)", "Z3[T]/(T+1)", "Z9[T]/(T+1)",
         "Z2[T]/(T^2+T+1)", "Z4[T]/(T^2+T+1)", "Z5[T]/(2T^3+T+3)"]
DEGREES = range(4)


def _prime_powers(d):
    """The prime-power factors of d >= 1, ascending."""
    out, p = [], 2
    while p * p <= d:
        q = 1
        while d % p == 0:
            d //= p
            q *= p
        if q > 1:
            out.append(q)
        p += 1
    return out + [d] if d > 1 else out


def _shape(factors):
    """(free rank, sorted prime-power elementary divisors): the group up
    to isomorphism."""
    return (factors.count(0),
            sorted(q for d in factors if d for q in _prime_powers(d)))


def _scalar(info):
    """(c, m) when T acts on the nonzero module as the scalar c, with m
    its last invariant factor (0 when it has a free summand); else None."""
    t, factors = info.t_action, info.invariant_factors
    if not factors:
        return None
    c = t[-1][-1]
    for i, (row, d) in enumerate(zip(t, factors)):
        want = c % d if d else c
        if row[i] != want or any(v for j, v in enumerate(row) if j != i):
            return None
    return c, factors[-1]


def _groups(qname, rtext):
    """{(variant, degree): (homology, cohomology)} over the grid."""
    x, ring = quandle_standard(qname), parse_ring(rtext)
    return {(v, n): (homology(ComplexSpec(x, ring, v, n)),
                     cohomology(ComplexSpec(x, ring, v, n))[0])
            for v in VARIANTS for n in DEGREES}


def test_prime_powers():
    assert _prime_powers(1) == []
    assert _prime_powers(72) == [8, 9]
    assert _shape((2, 6, 0)) == (1, [2, 2, 3])


@pytest.mark.parametrize("qname", QUANDLES)
def test_duality_scalars_and_splitting(qname):
    dual = scalar = split = 0
    for rtext in RINGS:
        finite = parse_ring(rtext).modulus != 0
        groups = _groups(qname, rtext)
        for (v, n), (h, c) in groups.items():
            where = (rtext, v, n)
            if finite:
                assert c.invariant_factors == h.invariant_factors, where
            else:
                below = groups[v, n - 1][0].invariant_factors if n else ()
                want = tuple(d for d in below if d) + \
                    (0,) * h.invariant_factors.count(0)
                assert c.invariant_factors == want, where
            dual += 1
            sh, sc = _scalar(h), _scalar(c)
            if sh and sc:
                g = math.gcd(sh[1], sc[1])
                assert ((sh[0] - sc[0]) % g == 0 if g
                        else sh[0] == sc[0]), where
                scalar += 1
            if v == "TR" and n >= 1:
                tr, td, tq = (_shape(groups[w, n][0].invariant_factors)
                              for w in ("TR", "TD", "TQ"))
                assert tr == (td[0] + tq[0], sorted(td[1] + tq[1])), where
                split += 1
    assert (dual, split) == (84, 21)
    assert scalar > 0
