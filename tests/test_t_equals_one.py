"""The T = 1 specialization as an oracle for deep degrees.

Over Z[T]/(T-1) the twisted boundary is the untwisted one (the source
paper's d with T = 1), so the TR, TQ and TD complexes are the rack,
quandle and degenerate complexes of the quandle, and published
untwisted results check the engine far past the brute-force oracle:

- Litherland and Nelson (JPAA 178, 2003): the free parts of H^R_n,
  H^Q_n and H^D_n have ranks |O|^n, |O| (|O| - 1)^(n-1) and their
  difference, |O| the number of orbits of the quandle;
- Niebrzydowski and Przytycki (JPAA 213, 2009): the quandle homology
  of R(3) is H^Q_n = Z_3^(f_n) for n >= 2, with f_1 = f_2 = 0, f_3 = 1
  and f_n = f_(n-1) + f_(n-3), and H^Q_1 = Z, R(3) being one orbit;
- the universal coefficient theorem: the complexes over Zm[T]/(T-1)
  are those over Z tensored with Z_m, so H_n there is
  H_n (x) Z_m + Tor(H_(n-1), Z_m), both read off the answers over Z.

The orbit counts are read off each quandle's table, and every expected
value follows from them, from the recurrence or from the answers over
Z.  The one value pinned from a run of the engine is labelled so.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from twistq.chain import VARIANTS, ComplexSpec, homology
from twistq.coeff import parse_ring
from twistq.quandle import quandle_product, quandle_standard

T1 = parse_ring("Z[T]/(T-1)")

# order <= 6; A(5;T+2) and A(5;T+3) have T = 3 and T = 2
QUANDLES = ["T(1)", "T(2)", "T(3)", "T(4)", "T(5)", "T(6)", "R(3)", "R(4)",
            "R(5)", "R(6)", "A(2;T^2+T+1)", "A(5;T+2)", "A(5;T+3)"]
DEGREE_4_MAX_ORDER = 4  # degree 4 builds d_5 with |X|^5 columns


def orbits(x):
    """The number of orbits of x, the classes of y ~ y * z."""
    root = list(range(x.size))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for y in range(x.size):
        for z in range(x.size):
            root[find(x.op(y, z))] = find(y)
    return len({find(a) for a in range(x.size)})


def free_rank(variant, o, n):
    """Litherland and Nelson's rank of the free part of H_n, o orbits."""
    rack, quandle = o ** n, o * (o - 1) ** (n - 1)
    return {"TR": rack, "TQ": quandle, "TD": rack - quandle}[variant]


def f(n):
    """f_n of the R(3) recurrence."""
    out = [None, 0, 0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-3])
    return out[n]


def test_orbit_counts():
    # trivial quandles are all orbits; R(n) has one orbit for n odd and
    # two (the parities) for n even; 1 - T is a unit of F_4 and of Z_5
    assert [orbits(quandle_standard(q)) for q in QUANDLES] == \
        [1, 2, 3, 4, 5, 6, 1, 2, 1, 2, 1, 1, 1]


def test_recurrence():
    assert [f(n) for n in range(1, 11)] == [0, 0, 1, 1, 1, 2, 3, 4, 6, 9]


def check_free_ranks(x, top):
    """The free ranks of x's TR, TQ and TD homology in degrees 1..top."""
    o = orbits(x)
    for n in range(1, top + 1):
        for variant in VARIANTS:
            factors = homology(ComplexSpec(x, T1, variant, n)).invariant_factors
            assert factors.count(0) == free_rank(variant, o, n), \
                (x.name, variant, n, factors)


@pytest.mark.parametrize("qname", QUANDLES)
def test_free_ranks_at_t_equals_one(qname):
    x = quandle_standard(qname)
    check_free_ranks(x, 4 if x.size <= DEGREE_4_MAX_ORDER else 3)


@pytest.mark.parametrize("first,second,o", [("R(3)", "T(2)", 2),
                                            ("T(2)", "T(2)", 4)])
def test_free_ranks_of_products(first, second, o):
    # a product's orbits are the pairs of its factors' orbits; R(3) x R(3)
    # is left out, its degree 3 alone taking over a second
    x = quandle_product(quandle_standard(first), quandle_standard(second))
    assert orbits(x) == o
    check_free_ranks(x, 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_r3_quandle_homology_is_z3_to_the_f_n(n):
    info = homology(ComplexSpec(quandle_standard("R(3)"), T1, "TQ", n))
    # zeros (free summands) come last: every d_i divides 0
    assert info.invariant_factors == \
        (3,) * f(n) + (0,) * free_rank("TQ", 1, n)


@pytest.mark.parametrize("n", [3, 4])
def test_r5_quandle_homology_regression(n):
    # a regression value from the engine, not a theorem; degree 5 (also
    # Z_5) runs in CI, past tier-1's sizes
    info = homology(ComplexSpec(quandle_standard("R(5)"), T1, "TQ", n))
    assert info.invariant_factors == (5,)


@functools.lru_cache(maxsize=None)
def over_z(qname, variant, n):
    return homology(ComplexSpec(quandle_standard(qname), T1, variant, n)
                    ).invariant_factors


def divisibility_chain(orders):
    """The invariant factors d_1 | d_2 | ... of the sum of the Z_d, d in
    orders (all finite): the k-th largest factor is the product of the
    k-th largest powers of each prime."""
    powers = {}
    for d in orders:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    factors = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            factors[k] *= q
    return tuple(sorted(factors))


def test_divisibility_chain():
    assert divisibility_chain([6, 2, 1, 4, 9]) == (2, 6, 36)
    assert divisibility_chain([1, 1]) == ()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["R(3)", "R(4)", "T(2)", "A(2;T^2+T+1)"]),
       st.sampled_from(VARIANTS), st.integers(2, 4),
       st.sampled_from([2, 3, 4, 6, 9]))
def test_change_of_coefficients(qname, variant, n, m):
    ring = parse_ring("Z%d[T]/(T-1)" % m)
    got = homology(ComplexSpec(quandle_standard(qname), ring, variant, n))
    # Z_d (x) Z_m = Tor(Z_d, Z_m) = Z_gcd(d, m); Z (x) Z_m = Z_m, Tor 0
    tensor = [math.gcd(d, m) for d in over_z(qname, variant, n)]
    tor = [math.gcd(d, m) for d in over_z(qname, variant, n - 1) if d]
    assert got.invariant_factors == divisibility_chain(tensor + tor), \
        (qname, variant, n, m)
