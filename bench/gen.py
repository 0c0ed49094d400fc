"""Seeded input generator for the benchmark workloads.

The workload seed reaches the program only through what this module
returns: the random cochains fed to the coboundary solves and the order
in which cases run.  The torus diagrams do not depend on the seed: the
coloring search visits semiarcs and checks crossings in the order the
code lists them, and reordering crossings moves a search's cost by up to
a quarter, which would hide the changes the benchmark is meant to show.
"""

import random


def torus_pd(n):
    """PD code of T(2, n), the closure of the 2-braid sigma_1^n.

    Semiarcs are numbered 1..2n in traversal order, one component after
    the other, as in published PD codes.  The anchor of the planar region
    numbering is the region left of semiarc 1.
    """
    # semiarc (position, k) enters crossing k at braid position 1 or 2;
    # each crossing swaps the positions, the strand from position 1 on top
    follow = {}
    for k in range(n):
        follow[(1, k)] = (2, (k + 1) % n)
        follow[(2, k)] = (1, (k + 1) % n)
    label = {}
    for start in ((1, 0), (2, 0)):
        arc = start
        while arc not in label:
            label[arc] = len(label) + 1
            arc = follow[arc]
    lines = []
    for k in range(n):
        k1 = (k + 1) % n
        lines.append("Xp[%d,%d,%d,%d]" % (label[(2, k)], label[(2, k1)],
                                          label[(1, k1)], label[(1, k)]))
    lines.append("face out: %dL" % label[(1, 0)])
    lines.append("outer out")
    return "\n".join(lines) + "\n"


def render_element(coeffs):
    """Text of a ring element c_0 + c_1 T + ... that twistq can parse."""
    parts = []
    for k, c in enumerate(coeffs):
        if c:
            mono = "" if k == 0 else ("T" if k == 1 else "T^%d" % k)
            parts.append("%s %d%s" % ("-" if c < 0 else "+", abs(c), mono))
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def render_cochain(values):
    return "".join("%s -> %s\n" % (",".join(map(str, key)),
                                   render_element(values[key]))
                   for key in sorted(values))


def random_cochain(rng, keys, modulus, ring_degree):
    """Random values on the given basis tuples, never all zero; integer
    coefficients (modulus 0) are drawn from -2..2."""
    values = {}
    for key in keys:
        if modulus:
            v = tuple(rng.randrange(modulus) for _ in range(ring_degree))
        else:
            v = tuple(rng.randint(-2, 2) for _ in range(ring_degree))
        if any(v):
            values[key] = v
    if not values:
        values[keys[0]] = (1,) + (0,) * (ring_degree - 1)
    return values


def case_rng(seed, case_name):
    """Generator for one case's inputs, independent of the case list."""
    return random.Random("%d:%s" % (seed, case_name))


def case_order(seed, pass_index, names, slots=1):
    """The order of one pass: every case `slots` times, shuffled."""
    order = [name for name in names for _ in range(slots)]
    random.Random("%d:pass%d" % (seed, pass_index)).shuffle(order)
    return order


def light_order(seed, round_index, names):
    """The order of one round of the light cases, each once."""
    order = list(names)
    random.Random("%d:light%d" % (seed, round_index)).shuffle(order)
    return order
