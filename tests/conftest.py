"""Shared test inputs."""

import pytest


def _torus_pd(n):
    """PD code of T(2, n), the closure of the 2-braid sigma_1^n, with
    semiarcs numbered along one component after the other."""
    label = {}
    for arc in ((1, 0), (2, 0)):  # (braid position, crossing it enters)
        while arc not in label:
            label[arc] = len(label) + 1
            arc = (3 - arc[0], (arc[1] + 1) % n)
    rows = ["Xp[%d,%d,%d,%d]" % (label[2, k], label[2, (k + 1) % n],
                                 label[1, (k + 1) % n], label[1, k])
            for k in range(n)]
    return "\n".join(rows) + "\nface out: %dL\nouter out\n" % label[1, 0]


@pytest.fixture
def torus_pd():
    return _torus_pd
