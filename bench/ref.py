"""Reference answers worked out from the definitions, without twistq.

The answer checks use only this module, so a defect in the package under
test cannot also hide in its own check.  Everything follows the
definitions in Carter, Elhamdadi and Saito, "Twisted quandle homology
theory and cocycle knot invariants" (AGT 2, 2002):

  d(x_1..x_n) = sum_i (-1)^i [ T (x_1..^x_i..x_n)
                               - (x_1*x_i, .., x_{i-1}*x_i, x_{i+1}, .., x_n) ]

with TQ dropping degenerate tuples (x_i == x_{i+1}), TD keeping only
them and TR keeping all.  Coefficients live in Z_n[T]/(h), h monic, and
the coboundary is (delta f)(c) = (-1)^(deg c) f(d c).
"""

import itertools
from math import gcd


class Ring:
    """Z_n[T]/(h) for a monic h given by ascending coefficients; n = 0 is Z."""

    def __init__(self, modulus, h):
        if h[-1] != 1:
            raise ValueError("reference rings need a monic h")
        self.modulus = modulus
        self.h = tuple(h)
        self.degree = len(h) - 1

    def red(self, c):
        return c % self.modulus if self.modulus else c

    def zero(self):
        return (0,) * self.degree

    def add(self, a, b):
        return tuple(self.red(x + y) for x, y in zip(a, b))

    def scale(self, k, a):
        return tuple(self.red(k * x) for x in a)

    def times_t(self, a):
        top = a[-1]
        shifted = (0,) + tuple(a[:-1])
        return tuple(self.red(s - top * c) for s, c in zip(shifted, self.h))

    def times_t_power(self, a, e):
        for _ in range(e):
            a = self.times_t(a)
        return a

    def elements(self):
        """All elements, in lexicographic order of coefficient tuples."""
        return sorted(itertools.product(range(self.modulus),
                                        repeat=self.degree))

    def unit_vectors(self):
        return [tuple(int(i == k) for i in range(self.degree))
                for k in range(self.degree)]


# -- quandles as operation tables ------------------------------------------

def dihedral_table(m):
    return [[(2 * b - a) % m for b in range(m)] for a in range(m)]


def alexander_table(ring):
    """a * b = T a + (1 - T) b on the ring's elements in enumeration order."""
    elems = ring.elements()
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            ta, tb = ring.times_t(a), ring.times_t(b)
            row.append(index[tuple(ring.red(x + y - z)
                                   for x, y, z in zip(ta, b, tb))])
        table.append(row)
    return table


def product_table(x, y):
    """Direct product; element (a, b) is encoded as a * |y| + b."""
    qy = len(y)
    return [[x[a1][b1] * qy + y[a2][b2]
             for b1 in range(len(x)) for b2 in range(qy)]
            for a1 in range(len(x)) for a2 in range(qy)]


def is_isomorphism(x, y, img):
    return (sorted(img) == list(range(len(y)))
            and all(img[x[a][b]] == y[img[a]][img[b]]
                    for a in range(len(x)) for b in range(len(x))))


# -- the twisted complex -----------------------------------------------------

def _degenerate(key):
    return any(key[i] == key[i + 1] for i in range(len(key) - 1))


def basis(q, n, variant):
    if n == 0:
        return [] if variant == "TD" else [()]
    keys = itertools.product(range(q), repeat=n)
    if variant == "TR":
        return list(keys)
    if variant == "TD":
        return [k for k in keys if _degenerate(k)]
    return [k for k in keys if not _degenerate(k)]


def _faces(table, key):
    """Boundary of one tuple as [(tuple, power of T, sign)]."""
    n = len(key)
    if n <= 1:
        return []
    out = []
    for i in range(1, n + 1):
        sign = -1 if i % 2 else 1
        rest = key[i:]
        out.append((key[:i - 1] + rest, 1, sign))
        acted = tuple(table[key[j]][key[i - 1]] for j in range(i - 1)) + rest
        out.append((acted, 0, -sign))
    return out


def _require_prime(ring):
    if ring.modulus < 2 or any(ring.modulus % p == 0
                               for p in range(2, ring.modulus)):
        raise ValueError("rank references need a prime modulus")


def _rank_mod_p(vectors, p):
    """Rank over F_p of sparse vectors given as {coordinate: value}."""
    pivots = {}
    for vec in vectors:
        row = {k: v % p for k, v in vec.items() if v % p}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {k: (v * inv) % p for k, v in row.items()}
                break
            f = row[lead]
            for k, v in piv.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def _boundary_images(table, ring, n, variant):
    """Images under d_n of the F_p basis vectors of C_n."""
    d = ring.degree
    low = {t: i for i, t in enumerate(basis(len(table), n - 1, variant))}
    images = []
    for src in basis(len(table), n, variant):
        for e in ring.unit_vectors():
            vec = {}
            for tup, power, sign in _faces(table, src):
                if variant == "TQ" and _degenerate(tup):
                    continue
                val = ring.scale(sign, ring.times_t_power(e, power))
                for k, c in enumerate(val):
                    key = (tup, k)
                    vec[key] = ring.red(vec.get(key, 0) + c)
            vec = {key: c for key, c in vec.items() if c}
            if any(tup not in low for tup, _ in vec):
                raise ValueError("boundary leaves the %s complex" % variant)
            images.append({low[t] * d + k: c for (t, k), c in vec.items()})
    return images


def homology_dimension(table, ring, variant, n):
    """dim over F_p of H_n (and of H^n) for a prime modulus p."""
    _require_prime(ring)
    p = ring.modulus
    dim = len(basis(len(table), n, variant)) * ring.degree
    for m in (n, n + 1):
        if m >= 2:
            dim -= _rank_mod_p(_boundary_images(table, ring, m, variant), p)
    return dim


def coboundary(table, ring, variant, degree, values):
    """delta f for a cochain {tuple: ring element}; returns the nonzero
    values of the degree + 1 cochain."""
    sign = -1 if (degree + 1) % 2 else 1
    out = {}
    for key in basis(len(table), degree + 1, variant):
        acc = ring.zero()
        for tup, power, s in _faces(table, key):
            v = values.get(tup)
            if v is None:
                continue
            acc = ring.add(acc, ring.scale(s * sign,
                                           ring.times_t_power(v, power)))
        if any(acc):
            out[key] = acc
    return out


def is_coboundary_mod_p(table, ring, variant, degree, values):
    """Whether a degree-n cochain lies in the image of delta, over F_p."""
    _require_prime(ring)
    p, d = ring.modulus, ring.degree
    high = {t: i for i, t in enumerate(basis(len(table), degree, variant))}
    images = []
    for src in basis(len(table), degree - 1, variant):
        for e in ring.unit_vectors():
            image = coboundary(table, ring, variant, degree - 1, {src: e})
            images.append({high[t] * d + k: c for t, v in image.items()
                           for k, c in enumerate(v) if c})
    target = {high[t] * d + k: c for t, v in values.items()
              for k, c in enumerate(v) if c % p}
    return _rank_mod_p(images + [target], p) == _rank_mod_p(images, p)


# -- colorings of the torus links T(2, n) --------------------------------------

def torus_colorings(family, size, n):
    """Number of colorings of T(2, n) by a quandle of the given family.

    The 2-braid closure is colored by fixed points of the n-th power of
    the braid map on pairs.  For R(m) (and the Alexander quandle of
    Z_m[T]/(T+1), which is R(m)) this gives m * gcd(n, m); for the trivial
    quandle T(q), q per component; for the Alexander quandle of
    F_4 = Z_2[T]/(T^2+T+1), 4 * |ker(T^n - 1)|, which is 16 when 3 | n.
    """
    if family == "dihedral":
        return size * gcd(n, size)
    if family == "trivial":
        return size ** gcd(n, 2)
    if family == "f4":
        return 4 * (4 if n % 3 == 0 else 1)
    raise ValueError("no closed form for %r" % family)
