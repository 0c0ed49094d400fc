"""Finite quandles: validation, standard families, extensions, products,
and isomorphism search.

A quandle is a set with a binary operation a * b that is idempotent
(a * a == a), right-invertible (b fixed, a -> a * b bijective) and
self-distributive ((a * b) * c == (a * c) * (b * c)).  Elements are the
integers 0 .. q-1; an optional label list carries human-readable names.
"""

import math
from operator import itemgetter

from . import coeff
from .limits import LONG_DIGITS, check_limit

__all__ = [
    "QuandleError",
    "FiniteQuandle",
    "QuandleMap",
    "quandle_from_table",
    "trivial_quandle",
    "dihedral_quandle",
    "alexander_quandle",
    "quandle_standard",
    "quandle_product",
    "quandle_extension",
    "is_homomorphism",
    "find_isomorphism",
    "parse_quandle_table",
    "render_quandle_table",
]


class QuandleError(ValueError):
    pass


# default of the table guard, order 256 (validation takes order^3
# steps); TWISTQ_MAX_TABLE overrides it and is read on every call
_MAX_TABLE = 65536


def _check_order(q, power=1):
    """Refuse a quandle of order q^power before its table is built.  An
    order too long to print is bounded by logarithms, not computed (which
    can take seconds), and shows as ~10^k, as check_limit shows it."""
    digits = power * math.log10(max(q, 1))
    if digits > LONG_DIGITS:
        size = 1 << int(2 * power * math.log2(q))
        args = "~10^%d" % digits, "~10^%d" % (2 * digits)
    else:
        q **= power
        size, args = q * q, (q, q * q)
    check_limit(size, "TWISTQ_MAX_TABLE", _MAX_TABLE, QuandleError,
                "a quandle of order %s has a %s-cell table", *args)


class FiniteQuandle:
    def __init__(self, table, labels=None, name=None):
        self.table = tuple(tuple(row) for row in table)
        self.size = len(self.table)
        self.labels = list(labels) if labels else [str(i) for i in range(self.size)]
        self.name = name
        self._validate()
        # inverse operation: inv[b][c] = a with a * b == c
        self._inv = []
        for b in range(self.size):
            col = [None] * self.size
            for a in range(self.size):
                col[self.table[a][b]] = a
            self._inv.append(col)

    def op(self, a, b):
        return self.table[a][b]

    def op_inv(self, c, b):
        """The unique a with a * b == c."""
        return self._inv[b][c]

    def elements(self):
        return range(self.size)

    def _validate(self):
        q = self.size
        if any(len(row) != q for row in self.table):
            raise QuandleError("operation table is not square")
        for row in self.table:
            for v in row:
                if not (0 <= v < q):
                    raise QuandleError("table entry %r out of range" % (v,))
        for a in range(q):
            if self.table[a][a] != a:
                raise QuandleError(
                    "idempotency fails: %d * %d == %d"
                    % (a, a, self.table[a][a]))
        # right[b] is the right translation a -> a * b as a tuple
        right = list(zip(*self.table))
        for b in range(q):
            if len(set(right[b])) != q:
                raise QuandleError(
                    "right translation by %d is not a bijection" % b)
        # (a*b)*c == (a*c)*(b*c) for every a says R_c R_b == R_{b*c} R_c;
        # after[b](g) is the tuple of g[a * b] over a (a scalar if q == 1)
        after = [itemgetter(*r) for r in right]
        t = self.table
        if any(after[b](right[c]) != after[c](right[t[b][c]])
               for b in range(q) for c in range(q)):
            a, b, c = next((a, b, c) for a in range(q) for b in range(q)
                           for c in range(q)
                           if t[t[a][b]][c] != t[t[a][c]][t[b][c]])
            raise QuandleError(
                "self-distributivity fails at (a, b, c) = "
                "(%d, %d, %d): (a*b)*c == %d but (a*c)*(b*c) == %d"
                % (a, b, c, t[t[a][b]][c], t[t[a][c]][t[b][c]]))

    def __eq__(self, other):
        return isinstance(other, FiniteQuandle) and self.table == other.table

    def __repr__(self):
        return "FiniteQuandle(size=%d%s)" % (
            self.size, ", name=%r" % self.name if self.name else "")


class QuandleMap:
    """A function between quandles, given by the image of each element."""

    def __init__(self, domain, codomain, values):
        self.domain = domain
        self.codomain = codomain
        self.values = tuple(values)
        if len(self.values) != domain.size:
            raise QuandleError("map must assign every element")
        for v in self.values:
            if not (0 <= v < codomain.size):
                raise QuandleError("map value %r out of range" % (v,))

    def __call__(self, a):
        return self.values[a]

    def __repr__(self):
        return "QuandleMap(%r)" % (self.values,)


def quandle_from_table(table, labels=None, name=None):
    return FiniteQuandle(table, labels=labels, name=name)


def trivial_quandle(n):
    if n < 1:
        raise QuandleError("trivial quandle needs n >= 1")
    _check_order(n)
    return FiniteQuandle([[a] * n for a in range(n)], name="T(%d)" % n)


def dihedral_quandle(n):
    if n < 1:
        raise QuandleError("dihedral quandle needs n >= 1")
    _check_order(n)
    return FiniteQuandle([[(2 * b - a) % n for b in range(n)] for a in range(n)],
                         name="R(%d)" % n)


def alexander_quandle(ring, name=None):
    """Quandle on the elements of a finite coefficient ring,
    a * b = T a + (1 - T) b.  Elements are indexed in the ring's
    enumeration order; labels are the rendered polynomials."""
    if ring.modulus:
        _check_order(ring.modulus, ring.degree)
    elems = ring.elements()
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[ring.quandle_op(a, b)] for b in elems] for a in elems]
    return FiniteQuandle(table, labels=[ring.render_elem(e) for e in elems],
                         name=name or "A(%s)" % ring.descriptor())


def quandle_standard(name):
    """Build T(n), R(n) or A(n;h) from its textual name."""
    s = name.strip()

    def integer(text):
        try:
            return int(text)
        except ValueError:
            raise QuandleError("bad integer %r in quandle name %r"
                               % (text, name)) from None

    if len(s) > 2 and s[1] == "(" and s.endswith(")"):
        kind, body = s[0].upper(), s[2:-1]
        if kind == "T":
            return trivial_quandle(integer(body))
        if kind == "R":
            return dihedral_quandle(integer(body))
        if kind == "A":
            mod_text, _, h_text = body.partition(";")
            if not h_text:
                raise QuandleError("A(n;h) needs a polynomial: %r" % name)
            ring = coeff.AlexanderRing(integer(mod_text),
                                       coeff.parse_poly(h_text))
            return alexander_quandle(ring, name="A(%s;%s)" % (mod_text, h_text.strip()))
    raise QuandleError("unknown quandle name %r" % name)


def quandle_product(x, y):
    """Direct product, (a1, a2) * (b1, b2) componentwise.
    Element (a, b) is encoded as a * y.size + b."""
    _check_order(x.size * y.size)
    table = []
    labels = []
    for a1 in range(x.size):
        for a2 in range(y.size):
            labels.append("(%s,%s)" % (x.labels[a1], y.labels[a2]))
            row = []
            for b1 in range(x.size):
                for b2 in range(y.size):
                    row.append(x.op(a1, b1) * y.size + y.op(a2, b2))
            table.append(row)
    return FiniteQuandle(table, labels=labels)


def quandle_extension(x, ring, phi):
    """Abelian extension of the quandle `x` by the finite ring A:

        (a1, x1) * (a2, x2) = (a1 * a2 + phi(x1, x2), x1 * x2)

    where a1 * a2 is the Alexander operation in A.  `phi` is a 2-cochain
    on `x` with values in A; element (a, x1) is encoded as i_a * x.size + x1
    with i_a the index of a in the ring's enumeration order.
    """
    if ring.modulus == 0:
        raise QuandleError("extension needs a finite coefficient ring")
    _check_order(ring.size() * x.size)
    from . import chain
    spec = chain.ComplexSpec(x, ring, "TQ", 2)
    ok, witness = chain.is_cocycle(spec, phi)
    if not ok:
        raise QuandleError("phi is not a 2-cocycle (fails at %r)" % (witness,))
    elems = ring.elements()
    index = {e: i for i, e in enumerate(elems)}
    q = x.size
    table = []
    labels = []
    for a1 in elems:
        for x1 in range(q):
            labels.append("(%s,%s)" % (ring.render_elem(a1), x.labels[x1]))
            row = []
            for a2 in elems:
                for x2 in range(q):
                    a = ring.add(ring.quandle_op(a1, a2), phi((x1, x2)))
                    row.append(index[a] * q + x.op(x1, x2))
            table.append(row)
    return FiniteQuandle(table, labels=labels)


def is_homomorphism(f):
    """Check f(a * b) == f(a) * f(b); returns (ok, witness)."""
    x, y = f.domain, f.codomain
    for a in range(x.size):
        for b in range(x.size):
            if f(x.op(a, b)) != y.op(f(a), f(b)):
                return False, (a, b)
    return True, None


def find_isomorphism(x, y):
    """The least isomorphism x -> y (by its tuple of images), or None.

    Iterative backtracking assigns images to 0, 1, ... in order, trying
    candidates from smallest to largest.  v is kept as the image of a
    only if it is unused and every product among 0..a that involves a
    maps correctly, with a as a factor or as the product.
    """
    if x.size != y.size:
        return None
    q = x.size
    img, used = [0] * q, [False] * q

    def fits(a, v):
        img[a] = v
        for b in range(a + 1):
            for s, t in ((a, b), (b, a)):
                c = x.table[s][t]
                if c <= a and y.table[img[s]][img[t]] != img[c]:
                    return False
            s = x.op_inv(a, b)  # s * b == a
            if s < a and y.table[img[s]][img[b]] != v:
                return False
        return True

    a = v = 0
    while 0 <= a < q:
        while v < q and (used[v] or not fits(a, v)):
            v += 1
        if v < q:
            used[v] = True
            a, v = a + 1, 0
        else:
            a -= 1
            if a >= 0:
                used[img[a]] = False
                v = img[a] + 1
    return QuandleMap(x, y, img) if a == q else None


# -- text format -----------------------------------------------------------

def parse_quandle_table(text):
    """Parse 'q' on the first line followed by q whitespace-separated rows."""
    lines = [ln for ln in (l.strip() for l in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise QuandleError("empty quandle table")
    try:
        q = int(lines[0])
    except ValueError:
        raise QuandleError("first line must be the size, got %r" % lines[0])
    if q < 1:
        raise QuandleError("quandle table size must be >= 1, got %d" % q)
    _check_order(q)
    if len(lines) != q + 1:
        raise QuandleError("expected %d rows, got %d" % (q, len(lines) - 1))
    table = []
    for ln in lines[1:]:
        try:
            table.append([int(v) for v in ln.split()])
        except ValueError:
            raise QuandleError("bad table row %r" % ln) from None
    return quandle_from_table(table)


def render_quandle_table(x):
    lines = [str(x.size)]
    for row in x.table:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
