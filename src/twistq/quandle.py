"""Finite quandles: validation, standard families, extensions, products,
and isomorphism search.

A quandle is a set with a binary operation a * b that is idempotent
(a * a == a), right-invertible (b fixed, a -> a * b bijective) and
self-distributive ((a * b) * c == (a * c) * (b * c)).  Elements are the
integers 0 .. q-1; an optional label list carries human-readable names.
"""

import re
from operator import itemgetter

from . import coeff
from .limits import check_limit, integer, lines, power, show

__all__ = [
    "QuandleError",
    "FiniteQuandle",
    "QuandleMap",
    "trivial_quandle",
    "dihedral_quandle",
    "alexander_quandle",
    "quandle_standard",
    "quandle_product",
    "quandle_extension",
    "is_homomorphism",
    "find_isomorphism",
    "parse_quandle",
    "parse_quandle_table",
    "render_quandle_table",
]


class QuandleError(ValueError):
    pass


def _check_order(q, exp=1):
    """Refuse a quandle of order q^exp before its table is built; both
    sizes come from limits.power, so a vast one is never computed."""
    check_limit(power(q, 2 * exp), "table", QuandleError,
                "a quandle of order %s has a %s-cell table",
                power(q, exp), power(q, 2 * exp))


class FiniteQuandle:
    def __init__(self, table, labels=None, name=None):
        self.table = tuple(tuple(row) for row in table)
        self.size = len(self.table)
        self.labels = list(labels) if labels else [str(i) for i in range(self.size)]
        self.name = name
        self._validate()
        # inverse operation: inv[b][c] = a with a * b == c
        self.inv = []
        for b in range(self.size):
            col = [None] * self.size
            for a in range(self.size):
                col[self.table[a][b]] = a
            self.inv.append(col)

    def op(self, a, b):
        return self.table[a][b]

    def _validate(self):
        q = self.size
        if any(len(row) != q for row in self.table):
            raise QuandleError("operation table is not square")
        for row in self.table:
            for v in row:
                if not (0 <= v < q):
                    raise QuandleError("table entry %s out of range" % show(v))
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
                raise QuandleError("map value %s out of range" % show(v))

    def __call__(self, a):
        return self.values[a]

    def __repr__(self):
        return "QuandleMap(%r)" % (self.values,)


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
    table = [[index[p] for p in row] for row in ring.quandle_rows(elems)]
    return FiniteQuandle(table, labels=[ring.render_elem(e) for e in elems],
                         name=name or "A(%s)" % ring.descriptor())


def quandle_standard(name):
    """Build T(n), R(n) or A(n;h) from its textual name."""
    s = name.strip()

    def number(text):
        return integer(text, QuandleError, "a quandle name",
                       "bad integer %s in quandle name %s", text, name)

    if len(s) > 2 and s[1] == "(" and s.endswith(")"):
        kind, body = s[0].upper(), s[2:-1]
        if kind == "T":
            return trivial_quandle(number(body))
        if kind == "R":
            return dihedral_quandle(number(body))
        if kind == "A":
            mod_text, _, h_text = body.partition(";")
            if not h_text:
                raise QuandleError("A(n;h) needs a polynomial: %s" % show(name))
            n, h = number(mod_text), coeff.parse_terms(h_text)
            if n >= 2:  # the order n^deg h, before h's terms are listed
                _check_order(n, max((d for d, c in h.items() if c % n),
                                    default=0))
            ring = coeff.AlexanderRing(n, [h.get(d, 0)
                                           for d in range(max(h) + 1)])
            return alexander_quandle(ring, name="A(%s;%s)" % (mod_text, h_text.strip()))
    raise QuandleError("unknown quandle name %s" % show(name))


def quandle_product(x, y):
    """Direct product, (a1, a2) * (b1, b2) componentwise.
    Element (a, b) is encoded as a * y.size + b."""
    _check_order(x.size * y.size)
    pairs = [(a, b) for a in range(x.size) for b in range(y.size)]
    return FiniteQuandle(
        [[x.op(a1, b1) * y.size + y.op(a2, b2) for b1, b2 in pairs]
         for a1, a2 in pairs],
        labels=["(%s,%s)" % (x.labels[a], y.labels[b]) for a, b in pairs])


def quandle_extension(x, ring, phi):
    """Abelian extension of the quandle `x` by the finite ring A:

        (a1, x1) * (a2, x2) = (a1 * a2 + phi(x1, x2), x1 * x2)

    where a1 * a2 is the Alexander operation in A.  `phi` is a 2-cochain
    on `x` with values in A; element (a, x1) is encoded as i_a * x.size + x1
    with i_a the index of a in the ring's enumeration order.
    """
    if ring.modulus == 0:
        raise QuandleError("extension needs a finite coefficient ring")
    _check_order(ring.modulus, ring.degree)  # before size() computes n^d
    _check_order(ring.size() * x.size)
    from . import chain
    chain.require_cocycle(chain.ComplexSpec(x, ring, "TQ", 2), phi,
                          QuandleError, "phi")
    elems = ring.elements()
    index = {e: i for i, e in enumerate(elems)}
    q = x.size
    table = []
    labels = []
    for a1, products in zip(elems, ring.quandle_rows(elems)):  # a1 * a2
        for x1 in range(q):
            labels.append("(%s,%s)" % (ring.render_elem(a1), x.labels[x1]))
            row = []
            for prod in products:
                for x2 in range(q):
                    a = ring.add(prod, phi((x1, x2)))
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
            s = x.inv[b][a]  # s * b == a
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

def parse_quandle(text):
    """A quandle from its name (T(n), R(n), A(n;h)) or its table text,
    whose first line, the size, starts with a digit or a sign and a digit."""
    first = next(lines(text, QuandleError, "a quandle table"), None)
    return (parse_quandle_table if first and re.match(r"[+-]?\d", first[1])
            else quandle_standard)(text)


def parse_quandle_table(text):
    """Parse 'q' on the first line followed by q whitespace-separated rows."""
    rows = [line for _, line, _ in lines(text, QuandleError,
                                         "a quandle table")]
    if not rows:
        raise QuandleError("empty quandle table")
    q = integer(rows[0], QuandleError, "a quandle table",
                "first line must be the size, got %s", rows[0])
    if q < 1:
        raise QuandleError("quandle table size must be >= 1, got %s"
                           % show(q))
    _check_order(q)
    if len(rows) != q + 1:
        raise QuandleError("expected %d rows, got %d" % (q, len(rows) - 1))
    return FiniteQuandle(
        [[integer(v, QuandleError, "a quandle table", "bad table row %s", row)
          for v in row.split()] for row in rows[1:]])


def render_quandle_table(table):
    """The text parse_quandle_table reads: the size of the operation
    table (a list of rows), then its rows."""
    return "".join(" ".join(map(str, row)) + "\n"
                   for row in [[len(table)], *table])
