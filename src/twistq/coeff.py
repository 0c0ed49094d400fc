"""Exact arithmetic in quotients of the Laurent polynomial ring Z_n[T, T^-1].

A coefficient ring is determined by a modulus n, 0 for the integers or
at least 2 (Z_1 is the zero ring), and a polynomial h(T) with invertible
leading and constant coefficients mod n.  Invertibility of the constant
coefficient makes T a unit in Z_n[T]/(h), so the quotient already
contains T^-1 and no separate localization is needed.

Elements are represented as tuples of d = deg(h) canonical residues
(c_0, ..., c_{d-1}) encoding c_0 + c_1*T + ... + c_{d-1}*T^{d-1}.  The
defining polynomial is normalized to be monic (scaling h by a unit does
not change the ideal), which makes reduction a plain division step.
"""

import math
import re

from .limits import LONG_DIGITS, check_limit, integer, show

__all__ = [
    "RingError",
    "AlexanderRing",
    "GroupRingElem",
    "parse_ring",
    "parse_terms",
    "parse_poly",
    "render_poly",
]


class RingError(ValueError):
    pass


def _inverse_mod(a, n):
    """Inverse of a modulo n; for n = 0 only +-1 are units."""
    if n == 0:
        if a in (1, -1):
            return a
        raise RingError("%s is not a unit in Z" % show(a))
    a %= n
    if math.gcd(a, n) != 1:
        raise RingError("%s is not a unit mod %s" % (show(a), show(n)))
    return pow(a, -1, n)


def _red(c, n):
    return c % n if n else c


class AlexanderRing:
    """The ring Z_n[T, T^-1] / (h(T)) with exact element arithmetic."""

    def __init__(self, modulus, h_coeffs):
        if modulus < 0:
            raise RingError("modulus must be >= 0")
        if modulus == 1:
            raise RingError("modulus 1 gives the zero ring Z1; use 0 (the "
                            "integers) or a modulus >= 2")
        coeffs = [_red(int(c), modulus) for c in h_coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise RingError("defining polynomial must have degree >= 1")
        lead_inv = _inverse_mod(coeffs[-1], modulus)  # also checks unit
        _inverse_mod(coeffs[0], modulus)  # constant must be a unit too
        self.modulus = modulus
        # store the monic normalization, ascending powers, length d + 1
        self.h = tuple(_red(c * lead_inv, modulus) for c in coeffs)
        self.degree = len(self.h) - 1
        # T^-1 = -c_0^{-1} * (c_1 + c_2 T + ... + T^{d-1}) for monic h
        c0_inv = _inverse_mod(self.h[0], modulus)
        self._t_inv = self.reduce(
            [_red(-c0_inv * c, modulus) for c in self.h[1:]])
        self._t = self.reduce([0, 1])

    # -- element plumbing ------------------------------------------------

    def reduce(self, coeffs):
        """Canonical representative of a polynomial given by any coeff list."""
        n, d = self.modulus, self.degree
        cs = [int(c) for c in coeffs]
        for i in range(len(cs) - 1, d - 1, -1):
            q = cs[i]
            if q:
                for j in range(d + 1):
                    cs[i - d + j] -= q * self.h[j]
        cs = cs[:d] + [0] * (d - len(cs))
        return tuple(_red(c, n) for c in cs)

    def zero(self):
        return (0,) * self.degree

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        return self.reduce([k])

    def is_zero(self, a):
        return all(c == 0 for c in a)

    def add(self, a, b):
        return tuple(_red(x + y, self.modulus)
                     for x, y in zip(a, b, strict=True))

    def sub(self, a, b):
        return tuple(_red(x - y, self.modulus)
                     for x, y in zip(a, b, strict=True))

    def mul(self, a, b):
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.reduce(prod)

    def t_act(self, a):
        """Multiply by T."""
        return self.reduce((0,) + tuple(a))

    def t_pow(self, a, k):
        """Multiply by T^k, k any integer, in O(log |k|) products.  Over
        Z, where the coefficients of T^k can grow with |k|, a product
        with a coefficient of more than TWISTQ_MAX_DIGITS digits is
        refused as soon as it is made."""
        power = self._t if k >= 0 else self._t_inv
        rest = abs(int(k))
        while rest:
            if rest & 1:
                a = self.mul(power, a)
            rest >>= 1
            if rest:
                power = self.mul(power, power)
            if not self.modulus:
                bits = max(abs(c) for c in a + power).bit_length()
                digits = int(bits * math.log10(2)) + 1  # >= the true count
                check_limit(digits, "T^k digits", RingError, "computing T^%s "
                            "makes coefficients of about %s digits", k, digits)
        return a

    def quandle_op(self, a, b):
        """a * b = T a + (1 - T) b, the Alexander quandle operation."""
        return self.add(self.t_act(self.sub(a, b)), b)

    def quandle_halves(self, elems):
        """T a and a - T a for each a: a table's cell a * b is one add."""
        ta = [self.t_act(a) for a in elems]
        return ta, [self.sub(a, t) for a, t in zip(elems, ta)]

    # -- enumeration -----------------------------------------------------

    def size(self):
        return self.modulus ** self.degree if self.modulus else None

    def elements(self):
        """All elements in lexicographic coefficient order (finite rings)."""
        if self.modulus == 0:
            raise RingError("cannot enumerate an infinite ring")
        out = [()]
        for _ in range(self.degree):
            out = [e + (c,) for e in out for c in range(self.modulus)]
        return out

    # -- text ------------------------------------------------------------

    def descriptor(self):
        return "Z%d[T]/(%s)" % (self.modulus, render_poly(self.h))

    def render_elem(self, a):
        return render_poly(a)

    def __eq__(self, other):
        return (isinstance(other, AlexanderRing)
                and self.modulus == other.modulus and self.h == other.h)

    def __hash__(self):
        return hash((self.modulus, self.h))

    def __repr__(self):
        return "AlexanderRing(%r)" % self.descriptor()


# -- polynomial text -----------------------------------------------------

_TERM_RE = re.compile(
    r"([+-]?)\s*(?:(\d+)\s*\*?\s*)?(?:T(?:\^(-?\d+))?)?", re.IGNORECASE)


def parse_terms(text):
    """Parse '2T^2 - T + 1' into {exponent: coefficient}, the terms of
    one exponent summed; every term after the first starts with its
    sign.  The degree is guarded before any coefficient is listed."""
    s = text.strip()
    if not s:
        raise RingError("empty polynomial")
    coeffs = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)  # every part is optional: never None
        sign, num, exp = m.groups()
        has_t = "t" in s[pos:m.end()].lower()
        if not num and not has_t or pos and not sign:
            raise RingError("cannot parse polynomial %s near %s"
                            % (show(text), show(s[pos:])))
        c = integer(num, RingError, "a polynomial") if num else 1
        e = integer(exp, RingError, "a polynomial") if exp else int(has_t)
        if e < 0:
            raise RingError("negative powers of T not allowed in polynomial text")
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
    deg = max(coeffs)
    check_limit(deg, "polynomial degree", RingError,
                "polynomial %s has degree %s", text, deg)
    return coeffs


def parse_poly(text):
    """Parse '2T^2 - T + 1' into an ascending coefficient list."""
    terms = parse_terms(text)
    return [terms.get(i, 0) for i in range(max(terms) + 1)]


# the refusal of a result integer that str() will not print
_TOO_LONG = ("a result has an integer of more than %d digits, too long to "
             "print" % LONG_DIGITS)


def _signed_sum(terms, word):
    """'c_1 w_1 + c_2 w_2 - ...', or '0', for a list of (c, m): c a
    nonzero integer, w = word(m) the text of the monomial m ('' for 1).
    An integer that str() refuses, in c or in w, is refused as _TOO_LONG."""
    parts = []
    try:
        for c, m in terms:
            w = word(m)
            body = w if w and (c == 1 or c == -1) else str(abs(c)) + w
            if parts:
                parts.append(("- " if c < 0 else "+ ") + body)
            else:
                parts.append("-" + body if c < 0 else body)
    except RingError:  # word's own refusal, a ValueError kept as it is
        raise
    except ValueError:
        raise RingError(_TOO_LONG) from None
    return " ".join(parts) if parts else "0"


def render_poly(coeffs):
    """Render an ascending coefficient sequence as 'c_d T^d + ... + c_0'."""
    return _signed_sum([(c, e) for e, c in enumerate(coeffs) if c][::-1],
                       lambda e: "T^%d" % e if e > 1 else "T" * e)


_RING_RE = re.compile(
    r"^\s*Z\s*(\d*)\s*\[\s*T\s*\]\s*/\s*\(\s*(.+?)\s*\)\s*$", re.IGNORECASE)


def parse_ring(text):
    """Parse a ring descriptor such as 'Z3[T]/(T+1)' or 'Z[T]/(T^2-1)'."""
    m = _RING_RE.match(text)
    if not m:
        raise RingError("cannot parse ring descriptor %s" % show(text))
    n = integer(m.group(1) or "0", RingError, "a ring descriptor")
    return AlexanderRing(n, parse_poly(m.group(2)))


# -- group ring of the additive group of A --------------------------------

_LETTERS = "stuvwxyz"
# steps after which canonical_under_T gives up on a T-orbit closing
_MAX_ORBIT = 4096


class GroupRingElem:
    """Element of Z[A] for the additive group A of a coefficient ring.

    Keys are ring elements (coefficient tuples), values are integer
    multiplicities.  Written multiplicatively: the basis vector T^i of A
    is rendered as the i-th letter of s, t, u, ..., with additive A-values
    becoming exponents.
    """

    def __init__(self, ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            for key, mult in dict(terms).items():
                self.add_term(key, mult)

    def add_term(self, key, mult):
        key = tuple(key)
        if len(key) != self.ring.degree:
            raise RingError("group ring key has wrong length")
        m = self.terms.get(key, 0) + mult
        if m:
            self.terms[key] = m
        else:
            self.terms.pop(key, None)

    def t_act(self):
        """Apply the T-action of A to every group element key."""
        out = GroupRingElem(self.ring)
        for key, mult in self.terms.items():
            out.add_term(self.ring.t_act(key), mult)
        return out

    def total(self):
        """Sum of multiplicities (image under A -> 0)."""
        return sum(self.terms.values())

    def is_integer(self):
        """True when the element is an integer multiple of the identity."""
        return all(self.ring.is_zero(k) for k in self.terms)

    # rendering ----------------------------------------------------------

    @staticmethod
    def _word(key):
        nonzero = [(i, e) for i, e in enumerate(key) if e != 0]
        if not nonzero:
            return ""
        if nonzero[-1][0] >= len(_LETTERS):
            raise RingError("no letters left to render rank-%d keys" % len(key))
        exps = {e for _, e in nonzero}
        if len(nonzero) > 1 and len(exps) == 1 and nonzero[0][1] != 1:
            word = "".join(_LETTERS[i] for i, _ in nonzero)
            return "(%s)^%d" % (word, nonzero[0][1])
        return "".join(_LETTERS[i] if e == 1 else "%s^%d" % (_LETTERS[i], e)
                       for i, e in nonzero)

    @staticmethod
    def _term_order(key):
        return (sum(1 for e in key if e < 0), key)

    def render(self):
        return _signed_sum([(self.terms[key], key) for key in
                            sorted(self.terms, key=self._term_order)],
                           self._word)

    def canonical_under_T(self):
        """Representative of the T-orbit with lexicographically least text."""
        best, cur = self, self
        best_text = best.render()
        for _ in range(_MAX_ORBIT):
            cur = cur.t_act()
            if cur == self:
                return best
            text = cur.render()
            if text < best_text:
                best, best_text = cur, text
        raise RingError("T-orbit did not close after %d steps" % _MAX_ORBIT)

    def __eq__(self, other):
        return (isinstance(other, GroupRingElem)
                and self.ring == other.ring and self.terms == other.terms)

    def __repr__(self):
        return "GroupRingElem(%r)" % self.render()
