"""Resource guards: refuse a computation above a size limit before it starts.

GUARDS holds every resource guard: its stage, the environment variable
TWISTQ_MAX_* that overrides its limit, and its default.  check_limit
looks both up by stage on every call, so a shell or a test can change a
limit without a reload.

Every line format of outside text (quandle tables, cochains, diagrams,
surfaces) is read by `lines`, which drops blank lines and everything
from '#' to the end of a line, and whatever a format allows at most
once (a directive, a name, a field, a cochain key) is kept by `once`,
which refuses it the second time.  Every integer of outside text is read
by `integer`, which refuses a token of more than LONG_DIGITS characters
before int() sees it, in one line that names the kind of input and the
length but echoes no text.
A refusal shows each value it echoes through `show`, one rule for every
type, so no message grows with its input.  `power` sizes what a guard
compares and keeps a size past LONG_DIGITS digits as its decade,
floor(log10), which `show` shows as the integer's own: exact up to
2 * LONG_DIGITS digits, by `show`'s rule, and estimated beyond.
"""

import math
import os

LONG_DIGITS = 4300  # str() refuses longer integers unless told otherwise
SHORT_DIGITS = 20   # longer integers show as ~10^k in a refusal
QUOTE_CHARS = 80    # longer texts show as a prefix and a length
_PAST_LONG = 10 ** LONG_DIGITS  # the least of more than LONG_DIGITS digits

GUARDS = {  # stage: (variable, default limit), and what the limit counts
    "basis": ("TWISTQ_MAX_BASIS", 20000),  # tuples, listed or walked
    "oracle": ("TWISTQ_MAX_BRUTE", 729),  # chains, each accounted for
    "correction search": ("TWISTQ_MAX_BRUTE", 6561),  # lifts, |N|^|X|
    "table": ("TWISTQ_MAX_TABLE", 65536),  # cells, order 256: order^3 to check
    "polynomial degree": ("TWISTQ_MAX_DEGREE", 1024),  # checked before listing
    "T^k digits": ("TWISTQ_MAX_DIGITS", LONG_DIGITS),  # str()'s longest
}


def show(value):
    """value as a refusal shows it, by its type: an int in decimal up to
    SHORT_DIGITS digits and beyond as ~10^<digits - 1>, its sign kept,
    and a size from `power` as ~10^<decade>; a text, or anything else by
    its repr, whole up to QUOTE_CHARS characters and beyond as its first
    QUOTE_CHARS and '... (<length> characters)'; a tuple (a key) by the
    repr of its first QUOTE_CHARS entries, cut the same way but with
    '... (length <entries>)'."""
    if isinstance(value, _Vast):
        return "~10^" + show(value.decade)
    if isinstance(value, int) and abs(value) >= 10 ** SHORT_DIGITS:
        return "-" * (value < 0) + "~10^%d" % _decade(abs(value))
    if isinstance(value, tuple):
        text = repr(value[:QUOTE_CHARS])
        if len(value) <= QUOTE_CHARS and len(text) <= QUOTE_CHARS:
            return text
        return "%s... (length %d)" % (text[:QUOTE_CHARS], len(value))
    if isinstance(value, str):
        text, head = value, repr(value[:QUOTE_CHARS])
    else:
        text = repr(value)
        head = text[:QUOTE_CHARS]
    if len(text) <= QUOTE_CHARS:
        return repr(value)
    return "%s... (%d characters)" % (head, len(text))


def integer(token, error, what, message=None, *args):
    """int(token), a token of the input `what`, or error(message % args)
    (default "bad integer <token> in <what>") when int() rejects it;
    the token and each of args show through `show`."""
    if len(token) > LONG_DIGITS:
        raise error("token of %d characters in %s (limit %d)"
                    % (len(token), what, LONG_DIGITS))
    try:
        return int(token)
    except ValueError:
        raise error(message % tuple(map(show, args)) if message else
                    "bad integer %s in %s" % (show(token), what)) from None


def lines(text, error, what):
    """(raw, content, number) for each line of text that keeps content
    once its '#' comment and outer blanks are cut; number(token) reads an
    integer of that line, `what` naming the input in a refusal."""
    for raw in text.splitlines():
        content = raw.split("#", 1)[0].strip()
        if content:
            yield raw, content, lambda token, raw=raw: integer(
                token, error, what, "bad integer %s in line %s", token, raw)


def once(table, key, value, error, what, *args):
    """table[key] = value, or error("<what % args> is declared twice")
    when table already holds key: the one at-most-once rule of every
    line format.  what takes each of args with %s, shown through `show`."""
    if key in table:
        raise error("%s is declared twice" % (what % tuple(map(show, args))))
    table[key] = value


def check_limit(size, stage, error, what, *args):
    """Raise error("<what % args> (limit L; set <var>)") when size
    exceeds L, the integer in the stage's environment variable var (its
    default in GUARDS when var is unset).  what takes each of args with
    %s, shown through `show`."""
    var, default = GUARDS[stage]
    limit = integer(os.environ.get(var, str(default)), error, var)
    if size > limit:
        raise error("%s (limit %s; set %s)"
                    % (what % tuple(map(show, args)), show(limit), var))


def _decade(n):
    """floor(log10(n)) of an integer n >= 1, exactly."""
    k = int(math.log10(n))  # the float may be one off
    return k + (10 ** (k + 1) <= n) - (10 ** k > n)


def power(base, exp):
    """base ** exp, or past LONG_DIGITS digits a _Vast of its decade: exact
    up to 2 * LONG_DIGITS digits, beyond that floor(exp * log10(base))
    found in integers, so an exp too large for a float is sized too."""
    num, den = math.log10(max(base, 1)).as_integer_ratio()
    decade = exp * num // den
    if decade > 2 * LONG_DIGITS:
        return _Vast(decade)
    value = base ** exp
    return value if value < _PAST_LONG else _Vast(_decade(value))


class _Vast:
    """A size of more than LONG_DIGITS digits, so above every limit
    (which has at most LONG_DIGITS), kept as its decade."""

    __slots__ = ("decade",)

    def __init__(self, decade):
        self.decade = decade

    def __gt__(self, limit):
        return True
