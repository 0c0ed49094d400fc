"""Resource guards: refuse a computation above a size limit before it starts.

GUARDS holds every resource guard: its stage, the environment variable
TWISTQ_MAX_* that overrides its limit, and its default.  check_limit
looks both up by stage on every call, so a shell or a test can change a
limit without a reload.

Every integer of outside text is read by `integer`, which refuses a
token of more than LONG_DIGITS characters before int() sees it, in one
line that names the kind of input and the length but echoes no text.
A refusal shows outside text through `quote`, which cuts a long text to
a prefix and its length, a key of integers read from it (a cochain's
tuple) through `quote_key`, which does the same to the key's repr, and
an integer of more than SHORT_DIGITS digits as ~10^k, so no message
grows with its input.  `power` sizes what a guard compares and builds
none past LONG_DIGITS digits: it keeps the decade, floor(log10), which
prints as ~10^<decade>, the decade the integer itself would print.
"""

import math
import os

LONG_DIGITS = 4300  # str() refuses longer integers unless told otherwise
SHORT_DIGITS = 20   # longer integers show as ~10^k in a refusal
QUOTE_CHARS = 80    # longer texts show as a prefix and a length

GUARDS = {  # stage: (variable, default limit), and what the limit counts
    "basis": ("TWISTQ_MAX_BASIS", 20000),  # tuples, listed or walked
    "oracle": ("TWISTQ_MAX_BRUTE", 729),  # chains, each accounted for
    "correction search": ("TWISTQ_MAX_BRUTE", 6561),  # lifts, |N|^|X|
    "table": ("TWISTQ_MAX_TABLE", 65536),  # cells, order 256: order^3 to check
    "polynomial degree": ("TWISTQ_MAX_DEGREE", 1024),  # checked before listing
    "T^k digits": ("TWISTQ_MAX_DIGITS", LONG_DIGITS),  # str()'s longest
}


def quote(text):
    """repr(text), or for a text of more than QUOTE_CHARS characters the
    repr of its first QUOTE_CHARS and '... (<length> characters)'."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return "%r... (%d characters)" % (text[:QUOTE_CHARS], len(text))


def quote_key(key):
    """repr(key), or for a key whose repr is longer than QUOTE_CHARS
    characters the first QUOTE_CHARS of it and '... (length <len(key)>)'.
    Only the first QUOTE_CHARS entries are rendered: each takes at least
    one character."""
    text = repr(key[:QUOTE_CHARS])
    if len(key) <= QUOTE_CHARS and len(text) <= QUOTE_CHARS:
        return text
    return "%s... (length %d)" % (text[:QUOTE_CHARS], len(key))


def integer(token, error, what, message=None, *args):
    """int(token), a token of the input `what`, or error(message % args)
    (default "bad integer <token> in <what>") when int() rejects it;
    the token and each str among args show through quote."""
    if len(token) > LONG_DIGITS:
        raise error("integer of %d characters in %s (limit %d)"
                    % (len(token), what, LONG_DIGITS))
    try:
        return int(token)
    except ValueError:
        raise error(message % tuple(quote(a) if isinstance(a, str) else a
                                    for a in args) if message else
                    "bad integer %s in %s" % (quote(token), what)) from None


def check_limit(size, stage, error, what, *args):
    """Raise error("<what % args> (limit L; set <var>)") when size
    exceeds L, the integer in the stage's environment variable var (its
    default in GUARDS when var is unset).  what takes integers with %s:
    one of more than SHORT_DIGITS digits shows as ~10^<log10, floored>,
    and so does a size from `power` past LONG_DIGITS digits."""
    var, default = GUARDS[stage]
    limit = integer(os.environ.get(var, str(default)), error, var)
    if size > limit:
        shown = tuple(_decimal(a) if isinstance(a, int) else a for a in args)
        raise error("%s (limit %d; set %s)" % (what % shown, limit, var))


def power(base, exp):
    """base ** exp, or, past LONG_DIGITS digits, a _Vast holding its
    decade floor(exp * log10(base)), found in integers, so the size is
    never built and an exp too large for a float is sized too."""
    num, den = math.log10(max(base, 1)).as_integer_ratio()
    decade = exp * num // den
    return base ** exp if decade < LONG_DIGITS else _Vast(decade)


class _Vast:
    """A size of more than LONG_DIGITS digits, so above every limit
    (which has at most LONG_DIGITS), kept as its decade and shown as
    ~10^<decade>, the decade shown as _decimal shows an integer."""

    __slots__ = ("decade",)

    def __init__(self, decade):
        self.decade = decade

    def __gt__(self, limit):
        return True

    def __str__(self):
        return "~10^" + _decimal(self.decade)


def _decimal(k):
    return str(k) if k < 10 ** SHORT_DIGITS else "~10^%d" % math.log10(k)
