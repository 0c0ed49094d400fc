"""Resource guards: refuse a computation above a size limit before it starts.

Each guard keeps its default in the module that uses it; an environment
variable TWISTQ_MAX_* overrides the default and is read on every call,
so a shell or a test can change it without a reload.

Every integer of outside text is read by `integer`, which refuses a
token of more than LONG_DIGITS characters before int() sees it, in one
line that names the kind of input and the length but echoes no text.
A refusal shows outside text through `quote`, which cuts a long text to
a prefix and its length, a key of integers read from it (a cochain's
tuple) through `quote_key`, which does the same to the key's repr, and
an integer of more than SHORT_DIGITS digits as ~10^k, so no message
grows with its input.  A size past LONG_DIGITS digits is never built:
`power` bounds it by its bit count.
"""

import math
import os

LONG_DIGITS = 4300  # str() refuses longer integers unless told otherwise
SHORT_DIGITS = 20   # longer integers show as ~10^k in a refusal
QUOTE_CHARS = 80    # longer texts show as a prefix and a length


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


def check_limit(size, var, default, error, what, *args):
    """Raise error("<what % args> (limit L; set <var>)") when size
    exceeds L, the integer in the environment variable var (default
    when it is unset).  what takes integers with %s: one of more than
    SHORT_DIGITS digits shows as ~10^<log10, floored>, and so does a
    size from `power` past LONG_DIGITS digits."""
    limit = integer(os.environ.get(var, str(default)), error, var)
    if size > limit:
        shown = tuple(_decimal(a) if isinstance(a, int) else a for a in args)
        raise error("%s (limit %d; set %s)" % (what % shown, limit, var))


def power(base, exp):
    """base ** exp, or, past LONG_DIGITS digits, a _Vast standing for the
    lower bound 2 ** floor(exp * log2(base)), which is never built."""
    if base < 2 or exp * math.log10(base) <= LONG_DIGITS:
        return base ** exp
    return _Vast(int(exp * math.log2(base)))


class _Vast:
    """A size of more than LONG_DIGITS digits, so above every limit
    (which has at most LONG_DIGITS), kept as the bit count of its lower
    bound 2 ** bits and shown as _decimal would show that bound."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        self.bits = bits

    def __gt__(self, limit):
        return True

    def __str__(self):
        # math.log10(2 ** bits), summed as math.log10 sums it for an int
        # too large for a float
        return "~10^%d" % (math.log10(0.5) + (self.bits + 1) * math.log10(2))


def _decimal(k):
    return str(k) if k < 10 ** SHORT_DIGITS else "~10^%d" % math.log10(k)
