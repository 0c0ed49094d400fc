"""Resource guards: refuse a computation above a size limit before it starts.

Each guard keeps its default in the module that uses it; an environment
variable TWISTQ_MAX_* overrides the default and is read on every call,
so a shell or a test can change it without a reload.
"""

import os


def check_limit(size, var, default, error, what, *args):
    """Raise error("<what % args> (limit L; set <var>)") when size
    exceeds L, the integer in the environment variable var (default
    when it is unset)."""
    limit = int(os.environ.get(var, default))
    if size > limit:
        raise error("%s (limit %d; set %s)" % (what % args, limit, var))
