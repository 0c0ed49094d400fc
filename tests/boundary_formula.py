"""The boundary of a chain tuple, read off the formula of the
`twistq.chain` docstring term by term,

    d(x_1, ..., x_n) = sum_{i=1..n} (-1)^i [ T (x_1, ..., ^x_i, ..., x_n)
        - (x_1 * x_i, ..., x_{i-1} * x_i, x_{i+1}, ..., x_n) ],

with nothing shared with the program's boundary pass: the reference
that the tests of boundaries, coboundaries and their matrices build on.
"""


def boundary_terms(x, key):
    """d key as [(tuple, T exponent, sign)], one entry per formula term."""
    out = []
    n = len(key)
    if n <= 1:
        return out
    for i in range(1, n + 1):
        s = (-1) ** i
        out.append((key[:i - 1] + key[i:], 1, s))
        out.append((tuple(x.op(key[j], key[i - 1]) for j in range(i - 1))
                    + key[i:], 0, -s))
    return out
