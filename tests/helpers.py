"""Small helpers the tests share and the library does not need."""


def as_integer(c):
    """A rational CycNumber as an int; ValueError if it is not an integer."""
    q = c.as_rational()
    if q.denominator != 1:
        raise ValueError("not an integer: %s" % (c,))
    return q.numerator


def g_identity(n):
    """The identity of G(r,n) as (colors, permutation)."""
    return (0,) * n, tuple(range(1, n + 1))
