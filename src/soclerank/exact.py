"""Exact counting primitives over unbounded ints and rationals.

Everything downstream is exact rational arithmetic; nothing in the
package touches floating point.  Scalars serialize as ``"num/den"``
with the denominator omitted when it is 1.
"""

import math
from fractions import Fraction
from math import factorial  # re-exported: n!, ValueError for negative n


def double_factorial(n):
    """n!! with the usual empty-product conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double factorial undefined below -1, got %d" % n)
    return math.prod(range(n, 0, -2))


def multinomial(top, parts):
    """top! / prod(parts!) for nonnegative parts summing to top."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != top:
        raise ValueError(
            "multinomial parts sum to %d, expected %d" % (sum(parts), top)
        )
    out = 1
    rest = top
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def comb_count(pi):
    """(2|pi| + len(pi))! / prod((2*p+1)!!) -- always an exact integer.

    This is the number of linear extensions of a disjoint union of
    comb-shaped posets, one comb on 2*p+1 elements per part p: the
    multinomial over the (2*p+1)! times the product of the (2*p)!!.
    """
    pi = tuple(pi)
    if any(p <= 0 for p in pi):
        raise ValueError("comb sizes must be positive")
    return factorial(2 * sum(pi) + len(pi)) // math.prod(double_factorial(2 * p + 1) for p in pi)


def partition_count(n, sizes):
    """Partitions of n whose parts all lie in ``sizes`` (distinct positive ints).

    Zero for negative n, one for n = 0.  Partitions into at most L parts
    are counted with sizes range(1, L + 1), by conjugation.  Sizes that
    are not distinct positive ints raise ValueError.
    """
    sizes = tuple(sizes)
    if len(set(sizes)) < len(sizes) or any(type(p) is not int or p <= 0 for p in sizes):
        raise ValueError("part sizes must be distinct positive integers, got %r" % (sizes,))
    return _counts(n, sizes)[n] if n >= 0 else 0


def _counts(n, sizes):
    # the partitions of 0, ..., n into parts from sizes
    counts = [1] + [0] * n
    for p in sizes:
        for m in range(p, n + 1):
            counts[m] += counts[m - p]
    return counts


def fz_count(n):
    """Partitions of n with no part of size 5, 8, 11, ... (2 mod 3, >= 5).

    Zero for negative n, one for n = 0.
    """
    return fz_counts(n)[n] if n >= 0 else 0


def fz_counts(n):
    """The list of ``fz_count`` of 0, ..., n, from one table; empty for negative n."""
    # excluded sizes are 5, 8, 11, ...: congruent to 2 mod 3 and at least 5
    return _counts(n, (p for p in range(1, n + 1) if p < 5 or p % 3 != 2))[:n + 1]


def format_scalar(x):
    """Render an exact scalar as 'num/den', dropping '/1'."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)
