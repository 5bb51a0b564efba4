import math
import random
from fractions import Fraction

import pytest

from soclerank.exact import (
    comb_count,
    double_factorial,
    factorial,
    format_scalar,
    fz_count,
    fz_counts,
    multinomial,
    partition_count,
)
from soclerank.partitions import enumerate_partitions


def test_factorial_and_double_factorial():
    assert factorial(0) == 1
    assert factorial(6) == 720
    with pytest.raises(ValueError):
        factorial(-1)
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-3)
    # far past the recursion limit: (2n)!! = 2^n n!
    assert double_factorial(4000) == 2 ** 2000 * factorial(2000)


def test_multinomial():
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(0, ()) == 1
    rng = random.Random(3)
    for _ in range(50):
        parts = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 5))]
        top = sum(parts)
        direct = math.factorial(top)
        for p in parts:
            direct //= math.factorial(p)
        assert multinomial(top, parts) == direct
        rng.shuffle(parts)
        assert multinomial(top, parts) == direct


def test_comb_count_values():
    assert comb_count(()) == 1
    assert comb_count((1,)) == 2
    assert comb_count((2,)) == 8
    assert comb_count((1, 1)) == 80


def test_comb_count_is_always_integral():
    # the double factorial product divides the factorial exactly
    for n in range(0, 9):
        for pi in enumerate_partitions(n):
            assert comb_count(pi) > 0


def test_fz_count():
    assert fz_count(4) == 5
    assert fz_count(5) == 6
    assert fz_count(0) == 1
    assert fz_count(-1) == 0
    assert fz_count(-7) == 0
    # excluded part sizes are 5, 8, 11, ...; 2 stays allowed
    assert fz_count(2) == 2
    allowed = [p for p in range(1, 12) if not (p >= 5 and p % 3 == 2)]
    assert allowed == [1, 2, 3, 4, 6, 7, 9, 10]


def test_fz_count_matches_direct_enumeration():
    directs = []
    for n in range(0, 13):
        direct = sum(
            1
            for p in enumerate_partitions(n)
            if all(not (x >= 5 and x % 3 == 2) for x in p)
        )
        assert fz_count(n) == direct
        directs.append(direct)
    # the one table every betti row reads
    assert fz_counts(12) == directs
    assert fz_counts(0) == [1] and fz_counts(-1) == fz_counts(-5) == []


def test_partition_count_by_length():
    # at most L parts, counted with parts of size at most L
    for n in range(0, 25):
        for length in range(0, n + 2):
            expected = len(enumerate_partitions(n, length))
            assert partition_count(n, range(1, length + 1)) == expected
    assert partition_count(-1, range(1, 4)) == 0
    assert partition_count(3, filter(None, [2, 1, 3])) == 3  # one-shot sizes, read once


@pytest.mark.parametrize("sizes", [[0, 1], [1, 1], [2, 1, 2], [-1, 2], [1.0], [True]])
def test_partition_count_rejects_bad_sizes(sizes):
    # sizes must be distinct positive ints, also for a negative n
    with pytest.raises(ValueError):
        partition_count(3, sizes)
    with pytest.raises(ValueError):
        partition_count(-1, iter(sizes))


def test_scalar_round_trip():
    for x in (0, 7, -3, Fraction(5, 2), Fraction(-9, 4)):
        assert Fraction(format_scalar(x)) == Fraction(x)
    assert format_scalar(Fraction(6, 3)) == "2"
    assert format_scalar(Fraction(5, 2)) == "5/2"
