import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod

import pytest

from soclerank import partitions, socle
from soclerank.coeffs import _cycle_weight, block_factor
from soclerank.partitions import (
    automorphism_count,
    enumerate_partitions,
    enumerate_refining_functions,
    merge_sign,
    merge_sum,
    partition,
    shared_work,
    unions,
)
from soclerank.socle import theta


# The package keeps no memo of its slow set partition listing; the references
# here and in test_kernel list the same few ground sets many times, so they
# share this one.
enumerate_set_partitions = lru_cache(maxsize=None)(partitions.enumerate_set_partitions)


# Slow reference: the sum over coarsenings, one term per set partition.


def merge(sigma, blocks):
    """Coarsen ``sigma`` along a set partition of its index set."""
    sigma = tuple(sigma)
    seen = sorted(i for b in blocks for i in b)
    if seen != list(range(len(sigma))):
        raise ValueError("blocks must partition the index set of sigma")
    return partition(sum(sigma[i] for i in b) for b in blocks)


def merge_sum_reference(parts, weight, value):
    """``merge_sum`` by listing every set partition of the indices of ``parts``."""
    parts = tuple(parts)
    total = 0
    for blocks in enumerate_set_partitions(range(len(parts))):
        term = value(merge(parts, blocks))
        if term:
            for b in blocks:
                term *= weight(partition(parts[i] for i in b))
            total += term
    return total


def _unit(block):
    return 1


def test_partition_canonicalizes():
    assert partition([1, 3, 1]) == (3, 1, 1)
    assert partition(()) == ()
    with pytest.raises(ValueError):
        partition((2, 0))
    with pytest.raises(ValueError):
        partition((-1,))
    with pytest.raises(ValueError):
        partition((True,))


def test_enumeration_order():
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(6, 2) == tuple(
        p for p in enumerate_partitions(6) if len(p) <= 2
    )


def test_partition_counts_match_recurrence():
    # p(n, k) = partitions of n into parts <= k
    limit = 20
    table = [[0] * (limit + 1) for _ in range(limit + 1)]
    for k in range(limit + 1):
        table[0][k] = 1
    for n in range(1, limit + 1):
        for k in range(1, limit + 1):
            table[n][k] = table[n][k - 1] + (table[n - k][k] if n >= k else 0)
    for n in range(limit + 1):
        assert len(enumerate_partitions(n)) == table[n][limit]


def test_set_partition_counts_match_bell_triangle():
    # bell[n] ends up being the Bell number B(n)
    bell = [1]
    prev = [1]
    for n in range(1, 9):
        row = [prev[-1]]
        for i in range(n - 1):
            row.append(row[-1] + prev[i])
        prev = row
        bell.append(row[-1])
    for n in range(0, 9):
        blocks_sets = enumerate_set_partitions(range(n))
        assert len(blocks_sets) == bell[n]
        assert len(set(blocks_sets)) == bell[n]
        assert list(blocks_sets) == sorted(blocks_sets)
        for blocks in blocks_sets:
            assert sorted(i for b in blocks for i in b) == list(range(n))
            assert list(blocks) == sorted(blocks) and all(list(b) == sorted(b) for b in blocks)
    assert enumerate_set_partitions((2, 0, 1)) == enumerate_set_partitions(range(3))
    with pytest.raises(ValueError, match="repeated"):
        partitions.enumerate_set_partitions((0, 1, 1))


def test_merge_sum_counts():
    bell = (1, 1, 2, 5, 15, 52, 203, 877)
    for n in range(0, 8):
        parts = tuple(range(n, 0, -1))
        # unit weights count the set partitions, (|B|-1)! the permutations by cycles
        assert merge_sum(parts, _unit, lambda merged: 1) == bell[n]
        assert merge_sum(parts, _cycle_weight, lambda merged: 1) == factorial(n)
        if n:
            # only the one-block partition reaches the one-part partition
            assert merge_sum(parts, merge_sign,
                             lambda merged: int(merged == (sum(parts),))) == (-1) ** (n - 1)
    # called once per distinct coarsening; two set partitions reach (3, 1)
    seen = []
    merge_sum((2, 1, 1), _unit, lambda merged: seen.append(merged) or 0)
    assert sorted(seen) == [(2, 1, 1), (2, 2), (3, 1), (4,)]
    assert merge_sum((2, 1, 1), _unit, lambda merged: int(merged == (3, 1))) == 2


def test_merge_sum_matches_set_partition_enumeration():
    # a distinct prime per merged partition keeps the coarsenings apart
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    for n in range(0, 9):
        prime = dict(zip(enumerate_partitions(n), primes)).__getitem__
        for parts in enumerate_partitions(n):
            for weight in (_unit, merge_sign, _cycle_weight, block_factor, theta):
                assert merge_sum(parts, weight, prime) == \
                    merge_sum_reference(parts, weight, prime), (parts, weight.__name__)


def test_unions_count_the_labeled_subsets():
    # each entry of unions(m, n - m) indexes the sorted union in P(n); the
    # ways that land on pi, over all m, count the subsets of the positions
    # of pi by the parts they take, 2^len(pi) in all
    for n in range(0, 9):
        landed = {pi: Counter() for pi in enumerate_partitions(n)}
        for m in range(0, n + 1):
            for s, pairs in zip(enumerate_partitions(m), unions(m, n - m)):
                for t, (k, ways) in zip(enumerate_partitions(n - m), pairs):
                    pi = enumerate_partitions(n)[k]
                    assert pi == partition(s + t), (s, t, pi)
                    landed[pi][s] += ways
        for pi, counts in landed.items():
            subsets = Counter(partition(pi[i] for i in c) for r in range(len(pi) + 1)
                              for c in combinations(range(len(pi)), r))
            assert counts == subsets, pi
            assert sum(counts.values()) == 2 ** len(pi), pi


def test_refinement_exists_iff_merge_reaches():
    for n in range(0, 8):
        parts = enumerate_partitions(n)
        for source in parts:
            reachable = {
                merge(source, blocks)
                for blocks in enumerate_set_partitions(range(len(source)))
            }
            for target in parts:
                has_phi = bool(enumerate_refining_functions(target, source))
                assert has_phi == (target in reachable), (source, target)


def test_refining_function_block_sums():
    for phi in enumerate_refining_functions((3, 2, 1), (2, 1, 1, 1, 1)):
        source = (2, 1, 1, 1, 1)
        target = (3, 2, 1)
        for j, t in enumerate(target):
            assert sum(source[i] for i in range(len(source)) if phi[i] == j) == t


def test_merge_and_restrict():
    assert merge((3, 2, 1), ((0,), (1,), (2,))) == (3, 2, 1)
    assert merge((3, 2, 1), ((0, 1, 2),)) == (6,)
    assert merge((3, 2, 1), ((0, 2), (1,))) == (4, 2)
    with pytest.raises(ValueError):
        merge((3, 2), ((0,),))


def test_automorphism_count():
    assert automorphism_count(()) == 1
    assert automorphism_count((2, 1)) == 1
    assert automorphism_count((1, 1, 1)) == 6
    assert automorphism_count((2, 2, 1, 1, 1)) == 12


def test_shared_work_counts_each_kernel_state_once():
    # the walk's states are the inputs and their sub-multisets with fewer
    # parts of the largest value, each once; after theta of every input they
    # are exactly the kernel memo's new entries (with the empty state), and
    # each costs what set_partition_work sums
    rng = random.Random(32)
    slots = socle._theta_slots
    for _ in range(25):
        sigmas = [partition(rng.choice((1, 1, 2, 3, 5)) for _ in range(rng.randrange(1, 8)))
                  for _ in range(rng.randrange(1, 5))]
        states = set()
        for sigma in sigmas:
            kinds = sorted(Counter(sigma).items(), reverse=True)
            for counts in product(*(range(c + 1) for _, c in kinds)):
                if counts[0] < kinds[0][1] or list(counts) == [c for _, c in kinds]:
                    states.add(tuple((v, c) for (v, _), c in zip(kinds, counts) if c))
        states.discard(())
        work = {}
        for state in states:
            a = sum(c * slots((v,)) for v, c in state)
            picks = state[0][1] * prod(c + 1 for _, c in state[1:])
            work[state] = picks * (sum(c for _, c in state) + 1) * partitions._step_work(a)
        expected = sum(work.values())
        assert shared_work(sigmas, slots) == shared_work(sigmas + sigmas[:1], slots) == expected
        # a cap stops the walk once passed: the sum so far is above it, at
        # most the whole, and a zero cap counts the inputs alone
        assert expected // 2 < shared_work(sigmas, slots, expected // 2) <= expected
        tops = {tuple(sorted(Counter(sigma).items(), reverse=True)) for sigma in sigmas}
        assert shared_work(sigmas, slots, 0) == sum(work[top] for top in tops)
        assert shared_work(sigmas[:1], slots) <= partitions.set_partition_work(sigmas[:1], slots)
        partitions._free.cache_clear()
        for sigma in sigmas:
            socle._theta.__wrapped__(sigma, ())
        assert partitions._free.cache_info().currsize == len(states) + 1
