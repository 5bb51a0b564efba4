"""The multiplicity kernel and the split products against the enumerations they replace.

Every fast sum in ``socle`` is compared exactly with the direct sum over
``enumerate_set_partitions``, and every stratum row of ``coeffs`` (a
product of one-vertex rows over ``unions``) with the direct sum over
``enumerate_refining_functions``, first on full small grids and then on
random partitions drawn by Hypothesis; ``c_coefficient`` is compared
with the chain recursion ``c_chain``.  These slow references, with the
partition helpers ``restrict`` and ``separates`` they need, live here.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soclerank.coeffs import c_coefficient, m_form, product, stratum_row, v_form
from soclerank.exact import double_factorial, factorial, multinomial
from soclerank.partitions import (
    automorphism_count,
    enumerate_partitions,
    enumerate_refining_functions,
    partition,
    set_partition_totals,
    unions,
)
from soclerank.socle import mu, mu_dprime, mu_prime, theta
from soclerank.strata import enumerate_boundary_generators
from test_partitions import enumerate_set_partitions, merge_sum_reference


def restrict(sigma, indices):
    """The partition formed by the parts of ``sigma`` at the given indices."""
    sigma = tuple(sigma)
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        raise ValueError("restriction indices must be distinct")
    return partition(sigma[i] for i in indices)


def separates(blocks, subset):
    """True when no block of the set partition contains two elements of ``subset``."""
    subset = set(subset)
    return all(len(subset.intersection(b)) <= 1 for b in blocks)


def _preimage(phi, j):
    return tuple(i for i, t in enumerate(phi) if t == j)


def c_chain(lam, gamma, kappas=None, psis=None):
    """``c_coefficient`` by the alternating chain sum, as a cross-check.

    Multi-vertex rows reduce to a product of single-remainder
    coefficients over the refinement maps of lam onto the remainders;
    each single-remainder value unrolls into the signed sum over
    strictly coarsening chains, evaluated here by memoized recursion.
    A zero remainder only scales the sum by its theta value.
    """
    lam = partition(lam)
    k = len(gamma)
    kappas = ((),) * k if kappas is None else tuple(map(partition, kappas))
    psis = ((),) * k if psis is None else tuple(map(partition, psis))
    constant, targets = 1, []
    for m, kap, psi in zip(gamma, kappas, psis):
        if m:
            targets.append((m, kap, psi))
        else:
            constant *= theta(kap, psi)
    total = 0
    for phi in enumerate_refining_functions([m for m, _, _ in targets], lam):
        prod = constant
        for j, (_, kap, psi) in enumerate(targets):
            prod *= _chain_single(restrict(lam, _preimage(phi, j)), kap, psi)
        total += prod
    return total


@lru_cache(maxsize=None)
def _chain_single(lam, kap, psi):
    # coefficient of lam in the one-vertex row theta(pi + kap; psi), less
    # every strict coarsening of lam weighted by its blocks' theta values
    def coarser(merged):
        return 0 if len(merged) == len(lam) else _chain_single(merged, kap, psi)

    step = merge_sum_reference(lam, theta, coarser)
    return theta(partition(lam + kap), psi) - step


def theta_reference(sigma, tau):
    size = sum(sigma) + sum(tau)
    total = 0
    for blocks in enumerate_set_partitions(range(len(sigma))):
        merged = [sum(sigma[i] for i in b) + 1 for b in blocks]
        term = multinomial(size + len(blocks), merged + list(tau))
        total += term if (len(blocks) + len(sigma)) % 2 == 0 else -term
    return total


def mu_references(sigma, tau):
    """(mu, mu_prime, mu_dprime) by one pass over the set partitions of all indices."""
    values = sigma + tau
    ns = len(sigma)  # indices below ns are sigma parts, the rest tau parts
    size = sum(values)
    sums = [0, 0, 0]
    for blocks in enumerate_set_partitions(range(len(values))):
        den = 1
        for b in blocks:
            den *= double_factorial(2 * sum(values[i] for i in b) + 1)
        term, rest = divmod(factorial(2 * size + 1 + len(blocks)), den)
        assert rest == 0, (sigma, tau, blocks)
        if (len(values) + len(blocks)) % 2:
            term = -term
        sums[0] += term
        # blocks are sorted tuples: at most one tau index means the second
        # largest index is a sigma index, at most one sigma index that the
        # second smallest is a tau index
        if all(len(b) < 2 or b[-2] < ns for b in blocks):
            sums[1] += term
            if all(len(b) < 2 or b[1] >= ns for b in blocks):
                sums[2] += term
    return tuple(sums)


def refinement_reference(targets, pi, weight):
    """Sum over the refining maps of pi onto the target parts, by enumeration."""
    total = 0
    for phi in enumerate_refining_functions([part for part, _ in targets], pi):
        prod = 1
        for j, (_, data) in enumerate(targets):
            prod *= weight(restrict(pi, _preimage(phi, j)), data)
        total += prod
    return total


def m_form_reference(lam, pi):
    targets = [(part, None) for part in lam]
    return Fraction(refinement_reference(targets, pi, lambda b, _: theta(b)),
                    automorphism_count(lam))


def v_form_reference(data, pi):
    constant = 1
    targets = []
    for m, kap, psi in data:
        if m == 0:
            constant *= theta(kap, psi)
        else:
            targets.append((m, (kap, psi)))
    return constant * refinement_reference(
        targets, pi, lambda b, dec: theta(partition(b + dec[0]), dec[1]))


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _no_slots(block):
    return 0


def _unit(block):
    return 1


def _value_slots(block):
    return sum(block) + 1


# a distinct prime for each block partition of size at most 12
_PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
_BLOCK_PRIMES = dict(zip((b for n in range(1, 13) for b in enumerate_partitions(n)), _PRIMES))


def _block_prime(block):
    return _BLOCK_PRIMES[block]


def test_set_partition_totals_counts_set_partitions():
    # with no slots and unit factors the totals count set partitions by size;
    # slots and factors read from the block values check which blocks form
    for n in range(0, 9):
        totals = set_partition_totals(((1,) * n,), _no_slots, _unit)
        assert totals == {(k, 0): _stirling2(n, k) for k in range(0, n + 1)
                          if _stirling2(n, k)}
    for sigma in ((3, 2, 2, 1), (2, 2, 2), (4, 1, 1, 1, 1)):
        for tau in ((), (1,), (2, 1, 1)):
            for caps in ((None, None), (None, 1), (1, 1), (2, None), (2, 2)):
                ground = range(len(sigma) + len(tau))
                sigma_idx = range(len(sigma))
                tau_idx = range(len(sigma), len(ground))
                kept = [blocks for blocks in enumerate_set_partitions(ground)
                        if _within(blocks, sigma_idx, caps[0]) and _within(blocks, tau_idx, caps[1])]
                expected = Counter((len(blocks), 0) for blocks in kept)
                assert set_partition_totals((sigma, tau), _no_slots, _unit, caps) == expected
                weighted = Counter()
                for blocks in kept:
                    values = [restrict(sigma + tau, b) for b in blocks]
                    fills = [_value_slots(v) for v in values]
                    weight = multinomial(sum(fills), fills)
                    for v in values:
                        weight *= _block_prime(v)
                    weighted[len(blocks), sum(fills)] += weight
                assert set_partition_totals((sigma, tau), _value_slots, _block_prime, caps) == weighted


def _within(blocks, subset, cap):
    # no block holds more than ``cap`` elements of ``subset``; None is no cap
    return cap is None or all(len(set(subset).intersection(b)) <= cap for b in blocks)


def _union_counts(target):
    # the union product of unit one-vertex rows on P(sum(target)): the first
    # target part takes a labeled sub-multiset, the later parts the rest
    if not target:
        return [1]
    m, tail = target[0], _union_counts(target[1:])
    row = [0] * len(enumerate_partitions(sum(target)))
    for pairs in unions(m, sum(target) - m):
        for (k, ways), t in zip(pairs, tail):
            row[k] += ways * t
    return row


def test_split_products_count_refining_maps():
    for n in range(0, 8):
        for target in enumerate_partitions(n):
            counts = _union_counts(target)
            for source, count in zip(enumerate_partitions(n), counts):
                assert count == len(enumerate_refining_functions(target, source)), (source, target)


def test_product_is_commutative_and_associative():
    # the support certificate of ranks.boundary_span rests on this: a stratum
    # row is multilinear in its one-vertex rows, whatever their order
    rng = random.Random(21)
    for _ in range(300):
        m, n, k = (rng.randrange(0, 7) for _ in range(3))
        a, b, c = ([rng.randrange(-9, 10) for _ in enumerate_partitions(x)] for x in (m, n, k))
        assert product(a, b, m, n) == product(b, a, n, m)
        assert product(product(a, b, m, n), c, m + n, k) == product(a, product(b, c, n, k), m, n + k)


def test_stratum_row_is_the_product_of_its_vertex_rows_in_every_order():
    count = 0
    for g in range(2, 7):
        for d in range(1, 2 * g - 2):
            for datum in enumerate_boundary_generators(g, d):
                for order in set(permutations(datum)) if len(datum) > 1 else ():
                    row, n = (1,), 0
                    for vertex in order:
                        row, n = product(row, stratum_row((vertex,)), n, vertex[0]), n + vertex[0]
                    assert row == stratum_row(datum), order
                    count += 1
    assert count == 2394


def test_theta_matches_set_partition_sum():
    taus = [tau for t in range(0, 5) for tau in enumerate_partitions(t)]
    for s in range(0, 9):
        for sigma in enumerate_partitions(s):
            for tau in taus:
                assert theta(sigma, tau) == theta_reference(sigma, tau), (sigma, tau)


def test_mu_family_matches_set_partition_sum():
    # the direct sum runs over Bell(len(sigma) + len(tau)) set partitions,
    # so the 17 of the 804 pairs with more than 9 indices (up to Bell(12),
    # 4.2 million partitions) are left out
    taus = [tau for t in range(0, 5) for tau in enumerate_partitions(t)]
    for s in range(0, 9):
        for sigma in enumerate_partitions(s):
            for tau in taus:
                if len(sigma) + len(tau) > 9:
                    continue
                expected = mu_references(sigma, tau)
                assert (mu(sigma, tau), mu_prime(sigma, tau),
                        mu_dprime(sigma, tau)) == expected, (sigma, tau)


def test_m_form_matches_refining_map_sum():
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            form = m_form(lam)
            for pi in enumerate_partitions(n):
                assert form(pi) == m_form_reference(lam, pi), (lam, pi)


def test_v_form_matches_refining_map_sum():
    for g in range(2, 8):
        for d in range(0, 2 * g - 2):
            for data in enumerate_boundary_generators(g, d):
                form = v_form(data, d)
                for pi in enumerate_partitions(d):
                    assert form(pi) == v_form_reference(data, pi), (g, d, data, pi)


def _partitions(largest, max_len):
    return st.lists(st.integers(1, largest), max_size=max_len).map(partition)


_vertices = st.tuples(st.integers(0, 4), _partitions(2, 2), _partitions(2, 2))


@settings(max_examples=60, deadline=None)
@given(
    sigma=_partitions(3, 6),
    tau=_partitions(3, 3),
    data=st.lists(_vertices, max_size=4).filter(lambda v: sum(m for m, _, _ in v) <= 7),
    lam_index=st.integers(0, 10**6),
)
def test_kernel_matches_enumeration_on_random_partitions(sigma, tau, data, lam_index):
    assert theta(sigma, tau) == theta_reference(sigma, tau)
    assert (mu(sigma, tau), mu_prime(sigma, tau), mu_dprime(sigma, tau)) == mu_references(
        sigma, tau)
    n = sum(sigma)
    if n <= 9:
        candidates = enumerate_partitions(n)
        lam = candidates[lam_index % len(candidates)]
        assert m_form(lam)(sigma) == m_form_reference(lam, sigma)
    d = sum(m for m, _, _ in data)
    form = v_form(data, d)
    for pi in enumerate_partitions(d):
        assert form(pi) == v_form_reference(data, pi)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(_vertices, min_size=1, max_size=3).filter(
        lambda v: sum(m for m, _, _ in v) <= 7),
    lam_index=st.integers(0, 10**6),
)
def test_c_coefficient_matches_chain_on_random_data(data, lam_index):
    gamma, kappas, psis = (tuple(col) for col in zip(*data))
    candidates = enumerate_partitions(sum(gamma))
    lam = candidates[lam_index % len(candidates)]
    assert c_coefficient(lam, gamma, kappas, psis) == c_chain(lam, gamma, kappas, psis)


def test_restrict():
    assert restrict((5, 4, 3), (2, 0)) == (5, 3)
    assert restrict((5, 4, 3), ()) == ()
    with pytest.raises(ValueError):
        restrict((5, 4), (0, 0))


def test_separates_is_monotone():
    rng = random.Random(11)
    ground = tuple(range(6))
    all_blocks = enumerate_set_partitions(ground)
    for _ in range(200):
        blocks = rng.choice(all_blocks)
        subset = tuple(i for i in ground if rng.random() < 0.5)
        if separates(blocks, subset):
            smaller = subset[: rng.randrange(len(subset) + 1)]
            assert separates(blocks, smaller)
        singles = sum(1 for b in blocks if len(b) == 1)
        if singles == len(ground):
            assert separates(blocks, ground)


def test_chain_matches_expansion_plain():
    for d in range(0, 7):
        for lam in enumerate_partitions(d):
            for gamma in enumerate_partitions(d):
                assert c_chain(lam, gamma) == c_coefficient(lam, gamma)


def test_chain_matches_expansion_decorated():
    for d in range(1, 5):
        for lam in enumerate_partitions(d):
            for gamma in enumerate_partitions(d):
                slots = len(gamma)
                for extra in range(0, 4 - slots + 1):
                    for kap in enumerate_partitions(extra):
                        kappas = (kap,) + ((),) * (slots - 1)
                        assert c_chain(lam, gamma, kappas) == c_coefficient(
                            lam, gamma, kappas
                        )
                        psis = kappas
                        assert c_chain(
                            lam, gamma, None, psis
                        ) == c_coefficient(lam, gamma, None, psis)


def test_chain_matches_expansion_sampled():
    rng = random.Random(29)
    for _ in range(60):
        d = rng.choice((5, 6))
        lam = rng.choice(enumerate_partitions(d))
        gamma = rng.choice(enumerate_partitions(d))
        kappas = []
        psis = []
        for _slot in range(len(gamma)):
            kappas.append(rng.choice(enumerate_partitions(rng.randrange(0, 3))))
            psis.append(rng.choice(enumerate_partitions(rng.randrange(0, 2))))
        kappas, psis = tuple(kappas), tuple(psis)
        assert c_chain(lam, gamma, kappas, psis) == c_coefficient(
            lam, gamma, kappas, psis
        )
    # zero remainders with a kappa/psi decoration, placed anywhere in gamma
    rng = random.Random(31)
    for _ in range(30):
        d = rng.choice((4, 5, 6))
        lam = rng.choice(enumerate_partitions(d))
        slots = [
            (m, rng.choice(enumerate_partitions(rng.randrange(0, 3))),
             rng.choice(enumerate_partitions(rng.randrange(0, 2))))
            for m in rng.choice(enumerate_partitions(d))
        ]
        for _zero in range(rng.randrange(1, 3)):
            slots.insert(rng.randrange(len(slots) + 1), (
                0, rng.choice(enumerate_partitions(rng.randrange(1, 3))),
                rng.choice(enumerate_partitions(rng.randrange(0, 3))),
            ))
        gamma, kappas, psis = (tuple(col) for col in zip(*slots))
        assert c_chain(lam, gamma, kappas, psis) == c_coefficient(
            lam, gamma, kappas, psis
        )
    # theta((1,), (1, 1)) = 12 scales the one-vertex coefficient c_chain((3,), (3,)) = 1
    assert c_chain((3,), (3, 0), ((), (1,)), ((), (1, 1))) == 12
