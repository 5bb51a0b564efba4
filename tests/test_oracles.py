"""The word oracles against the permutation filters they replace, and
against the closed forms they re-derive.

The counters of ``soclerank.oracles`` count each word as one path
through the (placed set, last symbol) states of a prefix, which is all
their adjacency and last-place rules read.  They are compared exactly
with the slow reference below, which enumerates every word (every
multiset arrangement or every permutation) and filters it, on every
instance of at most 8 symbols.  Each oracle is then checked against its
closed form on pinned values, small grids and random instances drawn by
Hypothesis.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soclerank import oracles
from soclerank.coeffs import c_coefficient, eta_dprime_form, eta_prime_form
from soclerank.exact import comb_count, multinomial
from soclerank.oracles import (
    DEFAULT_MAX_SYMBOLS,
    MAX_SYMBOLS,
    count_a1,
    count_a4,
    count_b2,
    count_comb_linear_extensions,
    count_lemma_tool,
    count_main_claim,
)
from soclerank.partitions import enumerate_partitions, partition
from soclerank.socle import mu_dprime, theta


# Slow reference: every word of the instance, filtered by the rules as stated.


def _multiset_permutations(word):
    """All distinct arrangements of a multiset, by lexicographic successor."""
    items = sorted(word)
    n = len(items)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(items)
        i = n - 2
        while i >= 0 and not items[i] < items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while not items[i] < items[j]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1:] = items[:i:-1]


def _last_first_adjacencies(word, copies):
    """Kind pairs (a, b) where the last copy of a immediately precedes the first copy of b."""
    seen = {}
    pairs = []
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        seen[a] = seen.get(a, 0) + 1
        if seen[a] == copies[a] and seen.get(b, 0) == 0:
            pairs.append((a, b))
    return pairs


def _count_lemma_tool(sigma, tau=(), order=None):
    if order is None:
        order = range(len(sigma))
    rank = {("s", i): pos for pos, i in enumerate(order)}
    word0 = []
    copies = {}
    for i, s in enumerate(sigma):
        copies[("s", i)] = s + 1
        word0 += [("s", i)] * (s + 1)
    for j, t in enumerate(tau):
        copies[("t", j)] = t
        word0 += [("t", j)] * t
    total = 0
    for word in _multiset_permutations(word0):
        good = True
        for a, b in _last_first_adjacencies(word, copies):
            if a in rank and b in rank and not rank[a] < rank[b]:
                good = False
                break
        if good:
            total += 1
    return total


def _count_main_claim(lam, tau=(), rho=()):
    word0 = []
    copies = {}
    for i, v in enumerate(lam):
        copies[("l", i)] = v + 1
        word0 += [("l", i)] * (v + 1)
    for j, v in enumerate(tau):
        copies[("t", j)] = v + 1
        word0 += [("t", j)] * (v + 1)
    for k, v in enumerate(rho):
        copies[("r", k)] = v
        word0 += [("r", k)] * v
    orders = []
    for perm_t in permutations(range(len(tau))):
        for perm_l in permutations(range(len(lam))):
            rank = {("t", j): pos for pos, j in enumerate(perm_t)}
            rank.update(
                {("l", i): len(tau) + pos for pos, i in enumerate(perm_l)}
            )
            orders.append(rank)
    total = 0
    for word in _multiset_permutations(word0):
        if not _no_l_kind_after_last(word, copies):
            continue
        pairs = [
            (a, b)
            for a, b in _last_first_adjacencies(word, copies)
            if a[0] in "lt" and b[0] in "lt"
        ]
        for rank in orders:
            if all(rank[a] < rank[b] for a, b in pairs):
                total += 1
    return Fraction(total, len(orders))


def _no_l_kind_after_last(word, copies):
    # the last copy of an l-kind must not precede any l-kind symbol
    seen = {}
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        seen[a] = seen.get(a, 0) + 1
        if a[0] == "l" and seen[a] == copies[a] and b[0] == "l":
            return False
    return True


def _positions(word):
    return {sym: pos for pos, sym in enumerate(word)}


def _comb_ok(pos, kind_symbols):
    """Comb relations on numbered symbols s_1..s_{2m+1}: odd chain increasing, each even below the next odd."""
    m = (len(kind_symbols) - 1) // 2
    for j in range(1, m + 1):
        if not pos[kind_symbols[2 * j - 2]] < pos[kind_symbols[2 * j]]:
            return False  # s_{2j-1} < s_{2j+1}
        if not pos[kind_symbols[2 * j - 1]] < pos[kind_symbols[2 * j]]:
            return False  # s_{2j} < s_{2j+1}
    return True


def _total_order_ok(pos, kind_symbols):
    return all(
        pos[a] < pos[b] for a, b in zip(kind_symbols, kind_symbols[1:])
    )


def _count_comb_linear_extensions(pi):
    kinds = [
        tuple(("c", i, j) for j in range(1, 2 * v + 2)) for i, v in enumerate(pi)
    ]
    symbols = [s for kind in kinds for s in kind]
    total = 0
    for word in permutations(symbols):
        pos = _positions(word)
        if all(_comb_ok(pos, kind) for kind in kinds):
            total += 1
    return total


def _count_a1(lam, tau=()):
    word0 = []
    copies = {}
    for i, v in enumerate(lam):
        copies[("l", i)] = v + 1
        word0 += [("l", i)] * (v + 1)
    for j, v in enumerate(tau):
        copies[("t", j)] = v + 1
        word0 += [("t", j)] * (v + 1)
    total = 0
    for word in _multiset_permutations(word0):
        if _a1_successor_ok(word, copies):
            total += 1
    return total


def _a1_successor_ok(word, copies):
    seen = {}
    for pos, a in enumerate(word):
        seen[a] = seen.get(a, 0) + 1
        if a[0] == "l" and seen[a] == copies[a] and pos + 1 < len(word):
            b = word[pos + 1]
            # successor must be a t-kind copy other than that kind's first
            if b[0] != "t" or seen.get(b, 0) == 0:
                return False
    return True


def _count_a4(sigma, tau=()):
    t_kinds = [
        tuple(("t", i, j) for j in range(1, 2 * v + 2)) for i, v in enumerate(tau)
    ]
    s_kinds = [
        tuple(("s", i, j) for j in range(1, 2 * v + 2)) for i, v in enumerate(sigma)
    ]
    end = ("end",)
    targets = {sym for kind in t_kinds for sym in kind[1::2]}  # even ordinals
    targets.add(end)
    symbols = [s for kind in t_kinds + s_kinds for s in kind] + [end]
    total = 0
    for word in permutations(symbols):
        pos = _positions(word)
        if not all(_comb_ok(pos, kind) for kind in t_kinds):
            continue
        if not all(_total_order_ok(pos, kind) for kind in s_kinds):
            continue
        if _last_successors_in(word, pos, s_kinds, targets):
            total += 1
    return total


def _last_successors_in(word, pos, s_kinds, targets):
    for kind in s_kinds:
        p = pos[kind[-1]]
        if p + 1 >= len(word) or word[p + 1] not in targets:
            return False
    return True


def _count_b2(sigma, tau=()):
    t_kinds = [
        tuple(("t", i, j) for j in range(1, 2 * v + 2)) for i, v in enumerate(tau)
    ]
    s_kinds = [
        tuple(("s", i, j) for j in range(1, 2 * v + 2)) for i, v in enumerate(sigma)
    ]
    star = ("star",)
    forbidden = {kind[0] for kind in t_kinds}
    symbols = [s for kind in t_kinds + s_kinds for s in kind] + [star]
    total = 0
    for word in permutations(symbols):
        pos = _positions(word)
        if not all(_comb_ok(pos, kind) for kind in t_kinds + s_kinds):
            continue
        good = True
        for kind in s_kinds:
            p = pos[kind[-1]]
            if p + 1 < len(word) and word[p + 1] in forbidden:
                good = False
                break
        if good:
            total += 1
    return total


def _instances(symbols):
    """Every oracle instance of at most ``symbols`` symbols, as (fast, slow, args)."""
    parts = [p for n in range(symbols + 1) for p in enumerate_partitions(n)]
    out = []
    for sigma in parts:
        if 2 * sum(sigma) + len(sigma) <= symbols:
            out.append((count_comb_linear_extensions, _count_comb_linear_extensions, (sigma,)))
        for tau in parts:
            if sum(sigma) + len(sigma) + sum(tau) <= symbols:
                orders = [None]
                if 2 <= len(sigma) <= 3:
                    orders += permutations(range(len(sigma)))
                for order in orders:
                    out.append((count_lemma_tool, _count_lemma_tool, (sigma, tau, order)))
            base = sum(sigma) + len(sigma) + sum(tau) + len(tau)
            if base <= symbols:
                out.append((count_a1, _count_a1, (sigma, tau)))
            for rho in parts:
                if base + sum(rho) <= symbols:
                    out.append((count_main_claim, _count_main_claim, (sigma, tau, rho)))
            if 2 * (sum(sigma) + sum(tau)) + len(sigma) + len(tau) + 1 <= symbols:
                out.append((count_a4, _count_a4, (sigma, tau)))
                out.append((count_b2, _count_b2, (sigma, tau)))
    return out


def test_counters_match_permutation_filters():
    for fast, slow, args in _instances(8):
        assert fast(*args) == slow(*args), (fast.__name__, args)


def test_multiset_permutations():
    word = ("a", "a", "b")
    perms = list(_multiset_permutations(word))
    assert len(perms) == 3
    assert len(set(perms)) == 3
    assert perms == sorted(perms)
    word = ("a", "b", "b", "c")
    perms = list(_multiset_permutations(word))
    assert len(perms) == multinomial(4, (1, 2, 1))
    assert perms == sorted(set(perms))


def test_lemma_tool_pinned_values():
    assert count_lemma_tool((1, 1)) == 5
    assert count_lemma_tool((2, 1)) == 9
    assert count_lemma_tool((1, 1, 1)) == 61
    assert count_lemma_tool((1,), (1, 1)) == 12
    assert count_lemma_tool(()) == 1


def test_lemma_tool_order_independence():
    for sigma in ((2, 1), (1, 1), (2, 2), (1, 1, 1), (3, 1)):
        values = {
            count_lemma_tool(sigma, (), order)
            for order in permutations(range(len(sigma)))
        }
        assert values == {theta(sigma)}


def test_lemma_tool_matches_theta_sample():
    for s in range(0, 5):
        for sigma in enumerate_partitions(s):
            for t in range(0, 5 - s - len(sigma) + 1):
                for tau in enumerate_partitions(t):
                    assert count_lemma_tool(sigma, tau) == theta(sigma, tau)


def test_lemma_tool_bound():
    with pytest.raises(ValueError):
        count_lemma_tool((5, 4), (3, 3), max_symbols=9)


def test_every_oracle_refuses_a_bound_above_the_ceiling():
    for counter, args in (
        (count_lemma_tool, ((1,),)),
        (count_main_claim, ((1,),)),
        (count_comb_linear_extensions, ((1,),)),
        (count_a1, ((1,),)),
        (count_a4, ((1,), (), 0)),
        (count_b2, ((1,),)),
    ):
        assert counter(*args, max_symbols=MAX_SYMBOLS) >= 0
        with pytest.raises(ValueError, match="at most %d" % MAX_SYMBOLS):
            counter(*args, max_symbols=MAX_SYMBOLS + 1)


def test_lemma_tool_rejects_non_permutation_order():
    # distinct entries of the right count are not enough: (0, 5) once
    # counted 6 words for theta((1, 1)) = 5
    for order in ((0, 5), (0, 0), (1,)):
        with pytest.raises(ValueError, match="permutation of the sigma indices"):
            count_lemma_tool((1, 1), (), order)


def test_main_claim_pinned_values():
    assert count_main_claim((1, 1)) == 0
    assert count_main_claim((2,)) == 1
    assert count_main_claim((1, 1), (1,)) == 16
    value = count_main_claim((2, 1), (1,))
    assert isinstance(value, Fraction) and value.denominator == 1 and value >= 0


def _count_main_claim_all_orders(lam, tau=(), rho=()):
    # the average over every order of the kinds, one count each, against
    # which count_main_claim's one order per sequence of kind sizes is checked
    preds = []
    l_kinds = [oracles._chain(preds, v + 1) for v in lam]
    t_kinds = [oracles._chain(preds, v + 1) for v in tau]
    for v in rho:
        oracles._chain(preds, v)
    l_symbols = oracles._mask(s for kind in l_kinds for s in kind)
    counts = []
    for perm_t in permutations(t_kinds):
        for perm_l in permutations(l_kinds):
            ranked = perm_t + perm_l
            bad = [0] * len(preds)
            for kind in l_kinds:
                bad[kind[-1]] = l_symbols
            for pos, a in enumerate(ranked):
                for b in ranked[:pos]:
                    bad[a[-1]] |= 1 << b[0]
            counts.append(oracles._count(preds, bad))
    return Fraction(sum(counts), len(counts))


def test_main_claim_size_orders_match_all_orders():
    instances = [args for fast, _, args in _instances(9) if fast is count_main_claim]
    assert len(instances) > 500
    for args in instances:
        assert count_main_claim(*args, max_symbols=9) == _count_main_claim_all_orders(*args), args


def test_main_claim_matches_coefficient():
    # single-vertex coefficients with a kappa or psi decoration
    assert count_main_claim((2, 1), (1,)) == c_coefficient(
        (2, 1), (3,), ((1,),)
    )
    assert count_main_claim((1, 1, 1), (), (1,)) == c_coefficient(
        (1, 1, 1), (3,), ((),), ((1,),)
    )


def test_comb_linear_extensions():
    assert count_comb_linear_extensions(()) == 1
    assert count_comb_linear_extensions((1,)) == 2
    assert count_comb_linear_extensions((2,)) == 8
    assert count_comb_linear_extensions((1, 1)) == 80
    for n in range(0, 4):
        for pi in enumerate_partitions(n):
            if 2 * n + len(pi) <= 7:
                assert count_comb_linear_extensions(pi) == comb_count(pi)


def test_a4_and_b2_pinned_values():
    assert count_a4((), (1,), 1) == 8
    assert count_a4((1,), (), 0) == 1
    assert count_b2((), (1,)) == 8
    assert count_b2((1, 1), ()) == 560
    assert count_b2((), (2,)) == 48


def test_b2_matches_mu_dprime():
    for s in range(0, 3):
        for sigma in enumerate_partitions(s):
            for t in range(0, 3 - s):
                for tau in enumerate_partitions(t):
                    if 2 * (s + t) + len(sigma) + len(tau) + 1 <= 8:
                        assert count_b2(sigma, tau) == mu_dprime(sigma, tau)


def test_a1_small_value():
    # one kind with one copy, nothing else: the single word passes
    assert count_a1((1,)) == 1
    value = count_a1((1, 1), (1,))
    assert value == 16


def _partitions(largest, max_len):
    return st.lists(st.integers(1, largest), max_size=max_len).map(partition)


def _a1_lambda(sigma, r):
    # the l-kinds whose a1 count is eta'(sigma, g, r) at tau
    return partition(tuple(2 * s + 1 for s in sigma) + (1,) * (r + 1 - len(sigma)))


@settings(max_examples=80, deadline=None)
@given(
    oracle=st.sampled_from(("theta", "c_coefficient", "comb", "a1", "a4", "b2")),
    sigma=_partitions(3, 3),
    tau=_partitions(3, 3),
    rho=_partitions(2, 2),
)
def test_oracles_match_closed_forms_on_random_instances(oracle, sigma, tau, rho):
    s, r = sum(sigma), sum(tau)
    if oracle == "theta":
        assume(s + len(sigma) + r <= DEFAULT_MAX_SYMBOLS)
        assert count_lemma_tool(sigma, tau) == theta(sigma, tau)
    elif oracle == "c_coefficient":
        # one count per order of the kinds: one symbol under the budget
        assume(s + len(sigma) + r + len(tau) + sum(rho) < DEFAULT_MAX_SYMBOLS)
        assert count_main_claim(sigma, tau, rho) == c_coefficient(sigma, (s,), (tau,), (rho,))
    elif oracle == "comb":
        pi = partition(sigma + tau)
        assume(2 * sum(pi) + len(pi) <= DEFAULT_MAX_SYMBOLS)
        assert count_comb_linear_extensions(pi) == comb_count(pi)
    elif oracle == "a1":
        assume(len(sigma) <= r + 1)
        lam = _a1_lambda(sigma, r)
        assume(sum(lam) + len(lam) + r + len(tau) <= DEFAULT_MAX_SYMBOLS)
        assert count_a1(lam, tau) == eta_prime_form(sigma, s + 2 + r, r)(tau)
    else:
        assume(2 * (s + r) + len(sigma) + len(tau) + 1 <= DEFAULT_MAX_SYMBOLS)
        if oracle == "a4":
            assume(len(sigma) <= r + 1)
            assert count_a4(sigma, tau, r) == eta_dprime_form(sigma, s + 2 + r, r)(tau)
        else:
            assert count_b2(sigma, tau) == mu_dprime(sigma, tau)
