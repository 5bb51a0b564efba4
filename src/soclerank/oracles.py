"""Word-counting oracles.

Each count here re-derives, as a number of words, a quantity that the
formula modules compute in closed form.  The module imports nothing
from the rest of the package and uses no closed form, so agreement
with the formula path is real evidence.  Inputs are hard-bounded by
total symbol count, and no bound may exceed ``MAX_SYMBOLS``.

Every oracle is one count of the linear extensions of a poset on
numbered symbols.  The copies of one kind form a chain, so a multiset
word is a linear extension of disjoint chains; comb-like kinds keep
their comb relations.  Every adjacency rule is a set of forbidden
(previous, next) symbol pairs, and some counts also forbid given
symbols in the last place.  ``_count`` places a symbol once all its
predecessors are placed and the pair it makes with the previous symbol
is allowed, so each counted word is one path through the states
(placed set, last symbol), where the placed set is an order ideal of
the poset.  The rules read nothing else of a prefix, so the count
sweeps the states once, symbol by symbol, each holding the number of
valid prefixes that reach it.
"""

from fractions import Fraction
from itertools import permutations

DEFAULT_MAX_SYMBOLS = 10
MAX_SYMBOLS = 16


def _check_bound(n, max_symbols):
    if max_symbols > MAX_SYMBOLS:
        raise ValueError("max_symbols is at most %d" % MAX_SYMBOLS)
    if n > max_symbols:
        raise ValueError(
            "oracle instance needs %d symbols, bound is %d" % (n, max_symbols)
        )


def _chain(preds, size):
    """Append `size` symbols, each above the one before; return their indices."""
    first = len(preds)
    preds.extend(1 << (first + k - 1) if k else 0 for k in range(size))
    return list(range(first, first + size))


def _comb(preds, m):
    """Append s_1..s_{2m+1}: odd chain increasing, each even below the next odd."""
    first = len(preds)
    for k in range(2 * m + 1):
        # s_{k+1} for even k >= 2 lies above s_{k-1} and s_k
        preds.append(3 << (first + k - 2) if k >= 2 and k % 2 == 0 else 0)
    return list(range(first, first + 2 * m + 1))


def _mask(symbols):
    return sum(1 << s for s in symbols)


def _count(preds, bad, no_last=0):
    """Words placing every symbol s after the symbols of the bitmask
    `preds[s]`, with no symbol b right after a symbol a whose `bad[a]`
    has bit b, and no symbol of the bitmask `no_last` in the last place.
    Those rules read only the placed set and the last symbol of a prefix,
    so `ways` counts the valid prefixes of each (placed, last) state."""
    full = (1 << len(preds)) - 1
    bad = bad + [0]  # the empty prefix, last = -1, forbids nothing
    ways = {(0, -1): 1}
    for _ in preds:
        step = {}
        for (placed, last), n in ways.items():
            free = full & ~placed & ~bad[last]
            while free:
                bit = free & -free
                free ^= bit
                s = bit.bit_length() - 1
                if preds[s] & placed == preds[s]:
                    key = placed | bit, s
                    step[key] = step.get(key, 0) + n
        ways = step
    return sum(
        n for (_, last), n in ways.items() if last < 0 or not no_last >> last & 1
    )


def count_lemma_tool(sigma, tau=(), order=None, max_symbols=DEFAULT_MAX_SYMBOLS):
    """Word count underlying the compact-type evaluation theta(sigma, tau).

    Words use sigma[i]+1 copies of kind ('s', i) and tau[j] copies of
    kind ('t', j).  A word counts when, whenever the last copy of
    sigma-kind i is immediately followed by the first copy of
    sigma-kind j, kind i ranks below kind j in the supplied total
    order on sigma indices (default: positional order).
    """
    sigma, tau = tuple(sigma), tuple(tau)
    _check_bound(sum(sigma) + len(sigma) + sum(tau), max_symbols)
    if order is None:
        order = range(len(sigma))
    if sorted(order) != list(range(len(sigma))):
        raise ValueError("order must be a permutation of the sigma indices")
    rank = {i: pos for pos, i in enumerate(order)}
    preds = []
    s_kinds = [_chain(preds, s + 1) for s in sigma]
    for t in tau:
        _chain(preds, t)
    bad = [0] * len(preds)
    for i, a in enumerate(s_kinds):
        for j, b in enumerate(s_kinds):
            if rank[i] > rank[j]:
                bad[a[-1]] |= 1 << b[0]
    return _count(preds, bad)


def count_main_claim(lam, tau=(), rho=(), max_symbols=DEFAULT_MAX_SYMBOLS):
    """Averaged word count equal to the basis coefficient c(lam; (d), tau, rho).

    Words use lam[i]+1 copies of kind ('l', i), tau[j]+1 copies of
    ('t', j) and rho[k] copies of ('r', k).  For a fixed total order on
    the l- and t-kinds a word counts when
      (1) whenever the last copy of a kind is immediately followed by
          the first copy of another kind, both l- or t-kinds, the
          earlier kind ranks below the later one, and
      (2) no last copy of an l-kind is immediately followed by any
          copy of any l-kind.
    The result is the exact average over all orders ranking every
    t-kind below every l-kind.  Kinds of equal size are interchangeable,
    so one order per distinct sequence of kind sizes is counted.
    """
    lam, tau, rho = tuple(lam), tuple(tau), tuple(rho)
    n = sum(lam) + len(lam) + sum(tau) + len(tau) + sum(rho)
    _check_bound(n, max_symbols)
    preds = []
    l_kinds = [_chain(preds, v + 1) for v in lam]
    t_kinds = [_chain(preds, v + 1) for v in tau]
    for v in rho:
        _chain(preds, v)
    l_symbols = _mask(s for kind in l_kinds for s in kind)
    total = orders = 0
    for perm_t in _size_orders(t_kinds):
        for perm_l in _size_orders(l_kinds):
            ranked = perm_t + perm_l
            bad = [0] * len(preds)
            for kind in l_kinds:
                bad[kind[-1]] = l_symbols
            for pos, a in enumerate(ranked):
                for b in ranked[:pos]:
                    bad[a[-1]] |= 1 << b[0]
            total += _count(preds, bad)
            orders += 1
    return Fraction(total, orders)


def _size_orders(kinds):
    # each sequence stands for the same prod(m_v!) orders, all with one count
    for sizes in sorted(set(permutations(map(len, kinds)))):
        pool = {n: [k for k in kinds if len(k) == n] for n in set(sizes)}
        yield tuple(pool[n].pop() for n in sizes)


def count_comb_linear_extensions(pi, max_symbols=DEFAULT_MAX_SYMBOLS):
    """Number of arrangements of numbered symbols with each kind comb-like.

    Kind i contributes the 2*pi[i]+1 distinct symbols ('c', i, 1) ..
    ('c', i, 2*pi[i]+1).
    """
    pi = tuple(pi)
    _check_bound(2 * sum(pi) + len(pi), max_symbols)
    preds = []
    for v in pi:
        _comb(preds, v)
    return _count(preds, [0] * len(preds))


def count_a1(lam, tau=(), max_symbols=DEFAULT_MAX_SYMBOLS):
    """Word count with the end-or-non-first-successor rule only.

    Words use lam[i]+1 copies of kind ('l', i) and tau[j]+1 copies of
    kind ('t', j).  A word counts when the last copy of every l-kind
    is either the final symbol or immediately followed by a copy of a
    t-kind that is not the first copy of that kind.  No ordering of
    kinds is involved.
    """
    lam, tau = tuple(lam), tuple(tau)
    _check_bound(sum(lam) + len(lam) + sum(tau) + len(tau), max_symbols)
    preds = []
    l_kinds = [_chain(preds, v + 1) for v in lam]
    t_kinds = [_chain(preds, v + 1) for v in tau]
    successors = _mask(s for kind in t_kinds for s in kind[1:])
    bad = [0] * len(preds)
    for kind in l_kinds:
        bad[kind[-1]] = ~successors
    return _count(preds, bad)


def count_a4(sigma, tau=(), r=None, max_symbols=DEFAULT_MAX_SYMBOLS):
    """Word count for the injection interpretation of eta''.

    Symbols: ('t', i, 1..2*tau[i]+1) per t-kind, ('s', i, 1..2*sigma[i]+1)
    per s-kind, and one End symbol.  A word counts when every t-kind is
    comb-like, every s-kind appears in increasing order, and the last
    symbol of each s-kind is immediately followed by an even-numbered
    t-symbol or by End.  Successors of distinct last symbols are
    distinct, so these words are exactly the injection sum with the
    injection read off from the word.
    """
    sigma, tau = tuple(sigma), tuple(tau)
    if r is not None and r != sum(tau):
        raise ValueError("r must equal the size of tau")
    n = 2 * sum(tau) + len(tau) + 2 * sum(sigma) + len(sigma) + 1
    _check_bound(n, max_symbols)
    preds = []
    t_kinds = [_comb(preds, v) for v in tau]
    s_kinds = [_chain(preds, 2 * v + 1) for v in sigma]
    end = _chain(preds, 1)
    targets = _mask([s for kind in t_kinds for s in kind[1::2]] + end)
    bad = [0] * len(preds)
    for kind in s_kinds:
        bad[kind[-1]] = ~targets
    return _count(preds, bad, _mask(kind[-1] for kind in s_kinds))


def count_b2(sigma, tau=(), max_symbols=DEFAULT_MAX_SYMBOLS):
    """Word count for the star interpretation of mu''.

    Symbols: ('t', i, 1..2*tau[i]+1), ('s', i, 1..2*sigma[i]+1), and one
    star symbol.  A word counts when every kind (both families) is
    comb-like and no last symbol of an s-kind is immediately followed
    by the first symbol ('t', j, 1) of a t-kind.
    """
    sigma, tau = tuple(sigma), tuple(tau)
    n = 2 * sum(tau) + len(tau) + 2 * sum(sigma) + len(sigma) + 1
    _check_bound(n, max_symbols)
    preds = []
    t_kinds = [_comb(preds, v) for v in tau]
    s_kinds = [_comb(preds, v) for v in sigma]
    _chain(preds, 1)  # the star
    firsts = _mask(kind[0] for kind in t_kinds)
    bad = [0] * len(preds)
    for kind in s_kinds:
        bad[kind[-1]] = firsts
    return _count(preds, bad)
