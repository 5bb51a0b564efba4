"""Integer partitions, set partitions, and refinement maps between them.

A partition is a plain tuple of positive ints in weakly decreasing order.
Parts are addressed by position, so the index set of ``p`` is
``range(len(p))``.  A set partition of a finite index collection is a
tuple of blocks, each block a sorted tuple, with the blocks themselves
sorted; this makes every set partition hashable and order-deterministic.
A refining function from ``source`` into ``target`` is a tuple ``phi``
of length ``len(source)`` with ``phi[j]`` a target index, such that each
target part equals the sum of the source parts mapped onto it.

``set_partition_totals`` sums over set partitions without listing them:
a summand that depends only on block contents is the same for parts of
equal value, so one dynamic program over part multiplicities (the
exponential formula for multiset partitions) replaces the Bell-number
enumeration.  ``unions`` tabulates, for every pair in P(m) x P(n), the
index of their multiset union in P(m + n) with its labeled multiplicity:
a sum over refining maps is a product of such unions, one per target part.
``merge_sum`` sums over ``coarsenings``, the same dynamic program keyed
by the merged partition; both take each step's block, the one holding
a part of the first kind, from ``_blocks``.
``enumerate_set_partitions`` and ``enumerate_refining_functions`` stay
as the slow references the tests compare against.
"""

from functools import lru_cache
from itertools import combinations, groupby
from math import comb, factorial, inf, prod

# Most work one ``set_partition_totals`` call may take: its steps,
# (parts + 1) * prod over kinds of C(m + 2, 2), m the kind's multiplicity,
# times b**2 + 2**22, a product of b-bit integers plus a fixed cost, where
# b = a * a.bit_length() bounds the bits of a! for a the slots of the
# finest set partition.  On a 2-vCPU machine theta of 198 ones (6.7e13)
# takes 4 s, mu of 198 ones (1.6e14) took 14 s, the slowest accepted 7.8 s.
MAX_WORK = 7 * 10**13


def partition(parts):
    """Canonicalize an iterable of positive ints into a partition tuple."""
    t = tuple(sorted(parts, reverse=True))
    for x in t:
        if not isinstance(x, int) or isinstance(x, bool) or x <= 0:
            raise ValueError("partition parts must be positive integers, got %r" % (x,))
    return t


@lru_cache(maxsize=None)
def enumerate_partitions(n, max_length=None):
    """All partitions of ``n``, optionally of length <= ``max_length``.

    The order is deterministic: shorter partitions first, and within one
    length the lexicographically larger tuple first, e.g. for n = 4:
    (4,), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    bound = n if max_length is None else max_length
    if bound < 0:
        raise ValueError("max_length must be nonnegative")
    return tuple(sorted(_generate(n, n, bound), key=lambda p: (len(p), tuple(-x for x in p))))


def _generate(n, largest, length_bound):
    if n == 0:
        yield ()
        return
    if length_bound == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _generate(n - first, first, length_bound - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def unions(m, n):
    """The multiset unions of P(m) and P(n) as (index, ways) pairs, row s, entry t.

    Rows follow P(m) and entries P(n) in canonical order; index is the
    place of s + t in P(m + n), and ways = prod over values v of
    C(c_v(s) + c_v(t), c_v(s)), the labeled choices of positions of the
    union that take s.
    """
    index = {p: i for i, p in enumerate(enumerate_partitions(m + n))}
    return tuple(tuple((index[tuple(sorted(s + t, reverse=True))],
                        prod(comb(s.count(v) + t.count(v), s.count(v)) for v in set(s)))
                       for t in enumerate_partitions(n))
                 for s in enumerate_partitions(m))


def enumerate_set_partitions(indices):
    """All set partitions of the given collection, canonically sorted."""
    indices = tuple(sorted(indices))
    if len(set(indices)) != len(indices):
        raise ValueError("set partition ground set has repeated elements")
    return tuple(_canonical_partitions(indices, {}))


def _canonical_partitions(indices, shared):
    # in sorted order: each block of the least index, smallest first, then
    # the partitions of what it leaves; equal blocks share one tuple
    if not indices:
        yield ()
        return
    head, rest = indices[0], indices[1:]
    for block in sorted((head,) + c for r in range(len(rest) + 1) for c in combinations(rest, r)):
        block = shared.setdefault(block, block)
        left = tuple(i for i in rest if i not in block)
        for tail in _canonical_partitions(left, shared):
            yield (block,) + tail


def enumerate_refining_functions(target, source):
    """All maps phi from source indices to target indices with matching block sums.

    Both arguments are read as indexed sequences of positive ints; the
    result is a tuple of tuples ``phi`` with ``phi[j]`` the target index
    receiving source part ``j``.  Empty when no refinement exists.
    """
    target = tuple(target)
    source = tuple(source)
    if sum(target) != sum(source):
        return ()
    # equal totals and nonnegative slack mean a complete assignment drains
    # every target exactly, so no final check is needed
    remaining = list(target)
    phi = [0] * len(source)
    out = []

    def assign(j):
        if j == len(source):
            out.append(tuple(phi))
            return
        for i in range(len(target)):
            if remaining[i] >= source[j]:
                remaining[i] -= source[j]
                phi[j] = i
                assign(j + 1)
                remaining[i] += source[j]

    assign(0)
    return tuple(out)


def set_partition_totals(classes, slots, factor, caps=None):
    """Weighted sum over the set partitions of a multiset, by block count.

    The parts of the partitions in ``classes`` form the multiset; parts
    are told apart by position, so equal parts still give distinct set
    partitions.  ``slots(block)`` and ``factor(block)`` map the partition
    of a block's values to its slot count and its factor.  The result
    maps (k, a) to the sum, over the set partitions into k blocks whose
    slots add up to a, of the product of the block factors times the
    multinomial coefficient of a over the block slots.  ``caps`` gives
    per class the most parts of that class one block may hold, None for
    no limit.  ``slots`` and ``factor`` must be hashable, since they key
    the memo.  A multiset whose work exceeds ``MAX_WORK`` raises
    ValueError before any factor is computed.
    """
    classes = tuple(partition(c) for c in classes)
    caps = (None,) * len(classes) if caps is None else tuple(caps)
    if len(caps) != len(classes):
        raise ValueError("need one cap per class")
    kinds = _kinds(classes)
    work = _kinds_work(kinds, slots)
    if work > MAX_WORK:
        raise ValueError("set partition sum too large: work %d exceeds %d" % (work, MAX_WORK))
    return dict(_free(slots, factor, caps, kinds))  # the memo keeps its own


def set_partition_work(classes, slots):
    """The work ``set_partition_totals`` takes on ``classes``, as ``MAX_WORK`` counts it."""
    return _kinds_work(_kinds(classes), slots)


def _kinds_work(kinds, slots):
    steps = (sum(c for _, _, c in kinds) + 1) * prod(comb(c + 2, 2) for _, _, c in kinds)
    return steps * _step_work(sum(c * slots((value,)) for _, value, c in kinds))


def _step_work(a):
    # one kernel step on a multiset of a slots: a product of b-bit integers,
    # b = a * a.bit_length(), plus a fixed cost
    return (a * a.bit_length()) ** 2 + 2 ** 22


def shared_work(multisets, slots, cap=inf):
    """The work of ``set_partition_totals`` on multisets sharing its memo, one class each.

    ``multisets`` are partitions.  The memo's states are multiplicity
    vectors: each multiset c, and every sub-multiset of c less one part
    of its largest value, since each step of the kernel takes a block
    holding that part.  One walk lists every distinct state once,
    computing no factor, and sums the work of each: its picks
    c_1 * prod_(i > 1) (c_i + 1) of the parts joining the first part's
    block, times its parts n + 1, times the step cost b**2 + 2**22 of
    its slots, as ``set_partition_work`` counts a whole multiset.  The
    walk stops once the sum passes ``cap`` and returns the sum so far;
    every state adds at least 2**23, so it lists at most about
    cap / 2**23 states below the multisets themselves.
    """
    tops = {tuple((v, len(list(run))) for v, run in groupby(parts)) for parts in multisets} - {()}
    unit = {v: slots((v,)) for top in tops for v, _ in top}

    def work(state):
        picks, steps, a = state[0][1], 1, 0
        for v, c in state:
            picks, steps, a = picks * (c + 1), steps + c, a + c * unit[v]
        return picks // (state[0][1] + 1) * steps * _step_work(a)

    total = sum(map(work, tops))
    todo = [((v, c - 1),) * (c > 1) + top[1:] for top in tops for v, c in top[:1]]
    seen = set()
    while todo and total <= cap:
        state = todo.pop()
        if state and state not in seen:
            seen.add(state)
            if state not in tops:
                total += work(state)
            todo += [state[:i] + ((v, c - 1),) * (c > 1) + state[i + 1:]
                     for i, (v, c) in enumerate(state)]
    return total


@lru_cache(maxsize=None)
def _free(slots, factor, caps, kinds):
    if not kinds:
        return {(0, 0): 1}
    totals = {}
    for block, ways, left in _blocks(kinds, caps):
        fill, scale = slots(block), ways * factor(block)
        for (k, a), inner in _free(slots, factor, caps, left).items():
            key = (k + 1, a + fill)
            totals[key] = totals.get(key, 0) + scale * comb(a + fill, fill) * inner
    return totals


def _kinds(classes):
    # the multiset as (class, value, multiplicity) triples, larger values first
    return tuple(
        (cls, v, parts.count(v))
        for cls, parts in enumerate(classes)
        for v in sorted(set(parts), reverse=True)
    )


def _blocks(kinds, caps):
    """Each block holding one part of the first kind, as (values, ways, kinds left).

    The block takes any pick of the other parts, at most ``caps[c]`` of
    class c (None for no limit); values is the partition of its parts,
    ways the labeled choices of the pick.
    """
    (cls, value, count), others = kinds[0], kinds[1:]
    rest = ((cls, value, count - 1),) + others  # what may join the block's first part
    room = [inf if c is None else c for c in caps]
    room[cls] -= 1

    def walk(i, values, ways, left):
        if i == len(rest):
            yield tuple(sorted(values, reverse=True)), ways, left
            return
        k, v, n = rest[i]
        for c in range(min(n, room[k]) + 1):
            room[k] -= c
            yield from walk(i + 1, values + (v,) * c, ways * comb(n, c),
                            left + ((k, v, n - c),) * (n > c))
            room[k] += c

    return walk(0, (value,), 1, ())


def merge_sum(parts, weight, value):
    """Sum of ``value`` at each coarsening of ``parts`` times its ``coarsenings`` weight.

    ``value`` is called once per distinct coarsening.  The mu reassembly
    and the phi transforms share this sum.
    """
    return sum(w * value(m) for m, w in coarsenings(partition(parts), weight))


@lru_cache(maxsize=None)
def coarsenings(parts, weight):
    """The (coarsening, weight) pairs summed over the set partitions of ``parts``.

    A set partition adds the product of ``weight`` over its blocks, each
    given by its values, to the partition of its block sums.  The block of
    one largest part takes any pick of the rest, from ``_blocks``.
    """
    if not parts:
        return (((), 1),)
    totals = {}
    for block, ways, left in _blocks(_kinds((parts,)), (None,)):
        scale, rest = ways * weight(block), tuple(v for _, v, n in left for _ in range(n))
        for merged, w in coarsenings(rest, weight):
            key = partition(merged + (sum(block),))
            totals[key] = totals.get(key, 0) + scale * w
    return tuple(totals.items())


def merge_sign(block):
    """The inclusion-exclusion weight (-1)^(|B|-1) of a merged block."""
    return -1 if len(block) % 2 == 0 else 1


def automorphism_count(lam):
    """Product of factorials of the part multiplicities of ``lam``."""
    lam = partition(lam)
    count = 1
    for v in set(lam):
        count *= factorial(lam.count(v))
    return count
