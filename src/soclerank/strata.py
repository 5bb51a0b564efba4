"""Compact-type boundary strata as decorated stable trees.

A stratum is a stable tree whose vertices carry genera (a
``DecoratedTree``), optionally decorated with a kappa-exponent partition
and a psi-exponent partition per vertex.  Its pairing row against the
kappa-monomial basis depends only on the multiset of per-vertex data
(socle remainder, kappa decoration, psi decoration) after dropping
vertices whose socle remainder is zero; that multiset is the reduced
boundary data, and it is the only form in which kappa and psi
decorations exist here.

Because the pairing row never sees the edge structure, the enumeration
runs over vertex-degree multisets (partitions of 2(v-1) into v positive
parts) and their genus assignments, and reduces the decorations of each
such shape in one deduplicating fold over its vertices instead of
listing them.
"""

from dataclasses import dataclass
from itertools import product

from .partitions import enumerate_partitions, partition
from .socle import complementary_degree


def _min_genus(valence):
    # stability 2g - 2 + n > 0 at a vertex of valence n
    if valence == 0:
        return 2
    if valence <= 2:
        return 1
    return 0


@dataclass(frozen=True)
class DecoratedTree:
    """A stable tree with per-vertex genus."""

    genera: tuple
    edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "genera", tuple(self.genera))
        object.__setattr__(
            self, "edges", tuple((min(a, b), max(a, b)) for a, b in self.edges)
        )
        if any(g < 0 for g in self.genera):
            raise ValueError("vertex genera must be nonnegative")
        self._check_tree()
        for v in range(len(self.genera)):
            if self.genera[v] < _min_genus(self.valence(v)):
                raise ValueError("vertex %d violates stability" % v)

    def _check_tree(self):
        n = len(self.genera)
        if len(self.edges) != n - 1:
            raise ValueError("a tree on %d vertices needs %d edges" % (n, n - 1))
        reached = {0}
        frontier = [0]
        adjacency = {v: [] for v in range(n)}
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError("bad edge (%d, %d)" % (a, b))
            adjacency[a].append(b)
            adjacency[b].append(a)
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) != n:
            raise ValueError("edge set is not connected")

    def valence(self, v):
        return sum(1 for a, b in self.edges if v in (a, b))

    @property
    def genus(self):
        return sum(self.genera)


def housing_data(tree):
    """Partition of per-vertex socle dimensions 2g(v)-3+n(v), zeros dropped."""
    dims = [
        2 * tree.genera[v] - 3 + tree.valence(v) for v in range(len(tree.genera))
    ]
    return partition(x for x in dims if x > 0)


def is_housing_partition(sigma, g, d):
    """Whether sigma occurs as the housing data of a pure boundary stratum."""
    sigma = partition(sigma)
    if sum(sigma) != d:
        raise ValueError("sigma has size %d, expected %d" % (sum(sigma), d))
    bound = 2 * g - 2 - d
    if len(sigma) < bound:
        return True
    return len(sigma) == bound and sum(1 for p in sigma if p % 2 == 0) >= 2


def build_housing_tree(sigma, g, d):
    """A stable undecorated tree whose housing data is ``sigma``.

    Constructive witness: pad sigma with zeros to length 2g-2-d; with
    2k+2 even entries, take a path of 2g-2-d-k vertices and hang k
    leaves on the path positions right after the first; even entries go
    to the odd-valence vertices, odd entries to the rest, and the genus
    at a vertex of valence n holding entry t is (t+3-n)/2.
    """
    sigma = partition(sigma)
    if not is_housing_partition(sigma, g, d):
        raise ValueError("%r is not a housing partition for g=%d, d=%d" % (sigma, g, d))
    m = 2 * g - 2 - d
    padded = list(sigma) + [0] * (m - len(sigma))
    evens = sorted((t for t in padded if t % 2 == 0), reverse=True)
    odds = sorted((t for t in padded if t % 2 == 1), reverse=True)
    k = len(evens) // 2 - 1
    path_len = m - k
    edges = [(i, i + 1) for i in range(path_len - 1)]
    edges += [(1 + t, path_len + t) for t in range(k)]
    valence = [0] * m
    for a, b in edges:
        valence[a] += 1
        valence[b] += 1
    odd_vertices = [v for v in range(m) if valence[v] % 2 == 1]
    even_vertices = [v for v in range(m) if valence[v] % 2 == 0]
    entry = dict(zip(odd_vertices, evens)) | dict(zip(even_vertices, odds))
    genera = tuple((entry[v] + 3 - valence[v]) // 2 for v in range(m))
    return DecoratedTree(genera, tuple(edges))


def tree_degree_multisets(v):
    """Degree multisets of trees on v vertices, weakly decreasing.

    For v >= 2 these are exactly the partitions of 2(v-1) with v parts,
    every one of which is realized by some tree.
    """
    if v < 1:
        raise ValueError("need at least one vertex")
    if v == 1:
        return ((0,),)
    return tuple(
        tuple(p + 1 for p in pad) + (1,) * (v - len(pad))
        for pad in enumerate_partitions(v - 2, v)
    )


def _genus_assignments(degrees, g):
    """Genus tuples along a weakly decreasing degree sequence.

    Stability per vertex, total genus g.  Within a run of equal degrees
    the genera are forced weakly decreasing to skip permuted repeats.
    """
    n = len(degrees)
    min_tail = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        min_tail[i] = min_tail[i + 1] + _min_genus(degrees[i])
    out = []

    def rec(i, remaining, acc):
        if i == n:
            if remaining == 0:
                out.append(tuple(acc))
            return
        lo = _min_genus(degrees[i])
        hi = remaining - min_tail[i + 1]
        if i > 0 and degrees[i] == degrees[i - 1]:
            hi = min(hi, acc[-1])
        for gi in range(lo, hi + 1):
            acc.append(gi)
            rec(i + 1, remaining - gi, acc)
            acc.pop()

    rec(0, g, [])
    return tuple(out)


def enumerate_pure_housing_partitions(g, d):
    """Housing data of every pure boundary stratum of genus g in degree d.

    The undecorated slice of the stratum walk, projected to the socle
    remainders.  The vertex count is 2g-2-d; when that is 1 (d = 2g-3)
    the single undecorated vertex itself is the only stratum.
    """
    return frozenset(partition(m for m, _, _ in data)
                     for data in reduced_data(g, d, (0,)))


def enumerate_boundary_generators(g, d):
    """Reduced boundary data of every decorated boundary stratum.

    Decoration budget k runs over 0..2g-4-d so that at least one edge
    remains; a vertex of socle dimension m may carry kappa and psi
    partitions of total size at most m, psi length bounded by the
    valence.  Vertices with remainder zero are dropped: they only scale
    the row by their theta value, a positive word count, which leaves
    the row span unchanged.
    Output is deduplicated and canonically sorted.
    """
    return tuple(sorted(reduced_data(g, d, range(0, 2 * g - 3 - d))))


def reduced_data(g, d, budgets):
    """Reduced data of the strata with k decorations, for each k in ``budgets``.

    Returns a set of data, each a tuple of nonzero (remainder, kappa,
    psi) triples in descending order, the format ``coeffs.stratum_row``
    takes.  A stratum with k decorations has 2g-2-d-k vertices; each of their
    degree multisets gets every stable genus assignment, whose
    decorations of total size k ``_fold`` reduces.
    Only the (dimension, min(valence, dimension)) pairs of the
    positive-dimension vertices reach ``_fold``, so each distinct sorted
    tuple of them is folded once per k.
    """
    complementary_degree(g, d)
    found = set()
    folded = set()
    for k in budgets:
        for degrees in tree_degree_multisets(2 * g - 2 - d - k):
            for genera in _genus_assignments(degrees, g):
                dims = [2 * gv - 3 + nv for gv, nv in zip(genera, degrees)]
                key = (tuple(sorted((m, min(n, m)) for m, n in zip(dims, degrees) if m)), k)
                if key not in folded:
                    folded.add(key)
                    found |= _fold(*key)
    return found


def _fold(vertices, k):
    """Reduced data of the decorations of total size k on one shape.

    ``vertices`` are the sorted (dimension, psi length bound) pairs of
    the positive-dimension vertices.  A state is (sorted nonzero
    (remainder, kappa, psi) triples, decorations left); each vertex,
    smallest first, tries every (kappa, psi) that fits.  Equal states
    merge, and a state is dropped once the later vertices cannot absorb
    what it has left.
    """
    room = sum(dim for dim, _ in vertices)
    states = {((), k)}
    for dim, valence in vertices:
        room -= dim
        step = set()
        for triples, left in states:
            top = min(dim, left)
            for a in range(top + 1):
                for b in range(max(0, left - a - room), top - a + 1):
                    for kap, psi in product(enumerate_partitions(a),
                                            enumerate_partitions(b, valence)):
                        new = ((dim - a - b, kap, psi),) if dim > a + b else ()
                        step.add((tuple(sorted(triples + new, reverse=True)),
                                  left - a - b))
        states = step
    return {triples for triples, left in states if not left}
