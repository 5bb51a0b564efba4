"""Compact-type boundary strata as decorated stable trees.

A stratum is a stable tree whose vertices carry genera (a
``DecoratedTree``), optionally decorated with a kappa-exponent partition
and a psi-exponent partition per vertex.  Its pairing row against the
kappa-monomial basis depends only on the multiset of per-vertex data
(socle remainder, kappa decoration, psi decoration) after dropping
vertices whose socle remainder is zero; that multiset is the reduced
boundary data, and it is the only form in which kappa and psi
decorations exist here.

A closed criterion on the triples picks out the reduced data, and one
depth-first search lists them, each once and in ascending order
(``reduced_data``).  The pure strata are still listed from the trees,
by degree multisets and genus assignments, so that they check the
criterion instead of repeating it.
"""

from collections import namedtuple

from .partitions import enumerate_partitions, partition
from .socle import complementary_degree


def _min_genus(valence):
    # stability 2g - 2 + n > 0 at a vertex of valence n
    return 2 if valence == 0 else 1 if valence <= 2 else 0


class DecoratedTree(namedtuple("DecoratedTree", "genera edges")):
    """A stable tree with per-vertex genus."""

    __slots__ = ()

    def __new__(cls, genera, edges=()):
        self = super().__new__(cls, tuple(genera), tuple((min(a, b), max(a, b)) for a, b in edges))
        if any(g < 0 for g in self.genera):
            raise ValueError("vertex genera must be nonnegative")
        self._check_tree()
        for v in range(len(self.genera)):
            if self.genera[v] < _min_genus(self.valence(v)):
                raise ValueError("vertex %d violates stability" % v)
        return self

    def _check_tree(self):
        n = len(self.genera)
        if len(self.edges) != n - 1:
            raise ValueError("a tree on %d vertices needs %d edges" % (n, n - 1))
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError("bad edge (%d, %d)" % (a, b))
        reached = {0}
        for _ in self.edges:  # each pass reaches a new vertex until the component is done
            reached |= {v for edge in self.edges if reached.intersection(edge) for v in edge}
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
    return _houses(sigma, 2 * g - 2 - d)


def _houses(sigma, room):
    # the housing criterion on a canonical sigma of P(d), room = 2g - 2 - d
    return len(sigma) < room or len(sigma) == room and sum(p % 2 == 0 for p in sigma) >= 2


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

    Listed from the trees on 2g-2-d vertices, not by ``reduced_data``;
    at d = 2g-3 the single undecorated vertex is the only stratum.
    """
    complementary_degree(g, d)
    return frozenset(
        partition(x for x in (2 * gv - 3 + nv for gv, nv in zip(genera, degrees)) if x)
        for degrees in tree_degree_multisets(2 * g - 2 - d)
        for genera in _genus_assignments(degrees, g))


def enumerate_boundary_generators(g, d):
    """Reduced boundary data of every decorated boundary stratum, ascending."""
    return tuple(reduced_data(g, d))


def reduced_data(g, d):
    """Iterator over the reduced data of the strata of (g, d), ascending.

    A datum is a tuple of nonzero (m, kappa, psi) triples, descending,
    with the m summing to d.  Let c = |kappa| + |psi| and lo be the least
    n >= max(1, len psi) with n = m + c + 1 (mod 2).  Triples form the
    datum of a stratum with an edge exactly when

        sum (1 + c) <= 2g-2-d   and   sum (lo - 1 + c) <= 2g-4-d.

    Proof.  On V vertices with k decorations the socle dimensions
    D = 2g(v) - 3 + n(v) sum to 2g - 2 - V = d + k.  A vertex with
    D = m + c has genus (D + 3 - n)/2, so its valence n has the parity of
    D + 1 and lies in [max(1, len psi), D + 3]; stability, D + 1 > 0,
    holds, and the genera sum to g once V + k = 2g-2-d.  By Pruefer
    codes, V >= 2 positive integers are the degrees of a tree when they
    sum to 2V - 2, which has the parity of sum (D + 1) and lies below
    sum (D + 3); so a tree exists exactly when sum lo <= 2V - 2, that is
    sum (lo - 1 + c) <= V + k - 2 = 2g-4-d, and then V >= 2.  Dropped
    vertices of remainder zero add at least 1 to sum (1 + c) = V + k and
    at least 0 to the other sum; undecorated ones (valence 1 or 3,
    lo = 1) add exactly that, so they absorb what the datum leaves of
    2g-2-d.  With c = 0 (lo = 1 for even m, 2 for odd) this is
    ``is_housing_partition``.

    The search picks triples in non-increasing order, each from the
    table of its remainder within what is left of both sums; it skips a
    remainder m once the ceil(left / m) triples still needed exceed what
    is left of the first sum.
    """
    complementary_degree(g, d)
    tables = {}  # (m, room, spare) -> _triples(m, room, spare)

    def search(path, left, room, spare):
        # the data extending path, whose last triple bounds the next ones
        top = path[-1] if path else (left + 1,)
        for m in range(-(-left // room), min(top[0], left) + 1):
            if (m, room, spare) not in tables:
                tables[m, room, spare] = _triples(m, room, spare)
            for triple, cost, excess in tables[m, room, spare]:
                if triple > top:
                    break
                if m == left:
                    yield path + (triple,)
                elif (room - cost) * m >= left - m:
                    yield from search(path + (triple,), left - m, room - cost, spare - excess)

    return search((), d, 2 * g - 2 - d, 2 * g - 4 - d) if d else iter(((),))


def _triples(m, room, spare):
    # the triples of remainder m within both sums, ascending, with their costs
    out = []
    for c in range(min(room - 1, spare) + 1):
        for a in range(c + 1):
            for kap in enumerate_partitions(a):
                for psi in enumerate_partitions(c - a):
                    lo = max(1, len(psi))
                    lo += (lo + m + c + 1) % 2
                    if lo - 1 + c <= spare:
                        out.append(((m, kap, psi), 1 + c, lo - 1 + c))
    return sorted(out)
