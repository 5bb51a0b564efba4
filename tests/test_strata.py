import hashlib
from heapq import heapify, heappop, heappush
from itertools import product

import pytest

from soclerank.partitions import enumerate_partitions, partition
from soclerank.strata import (
    DecoratedTree,
    _genus_assignments,
    _min_genus,
    build_housing_tree,
    enumerate_boundary_generators,
    enumerate_pure_housing_partitions,
    housing_data,
    is_housing_partition,
    tree_degree_multisets,
)


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


def _fold_data(g, d, budgets):
    # the shape walk the criterion search replaced, the reference for it:
    # every degree multiset and genus assignment of each budget k of
    # decorations, with the decorations of each distinct shape folded once
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


def enumerate_labeled_trees(n):
    """Edge sets of all labeled trees on n vertices, via Pruefer sequences."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return ((),)
    if n == 2:
        return (((0, 1),),)
    return tuple(
        _prufer_decode(seq, n) for seq in product(range(n), repeat=n - 2)
    )


def _prufer_decode(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    a, b = heappop(leaves), heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return tuple(edges)


def _labeled_valences(v):
    # the valence sequences of the labeled trees, each once
    valences = set()
    for edges in enumerate_labeled_trees(v):
        valence = [0] * v
        for a, b in edges:
            valence[a] += 1
            valence[b] += 1
        valences.add(tuple(valence))
    return valences


def _genus_compositions(valences, g):
    # every stable genus tuple of total g along the valences, with no
    # tie-breaking between equal valences
    if not valences:
        return [()] if g == 0 else []
    return [(head,) + rest
            for head in range(_min_genus(valences[0]), g + 1)
            for rest in _genus_compositions(valences[1:], g - head)]


def boundary_generators_via_labeled_trees(g, d):
    """Slow cross-check: the reduced boundary data from labeled trees.

    Walks the valence sequences of Pruefer-coded labeled trees with
    every genus composition, folding the decorations of each with
    ``_fold``; must agree with enumerate_boundary_generators.
    """
    found = set()
    for k in range(0, 2 * g - 3 - d):
        for valences in _labeled_valences(2 * g - 2 - d - k):
            for genera in _genus_compositions(valences, g):
                dims = [2 * gv - 3 + nv for gv, nv in zip(genera, valences)]
                found |= _fold(tuple(sorted((m, min(n, m))
                                            for m, n in zip(dims, valences) if m)), k)
    return tuple(sorted(found))


def test_tree_validation():
    DecoratedTree((2,))
    DecoratedTree((1, 1), ((0, 1),))
    with pytest.raises(ValueError):
        DecoratedTree((1, 1))  # two vertices, no edge
    with pytest.raises(ValueError):
        DecoratedTree((1, 1, 1), ((0, 1), (0, 1)))  # vertex 2 unreachable
    with pytest.raises(ValueError):
        DecoratedTree((2, 2), ((0, 0),))
    with pytest.raises(ValueError):
        DecoratedTree((0,))  # isolated vertex needs genus 2
    with pytest.raises(ValueError):
        DecoratedTree((1, 0), ((0, 1),))  # leaf needs genus 1


def test_tree_normalization():
    tree = DecoratedTree((1, 1), ((1, 0),))
    assert tree.edges == ((0, 1),)
    assert tree.genus == 2
    assert tree.valence(0) == 1


def test_housing_data_examples():
    assert housing_data(DecoratedTree((3,))) == (3,)
    assert housing_data(DecoratedTree((2, 1), ((0, 1),))) == (2,)
    chain = DecoratedTree((1, 1, 1), ((0, 1), (1, 2)))
    assert housing_data(chain) == (1,)


def test_is_housing_partition_examples():
    assert is_housing_partition((2, 2), 4, 4)
    assert not is_housing_partition((3, 1), 4, 4)
    assert not is_housing_partition((1, 1, 1, 1), 5, 4)
    assert is_housing_partition((4,), 5, 4)
    assert is_housing_partition((), 2, 0)
    with pytest.raises(ValueError):
        is_housing_partition((2, 1), 4, 4)  # size 3 != 4


def test_build_housing_tree_round_trip():
    for g in range(2, 7):
        for d in range(0, 2 * g - 3):
            for sigma in enumerate_partitions(d):
                if not is_housing_partition(sigma, g, d):
                    continue
                tree = build_housing_tree(sigma, g, d)
                assert tree.genus == g
                assert housing_data(tree) == sigma
    with pytest.raises(ValueError):
        build_housing_tree((3, 1), 4, 4)


def test_labeled_tree_counts():
    assert enumerate_labeled_trees(1) == ((),)
    assert enumerate_labeled_trees(2) == (((0, 1),),)
    for n in range(3, 8):
        trees = enumerate_labeled_trees(n)
        assert len(trees) == n ** (n - 2)
        assert len(set(trees)) == len(trees)


def test_labeled_trees_are_trees():
    # genus 2 everywhere keeps every valence stable, so the tree
    # validator only checks the edge structure
    for n in range(1, 7):
        for edges in enumerate_labeled_trees(n):
            DecoratedTree((2,) * n, edges)


def test_degree_multisets_match_labeled_trees():
    assert tree_degree_multisets(1) == ((0,),)
    for v in range(2, 8):
        from_trees = set()
        for edges in enumerate_labeled_trees(v):
            degree = [0] * v
            for a, b in edges:
                degree[a] += 1
                degree[b] += 1
            from_trees.add(partition(degree))
        assert from_trees == set(tree_degree_multisets(v))


def test_pure_enumeration_matches_predicate():
    for g in range(2, 6):
        for d in range(0, 2 * g - 3):
            expected = {
                sigma
                for sigma in enumerate_partitions(d)
                if is_housing_partition(sigma, g, d)
            }
            assert enumerate_pure_housing_partitions(g, d) == expected


def test_pure_enumeration_single_vertex_corner():
    # at d = 2g-3 the only stratum is the interior one; the housing
    # predicate deliberately excludes it (it has no even entries)
    assert enumerate_pure_housing_partitions(3, 3) == frozenset({(3,)})
    assert not is_housing_partition((3,), 3, 3)


def test_boundary_generator_examples():
    assert enumerate_boundary_generators(2, 0) == ((),)
    assert enumerate_boundary_generators(3, 2) == (((2, (), ()),),)


def test_boundary_generators_match_labeled_tree_route():
    for g in range(2, 5):
        for d in range(0, 2 * g - 2):
            fast = enumerate_boundary_generators(g, d)
            slow = boundary_generators_via_labeled_trees(g, d)
            assert fast == slow


def _product_walk(g, d, budgets):
    # slow reference: every decorated stratum of each degree multiset and
    # genus assignment, listed one by one and reduced, then deduplicated
    found = set()
    for k in budgets:
        for degrees in tree_degree_multisets(2 * g - 2 - d - k):
            for genera in _genus_assignments(degrees, g):
                dims = [2 * gv - 3 + nv for gv, nv in zip(genera, degrees)]
                for decor in _decoration_assignments(dims, degrees, k):
                    found.add(_reduce(dims, decor))
    return found


def _reduce(dims, decor):
    triples = []
    for dim, (kap, psi) in zip(dims, decor):
        remainder = dim - sum(kap) - sum(psi)
        if remainder:
            triples.append((remainder, kap, psi))
    return tuple(sorted(triples, reverse=True))


def _decoration_assignments(dims, degrees, k):
    # a (kappa, psi) pair per vertex, sizes adding up to k, at most the
    # vertex dimension each, psi no longer than the valence
    n = len(dims)

    def rec(i, remaining, acc):
        if i == n:
            if remaining == 0:
                yield tuple(acc)
            return
        room = min(remaining, dims[i])
        for a in range(room + 1):
            for b in range(room - a + 1):
                for kap in enumerate_partitions(a):
                    for psi in enumerate_partitions(b, degrees[i]):
                        acc.append((kap, psi))
                        yield from rec(i + 1, remaining - a - b, acc)
                        acc.pop()

    yield from rec(0, k, [])


def test_fold_matches_product_walk():
    for g in range(2, 8):
        for d in range(0, 2 * g - 2):
            slow = _product_walk(g, d, range(0, 2 * g - 3 - d))
            assert _fold_data(g, d, range(0, 2 * g - 3 - d)) == slow
            pure = {partition(m for m, _, _ in data)
                    for data in _product_walk(g, d, (0,))}
            assert enumerate_pure_housing_partitions(g, d) == pure


def test_criterion_search_matches_fold():
    # ordered tuples: the search lists each datum of the fold once, and
    # in ascending order, on every cell to genus 9
    for g in range(2, 10):
        for d in range(0, 2 * g - 2):
            fold = _fold_data(g, d, range(0, 2 * g - 3 - d))
            assert enumerate_boundary_generators(g, d) == tuple(sorted(fold))


# (count, sha256 of repr) of enumerate_boundary_generators(8, d), recorded
# from the product walk; the g <= 7 reference above cannot reach genus 8
GENUS_8_GENERATORS = {
    0: (1, "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8"),
    1: (1088, "68b400d7f287ec01c2839c9d442859d83888e5af69de21482f54823c0150c5d9"),
    2: (4644, "12c5bcb2f32d0ba31d48641e406ab384c6406cd7ea90af1675e9eef67f6f5a47"),
    3: (7046, "a3490c92060579ff495423b6578ebc495354dc62aa1e47e8ff4ca0938c1de148"),
    4: (6967, "beafba8939fe31f73ba8f8ac646919c3f2769a8da29110fa4ac58bacd02db659"),
    5: (5316, "cfd3c11972a14ad831afdbd2c46ef4fe877caa2728c9f2c1f960d42492348b72"),
    6: (3325, "fff6458c5823016b2bf4155d15cbab7b15836ec4369599bc4b844d9be489e1d5"),
    7: (1766, "56d76473dbbbed261fa34044f25a730909cdd861e73e4cd0d87fd6e011d46c51"),
    8: (800, "58385267ac1573535ebe5d9b5b75b1e64776ae255e094619f1bd8a739c40e273"),
    9: (309, "38fb5e2be503172bfaf7b411f32d631f32908167907b346051d5e9b83a652a45"),
    10: (99, "e320dbed0fd69882bf3d3a8895288323ea4288cdeaae0fbcee311a8f63ddcac9"),
    11: (24, "e4ea38c72c671ae0579ad8dbdc66a2aa7670c63712270b23ec4d79a0dff73ec8"),
    12: (4, "b690cba7375c7b22132b1a2ee1cecc73b5a30616a55ffd4ecd3ce6385ef4a857"),
    13: (0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
}


def test_genus_8_generators_pinned():
    for d, (count, digest) in GENUS_8_GENERATORS.items():
        gens = enumerate_boundary_generators(8, d)
        assert len(gens) == count
        assert hashlib.sha256(repr(gens).encode()).hexdigest() == digest


def test_boundary_generator_shape():
    for g in range(2, 6):
        for d in range(0, 2 * g - 3):
            for datum in enumerate_boundary_generators(g, d):
                assert datum == tuple(sorted(datum, reverse=True))
                assert sum(t[0] for t in datum) == d
                decorations = 0
                for remainder, kap, psi in datum:
                    assert remainder > 0
                    assert kap == partition(kap) and psi == partition(psi)
                    decorations += sum(kap) + sum(psi)
                assert len(datum) <= 2 * g - 2 - d - decorations


def test_argument_validation():
    with pytest.raises(ValueError):
        enumerate_boundary_generators(1, 0)
    with pytest.raises(ValueError):
        enumerate_boundary_generators(3, 4)
    with pytest.raises(ValueError):
        enumerate_labeled_trees(0)
    with pytest.raises(ValueError):
        tree_degree_multisets(0)
