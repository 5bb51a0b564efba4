import random
from fractions import Fraction
from math import lcm

import pytest

from soclerank.partitions import enumerate_partitions
from soclerank.ranks import (
    PairingMatrix,
    betti_report,
    eta_matrix,
    exact_rank,
    full_matrix,
    housing_m_matrix,
    housing_rank_formula,
    kappa_row,
    pure_matrix,
    smooth_matrix,
    verify_housing_theorem,
    verify_length_restriction,
    verify_rank_theorem,
    verify_span_equality,
)


def _gauss_rank(rows):
    # independent rank oracle: plain Gaussian elimination over Fraction
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / lead
                for j in range(col, len(mat[0])):
                    mat[i][j] -= f * mat[rank][j]
        rank += 1
    return rank


def _integer_row(row):
    vals = [Fraction(x) for x in row]
    scale = lcm(*(v.denominator for v in vals)) if vals else 1
    return [int(v * scale) for v in vals]


def _bareiss_rank(m):
    """Rank over the rationals, by fraction-free elimination.

    Accepts a PairingMatrix or any sequence of rows of ints and
    Fractions.  Each row is scaled integral first (rank-safe), then
    reduced Bareiss style; pivots are the first nonzero entry in column
    order, so the result is deterministic.
    """
    rows = m.entries if isinstance(m, PairingMatrix) else m
    mat = [_integer_row(r) for r in rows]
    if not mat:
        return 0
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise ValueError("rows must all have the same length")
    rank = 0
    top = 0
    prev = 1
    for col in range(width):
        pivot = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[top], mat[pivot] = mat[pivot], mat[top]
        lead = mat[top][col]
        for i in range(top + 1, len(mat)):
            head = mat[i][col]
            for j in range(col + 1, width):
                q, rem = divmod(lead * mat[i][j] - head * mat[top][j], prev)
                if rem:
                    raise ArithmeticError("fraction-free step left a remainder")
                mat[i][j] = q
            mat[i][col] = 0
        prev = lead
        top += 1
        rank += 1
        if top == len(mat):
            break
    return rank


def _random_matrix(rng, n, m):
    # about half the draws are a product of an n x k and a k x m factor,
    # so rank deficiency is common
    if rng.random() < 0.5:
        return [[rng.randrange(-5, 6) for _ in range(m)] for _ in range(n)]
    k = rng.randrange(0, min(n, m) + 1)
    left = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(n)]
    right = [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(k)]
    return [
        [sum(row[i] * right[i][j] for i in range(k)) for j in range(m)] for row in left
    ]


def test_exact_rank_examples():
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert exact_rank(identity) == 4
    assert exact_rank([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == 1
    assert exact_rank([[1, 5], [0, 2]]) == 2
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[], []]) == 0
    assert exact_rank(PairingMatrix(((2,), (1, 1)), 2, ((1, 5), (2, 10)))) == 1


def test_exact_rank_rejects_bad_rows():
    bad_rows = ([1, 2, 3], [Fraction(1, 2), 1], [True, 0], [1, 2.0])
    for bad in bad_rows:
        with pytest.raises(ValueError):
            exact_rank([[1, 0], bad])
        # also once the rank already equals the width
        with pytest.raises(ValueError):
            exact_rank([[1, 0], [0, 1], bad])
        with pytest.raises(ValueError):
            exact_rank([bad, [1, 0], [0, 1]])


def test_exact_rank_matches_gauss_oracle():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randrange(1, 8)
        m = rng.randrange(1, 8)
        rows = _random_matrix(rng, n, m)
        expected = _gauss_rank(rows)
        assert exact_rank(rows) == expected
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert exact_rank(shuffled) == expected
        scaled = [[3 * x for x in row] for row in rows]
        assert exact_rank(scaled) == expected
        transposed = [list(col) for col in zip(*rows)]
        assert exact_rank(transposed) == expected
        duplicated = [row for row in rows for _ in range(2)]
        assert exact_rank(duplicated) == expected
        factors = [rng.choice((-7, -1, 2, 5)) for _ in rows]
        copies = rows + [[c * x for x in row] for c, row in zip(factors, rows)]
        rng.shuffle(copies)
        assert exact_rank(copies) == expected
        # rows past full rank: a spanning block first, more rows after
        extra = rows + _random_matrix(rng, m + 2, m)
        full = [[int(i == j) for j in range(m)] for i in range(m)] + extra
        assert exact_rank(full) == m == _gauss_rank(full)
        assert exact_rank(extra) == _gauss_rank(extra)


def _grid_matrices(max_g):
    # every pure, full, stacked, smooth and eta matrix the verifiers rank
    for g in range(2, max_g + 1):
        for d in range(0, 2 * g - 3):
            yield pure_matrix(g, d)
            yield full_matrix(g, d)
        for r in range(0, g - 1):
            d = 2 * g - 3 - r
            boundary = full_matrix(g, d)
            kappa_rows = tuple(kappa_row(tau, d).values for tau in enumerate_partitions(r))
            yield boundary
            yield tuple(boundary.entries) + kappa_rows
            eta = eta_matrix(g, r)
            short = smooth_matrix(g, r, max_length=r + 1)
            yield smooth_matrix(g, r)
            yield short
            yield eta
            yield tuple(eta.entries) + tuple(short.entries)


def test_exact_rank_matches_bareiss_on_grid():
    count = 0
    for matrix in _grid_matrices(7):
        assert exact_rank(matrix) == _bareiss_rank(matrix)
        count += 1
    assert count == 198


def test_pairing_matrix_validation():
    PairingMatrix(((2,), (1, 1)), 2, ((1, 5), (0, 1)))
    with pytest.raises(ValueError):
        PairingMatrix(((2,),), 2, ((1,),))
    with pytest.raises(ValueError):
        PairingMatrix(((2,),), 2, ((1, 5), (0, 1)))


def test_housing_rank_formula_examples():
    assert housing_rank_formula(3, 1) == 1
    assert housing_rank_formula(4, 3) == 2
    assert housing_rank_formula(5, 4) == 4
    with pytest.raises(ValueError):
        housing_rank_formula(3, 5)
    with pytest.raises(ValueError):
        housing_rank_formula(2, -1)


def test_verify_housing_examples():
    for g, d, expected in ((3, 1, 1), (4, 3, 2), (5, 4, 4)):
        report = verify_housing_theorem(g, d)
        assert report == {
            "rank_pure": expected,
            "rank_full": expected,
            "formula": expected,
            "ok": True,
        }
    with pytest.raises(ValueError):
        verify_housing_theorem(3, 3)


def test_verify_rank_examples():
    assert verify_rank_theorem(2, 0) == {
        "rank_stacked": 1,
        "rank_boundary": 0,
        "rank_smooth": 1,
        "ok": True,
    }
    assert verify_rank_theorem(3, 1) == {
        "rank_stacked": 2,
        "rank_boundary": 1,
        "rank_smooth": 1,
        "ok": True,
    }
    assert verify_rank_theorem(4, 1) == {
        "rank_stacked": 3,
        "rank_boundary": 2,
        "rank_smooth": 1,
        "ok": True,
    }
    with pytest.raises(ValueError):
        verify_rank_theorem(3, 2)


def test_rank_theorem_small_grid():
    for g in range(2, 5):
        for r in range(0, g - 1):
            assert verify_rank_theorem(g, r)["ok"]


def test_housing_rows_span_every_generator():
    # the unnormalized pure-basis rows at housing partitions have full
    # predicted rank and contain every boundary row in their span
    for g in range(2, 5):
        for d in range(0, 2 * g - 3):
            housing = housing_m_matrix(g, d)
            base_rank = exact_rank(housing)
            assert base_rank == housing_rank_formula(g, d)
            stacked = tuple(housing.entries) + tuple(full_matrix(g, d).entries)
            assert exact_rank(stacked) == base_rank


def test_pure_matrix_shape():
    m = pure_matrix(4, 2)
    assert m.degree == 2
    assert m.row_labels == tuple(sorted(m.row_labels))
    assert len(m.entries) == len(m.row_labels)


def test_kappa_row_values():
    row = kappa_row((1,), 2)
    assert row.values == (9, 61)
    assert kappa_row((), 1).values == (1,)


def test_smooth_and_eta_matrices():
    m = smooth_matrix(4, 1)
    assert m.row_labels == ((1,),)
    assert m.entries == ((512,),)
    e = eta_matrix(3, 1)
    assert e.row_labels == ((),)
    assert e.entries == ((16,),)


def test_span_and_length_small_grid():
    for g in range(2, 6):
        for r in range(0, g - 1):
            assert verify_span_equality(g, r)["ok"]
            assert verify_length_restriction(g, r)["ok"]


def test_betti_report_small():
    report = betti_report(3)
    assert report["g"] == 3
    assert report["status"] == "CONJECTURAL"
    assert report["rows"] == [
        {
            "e": 0,
            "d": 2,
            "ambient_rank": 2,
            "gamma_conjectural": 0,
            "delta_conjectural": 0,
            "kernel_conjectural": 0,
        },
        {
            "e": 1,
            "d": 3,
            "ambient_rank": 1,
            "gamma_conjectural": 0,
            "delta_conjectural": 0,
            "kernel_conjectural": 0,
        },
    ]
    with pytest.raises(ValueError):
        betti_report(1)


def test_betti_report_nonzero_gamma():
    rows = betti_report(8)["rows"]
    by_e = {row["e"]: row for row in rows}
    # 3e-g-1 = 0 at e=3, g=8: one allowed partition (the empty one)
    assert by_e[3]["gamma_conjectural"] == 1
    assert by_e[3]["kernel_conjectural"] == 1
    assert by_e[2]["gamma_conjectural"] == 0
