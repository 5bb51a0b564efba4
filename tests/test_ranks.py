import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from soclerank import coeffs
from soclerank.coeffs import m_form, stratum_row, v_form
from soclerank.exact import fz_count, partition_count
from soclerank.partitions import enumerate_partitions
from soclerank.ranks import (
    MAX_GENUS,
    _echelon,
    _supported,
    betti_report,
    boundary_span,
    eta_matrix,
    exact_rank,
    housing_rank_formula,
    smooth_matrix,
    verify_housing_theorem,
    verify_length_restriction,
    verify_rank_theorem,
    verify_span_equality,
)
from soclerank.strata import (
    _triples,
    enumerate_boundary_generators,
    enumerate_pure_housing_partitions,
    is_housing_partition,
    reduced_data,
)


def _pure_data(g, d):
    # the data of the pure strata, listed from the trees (none at d = 2g-3)
    return {tuple((m, (), ()) for m in sigma)
            for sigma in enumerate_pure_housing_partitions(g, d)} if d < 2 * g - 3 else set()


def boundary_rows(g, d):
    """Rows on P(d) of every reduced boundary generator of (g, d), in two lazy blocks.

    The reference for the support certificate of ``boundary_span``: the
    first block holds the pure strata, listed from the trees (none
    at d = 2g-3); the second, whose search runs only once it is
    advanced, builds the row of every other datum of ``reduced_data``.
    Rows come from ``coeffs.stratum_row`` as looked up at call time, so
    a patched row reaches them.
    """
    pure = _pure_data(g, d)
    decorated = (data for data in reduced_data(g, d) if data not in pure)
    return map(coeffs.stratum_row, pure), map(coeffs.stratum_row, decorated)


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


def _bareiss_rank(rows):
    """Rank over the rationals, by fraction-free elimination.

    Accepts any sequence of rows of ints and Fractions.  Each row is
    scaled integral first (rank-safe), then reduced Bareiss style;
    pivots are the first nonzero entry in column order, so the result
    is deterministic.
    """
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


def _echelon_rank(rows):
    """Rank over the rationals of int rows, by a row-by-row integer echelon.

    Each row is reduced against the kept rows, in the order those were
    kept, by row = lead*row - head*pivot, where lead is the pivot's
    entry at its leading column (its first nonzero one) and head is the
    row's entry there.  Each kept row is zero at the leading columns of
    all rows kept before it, so a nonzero remainder is independent of
    them: it is divided by the gcd of its entries and kept.
    """
    kept = []
    for row in rows:
        for col, pivot in kept:
            head = row[col]
            if head:
                lead = pivot[col]
                row = [lead * x - head * y for x, y in zip(row, pivot)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            div = gcd(*row)
            kept.append((col, [x // div for x in row]))
    return len(kept)


def _until_saturated(rows):
    # yields rows, and fails the test if advanced past the last one
    yield from rows
    raise AssertionError("advanced past the row that saturated the rank")


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
    assert exact_rank([[1, 2]], [[2, 4]], [[0, 1]]) == (1, 1, 2)
    assert exact_rank([], [], [[1, 2], [2, 4]]) == (0, 0, 1)
    assert exact_rank([], []) == (0, 0)


def test_exact_rank_rejects_bad_rows():
    bad_rows = ([1, 2, 3], [Fraction(1, 2), 1], [True, 0], [1, 2.0])
    for bad in bad_rows:
        with pytest.raises(ValueError):
            exact_rank([[1, 0], bad])
        with pytest.raises(ValueError):
            exact_rank([[1, 0], [2, 0], bad, [0, 1]])
        with pytest.raises(ValueError):
            exact_rank([bad, [1, 0], [0, 1]])


def test_exact_rank_stops_at_the_width():
    # once the rank equals the width no further row is consumed, so a bad
    # row or a failing generator past that point is never reached
    assert exact_rank(_until_saturated([[1, 0], [2, 0], [0, 3]])) == 2
    assert exact_rank(_until_saturated([[1, 1], [1, 1], [1, -1]]), [[1, 2, 3]]) == (2, 2)
    assert exact_rank([[0, 0]], _until_saturated([[0, 0], [1, 0], [0, 1]]),
                      _until_saturated([])) == (0, 2, 2)
    assert exact_rank(_until_saturated([[]])) == 0
    assert exact_rank(_until_saturated([[]]), [[1, 2], [Fraction(1, 2)]]) == (0, 0)


def test_echelon_continued_in_chunks_equals_one_call():
    # a continued echelon reads its pivots' sparse entries as it left them, so
    # rows fed in chunks keep the pivots of one call; the first two rows have
    # heads 6 and 4, so the second is scaled before its reduction
    rng = random.Random(34)
    saturated = 0
    for _ in range(300):
        n, m = rng.randrange(2, 10), rng.randrange(2, 6)
        rows = [[6, 1] + [0] * (m - 2), [4] + [rng.randrange(-6, 7) for _ in range(m - 1)]]
        rows += _random_matrix(rng, n - 2, m)
        whole = _echelon((), rows, m)
        assert len(whole) == _echelon_rank(rows)
        assert all(col == entries[0][0] and all(y for _, y in entries) for col, entries in whole)
        # the row at which one call reaches the width, if any
        full = next((i for i in range(len(rows)) if len(_echelon((), rows[:i + 1], m)) == m), None)
        kept, start = (), 0
        while start < len(rows):
            stop = start + rng.randrange(1, 4)
            if full is None or stop <= full:
                chunk = iter(rows[start:stop])
            elif start <= full:
                # a chunk reaching the width partway must not read past that row
                chunk = _until_saturated(rows[start:full + 1])
                saturated += stop > full + 1
            else:
                chunk = _until_saturated([])
            kept = _echelon(kept, chunk, m)
            start = stop
        assert kept == whole
    assert saturated


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
        assert exact_rank(_until_saturated(full[:m]), extra) == (m, m)


def test_exact_rank_blocks_match_gauss_on_prefixes():
    # the rank after each block is the rank of the stacked prefix
    rng = random.Random(202)
    for _ in range(200):
        m = rng.randrange(1, 7)
        blocks = [_random_matrix(rng, rng.randrange(0, 6), m) for _ in range(3)]
        if rng.random() < 0.2:
            blocks[0] = []
        expected = tuple(_gauss_rank(sum(blocks[:i], [])) for i in (1, 2, 3))
        assert exact_rank(*blocks) == expected
        assert exact_rank(*blocks[:2]) == expected[:2]
        assert exact_rank(blocks[0]) == expected[0]
    # a bad row in a later block, before the rank reached the width
    for bad in ([1, 2, 3], [1], [Fraction(1, 2), 1], [True, 0], [1, 2.0]):
        with pytest.raises(ValueError):
            exact_rank([[1, 0]], [[3, 0]], [bad])
        with pytest.raises(ValueError):
            exact_rank([], [[0, 1]], [[0, 2], bad])


def _grid_blocks(max_g):
    # every nested row-block sequence the verifiers rank, materialized:
    # pure, then decorated boundary rows (then kappa rows in the rank
    # cells); smooth; short smooth; eta, then short smooth
    for g in range(2, max_g + 1):
        for d in range(0, 2 * g - 3):
            yield tuple(map(list, boundary_rows(g, d)))
        for r in range(0, g - 1):
            d = 2 * g - 3 - r
            kappa = [stratum_row(((d, tau, ()),)) for tau in enumerate_partitions(r)]
            short = smooth_matrix(g, r, max_length=r + 1)
            yield tuple(map(list, boundary_rows(g, d))) + (kappa,)
            yield (smooth_matrix(g, r),)
            yield (short,)
            yield (eta_matrix(g, r), short)


def test_exact_rank_matches_bareiss_on_grid():
    # each block prefix is one matrix: its rank from the block form, from
    # the one-block form and from the Bareiss reference agree
    count = 0
    for blocks in _grid_blocks(7):
        ranks = exact_rank(*blocks)
        ranks = ranks if len(blocks) > 1 else (ranks,)
        rows = []
        for block, rank in zip(blocks, ranks):
            rows += block
            assert rank == exact_rank(rows) == _bareiss_rank(rows)
            count += 1
    assert count == 219


def test_exact_rank_matches_references_on_full_boundary_matrices():
    # every g <= 8 boundary matrix, built whole: in canonical generator
    # order and pure strata first, the rank equals the reference echelon
    # and the Bareiss rank, and so does the rank after the pure rows; the
    # pure block's data, the k = 0 slice of the walk, are the undecorated
    # generators, so the two blocks never overlap; and the boundary span
    # ranks what streaming these rows does
    for g in range(2, 9):
        for d in range(0, 2 * g - 2):
            generators = enumerate_boundary_generators(g, d)
            assert _pure_data(g, d) == {
                data for data in generators if not any(kap or psi for _, kap, psi in data)
            }
            canonical = [v_form(data, d).values for data in generators]
            pure, decorated = map(list, boundary_rows(g, d))
            assert sorted(pure + decorated) == sorted(canonical)
            rank = exact_rank(canonical)
            assert rank == _echelon_rank(canonical) == _bareiss_rank(canonical)
            streamed = exact_rank(pure, decorated, _kappa_rows(g, d))
            assert streamed[:2] == (_echelon_rank(pure), rank)
            assert exact_rank(pure + decorated) == _echelon_rank(pure + decorated) == rank
            _assert_span_matches(g, d, streamed)


def test_housing_cells_below_g_minus_1_build_no_decorated_row(monkeypatch):
    # for d <= g-2 the pure rows reach the width |P(d)|, so the decorated
    # data are never walked and stratum_row never sees a decoration
    boundary_span.cache_clear()  # earlier tests fill the span memo
    calls = []

    def pure_only(data):
        assert not any(kap or psi for _, kap, psi in data), data
        calls.append(data)
        return stratum_row(data)

    monkeypatch.setattr("soclerank.ranks.stratum_row", pure_only)
    for g in range(2, 9):
        for d in range(0, g - 1):
            report = verify_housing_theorem(g, d)
            assert report["rank_full"] == len(enumerate_partitions(d)) and report["ok"]
    assert calls


def test_span_reads_one_vertex_rows_only(monkeypatch):
    # on the cells with d >= g-1 the span asks stratum_row for the pure rows
    # and for one-vertex rows only (the kappa rows among them); the support
    # certificate builds no product of them
    boundary_span.cache_clear()
    _supported.cache_clear()
    calls = []

    def recorded(data):
        calls.append(data)
        return stratum_row(data)

    monkeypatch.setattr("soclerank.ranks.stratum_row", recorded)
    for g in range(2, 9):
        for d in range(g - 1, 2 * g - 3):
            assert verify_housing_theorem(g, d)["ok"]
    decorated = [data for data in calls if any(kap or psi for _, kap, psi in data)]
    assert decorated and all(len(data) == 1 for data in decorated)


def test_certificate_checks_each_row_against_its_own_cost(monkeypatch):
    # one triple of cost K < m - 1 gets the row m_form(a) of an a with K + 1
    # parts, which lies in W_(K+1)(m) but not in W_K(m); the certificate
    # weighs each row against the forms of its own cost, so it fails at m;
    # the verdicts the swaps leave in the memo are cleared
    monkeypatch.setattr("soclerank.ranks.stratum_row",
                        lambda t: swap[t] if t in swap else stratum_row(t))
    try:
        for g, d in ((6, 6), (7, 8)):
            room = 2 * g - 2 - d
            for m in range(1, d + 1):
                swap, key = {}, min(room, 2 * m - 2)
                _supported.cache_clear()
                assert _supported(m, key)
                for triple, cost, _ in _triples(m, min(room, m - 1), room - 2):
                    if cost < m - 1:
                        alpha = next(a for a in enumerate_partitions(m) if len(a) == cost + 1)
                        swap = {(triple,): m_form(alpha).values}
                        _supported.cache_clear()
                        assert not _supported(m, key), (g, d, triple, alpha)
    finally:
        _supported.cache_clear()


def _key_is_exact(cap):
    # at every remainder m and room of a cell with g <= 11, the key
    # min(room, cap(m)) lists the triples the room itself does
    pairs = {(m, 2 * g - 2 - d) for g in range(2, 12) for d in range(2 * g - 2)
             for m in range(1, d + 1)}
    return all(_triples(m, min(room, m - 1), room - 2) == _triples(m, min(key, m - 1), key - 2)
               for m, room in sorted(pairs) for key in (min(room, cap(m)),))


def test_support_memo_key_is_exact():
    # the triples stop growing at room 2m-2, and not a room sooner
    assert _key_is_exact(lambda m: 2 * m - 2)
    assert not _key_is_exact(lambda m: 2 * m - 3)


def test_cells_of_one_room_share_the_support_verdicts(monkeypatch):
    # (6, 6) and (7, 8) both have room 4: after (6, 6), the certificate of
    # (7, 8) builds the decorated one-vertex rows of remainders 7 and 8 only
    boundary_span.cache_clear()
    _supported.cache_clear()
    assert boundary_span(6, 6)[:2] == (housing_rank_formula(6, 6),) * 2
    calls = []

    def recorded(data):
        calls.append(data)
        return stratum_row(data)

    monkeypatch.setattr("soclerank.ranks.stratum_row", recorded)
    assert boundary_span(7, 8)[:2] == (housing_rank_formula(7, 8),) * 2
    remainders = {data[0][0] for data in calls
                  if len(data) == 1 and (data[0][1] or data[0][2])}
    assert remainders == {7, 8}


def _kappa_rows(g, d):
    # the kappa rows stacked on the boundary, built lazily: for d <= g-2 the
    # boundary rows reach the width and none is read
    return (stratum_row(((d, tau, ()),)) for tau in enumerate_partitions(2 * g - 3 - d))


def _assert_span_matches(g, d, streamed):
    # the span's three ranks equal those of streaming every built row, then
    # the kappa rows, into exact_rank, and a rank cell (d >= g-1) reports them
    assert boundary_span(g, d) == streamed
    if d >= g - 1:
        report = verify_rank_theorem(g, 2 * g - 3 - d)
        assert (report["rank_boundary"], report["rank_stacked"]) == streamed[1:]


def test_boundary_span_matches_streamed_rows():
    # the g = 9 and 10 cells; the g <= 8 ones are checked on the rows
    # test_exact_rank_matches_references_on_full_boundary_matrices builds
    for g in (9, 10):
        for d in range(0, 2 * g - 2):
            pure, decorated = map(list, boundary_rows(g, d))
            _assert_span_matches(g, d, exact_rank(pure, decorated, _kappa_rows(g, d)))


def test_support_certificate_holds_through_genus_11(monkeypatch):
    # no cell with g <= 11 walks reduced_data: the pure set is H and every
    # one-vertex row lies in its W_K, so the span reports |H| twice
    def walked(g, d):
        raise AssertionError("the span fell back at (%d, %d)" % (g, d))

    boundary_span.cache_clear()
    _supported.cache_clear()
    monkeypatch.setattr("soclerank.ranks.reduced_data", walked)
    for g in range(2, 12):
        for d in range(0, 2 * g - 2):
            formula = housing_rank_formula(g, d)
            assert boundary_span(g, d)[:2] == (formula, formula)


def test_pure_set_mismatch_falls_back_with_exact_ranks(monkeypatch):
    # with one housing partition missing from the trees' pure set the
    # certificate fails, and the span ranks that reduced pure block, then
    # the row of every other datum, then the kappa rows, as streaming them does
    real = enumerate_pure_housing_partitions
    for g, d in ((6, 6), (7, 8)):
        for dropped in sorted(real(g, d)):
            pure = real(g, d) - {dropped}
            data = [tuple((m, (), ()) for m in sigma) for sigma in pure]
            rest = [datum for datum in reduced_data(g, d) if datum not in data]
            streamed = exact_rank(map(stratum_row, data), map(stratum_row, rest),
                                  _kappa_rows(g, d))
            monkeypatch.setattr("soclerank.ranks.enumerate_pure_housing_partitions",
                                lambda g, d, pure=pure: pure)
            boundary_span.cache_clear()
            try:
                assert boundary_span(g, d) == streamed
                report = verify_housing_theorem(g, d)
                assert report["rank_pure"] == len(pure) < report["formula"]
                assert not report["ok"]
            finally:
                monkeypatch.undo()
                boundary_span.cache_clear()


def test_corrupted_vertex_row_is_flagged_and_raises_the_rank(monkeypatch):
    # one decorated one-vertex row gets 1 added at (m,); the span, which
    # falls back to every datum's row once a one-vertex row leaves its W_K,
    # ranks exactly what streaming the rows built from the corrupted one
    # does, up to the first vertex whose corruption raises that rank above
    # the pure rank
    real = coeffs.stratum_row
    for g, d in ((6, 5), (6, 6), (7, 8)):
        rank = boundary_span(g, d)[1]
        vertices = {v for datum in reduced_data(g, d) for v in datum if v[0] < d and (v[1] or v[2])}
        for bad in sorted(vertices):
            def corrupt(targets, bad=bad):
                row = real(targets)
                return (row[0] + 1,) + row[1:] if targets == (bad,) else row

            monkeypatch.setattr(coeffs, "stratum_row", corrupt)
            monkeypatch.setattr("soclerank.ranks.stratum_row", corrupt)
            real.cache_clear()
            boundary_span.cache_clear()
            _supported.cache_clear()
            try:
                streamed = exact_rank(*boundary_rows(g, d))
                assert boundary_span(g, d)[:2] == streamed
            finally:
                monkeypatch.undo()
                real.cache_clear()
                boundary_span.cache_clear()
                _supported.cache_clear()
            if streamed[1] > streamed[0]:
                assert streamed[0] == rank
                break
        else:
            raise AssertionError("no corrupted vertex row raised the rank at (%d, %d)" % (g, d))


def test_boundary_span_refuses_past_the_genus_cap():
    # the span itself holds the cap, so a direct call refuses at once too
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap %d" % MAX_GENUS):
        boundary_span(MAX_GENUS + 1, MAX_GENUS)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("g, d, message", [
    (2, 5, "degrees d = 5, r = -4 out of range for genus 2"),
    (1, 0, "genus must be at least 2"),
    (5, -1, "degrees d = -1, r = 8 out of range for genus 5"),
])
def test_boundary_span_refuses_degrees_out_of_range(g, d, message):
    # the span checks the degree first, with the verifiers' messages
    with pytest.raises(ValueError, match=message):
        boundary_span(g, d)


def test_housing_and_rank_cells_read_one_span_entry():
    # the r = 0 cell (d = 2g-3, no boundary stratum) stacks one kappa row on
    # an empty span; a rank cell, a housing cell and the rank cell again,
    # reading one memo entry, report what each does from a cleared memo
    boundary_span.cache_clear()
    top = [verify_rank_theorem(g, 0) for g in range(2, 9)]
    assert top == [{"rank_stacked": 1, "rank_boundary": 0, "rank_smooth": 1, "ok": True}] * 7
    assert [boundary_span(g, 2 * g - 3) for g in range(2, 9)] == [(0, 0, 1)] * 7
    cells = [(g, r) for g in range(3, 8) for r in range(1, g - 1)]
    warm = []
    for g, r in cells:
        d = 2 * g - 3 - r
        warm.append((verify_rank_theorem(g, r), verify_housing_theorem(g, d),
                     verify_rank_theorem(g, r)))
    cold = []
    for g, r in cells:
        d = 2 * g - 3 - r
        boundary_span.cache_clear()
        rank = verify_rank_theorem(g, r)
        boundary_span.cache_clear()
        cold.append((rank, verify_housing_theorem(g, d), rank))
    assert warm == cold


def test_housing_rank_formula_examples():
    assert housing_rank_formula(3, 1) == 1
    assert housing_rank_formula(4, 3) == 2
    assert housing_rank_formula(5, 4) == 4
    with pytest.raises(ValueError):
        housing_rank_formula(3, 5)
    with pytest.raises(ValueError):
        housing_rank_formula(2, -1)


def short_plus_border(g, d):
    """The housing count: partitions of d into at most 2g-3-d parts, plus
    those of exactly 2g-2-d parts with at least two even parts.
    """
    short = partition_count(d, range(1, 2 * g - 2 - d))
    border = sum(1 for s in enumerate_partitions(d)
                 if len(s) == 2 * g - 2 - d and sum(1 for p in s if p % 2 == 0) >= 2)
    return short + border


def test_housing_rank_formula_matches_short_plus_border():
    for g in range(2, 15):
        for d in range(0, 2 * g - 2):
            assert housing_rank_formula(g, d) == short_plus_border(g, d)


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


def pure_stratum_row(lam):
    """The row of the pure stratum of lam: one undecorated vertex per part."""
    return stratum_row(tuple((part, (), ()) for part in lam))


def housing_m_matrix(g, d):
    """Unnormalized pure-basis rows at the housing partitions of (g, d)."""
    return [pure_stratum_row(lam)
            for lam in enumerate_partitions(d) if is_housing_partition(lam, g, d)]


def test_housing_rows_span_every_generator():
    # the unnormalized pure-basis rows at housing partitions have full
    # predicted rank and contain every boundary row in their span
    for g in range(2, 5):
        for d in range(0, 2 * g - 3):
            base_rank, *stacked = exact_rank(housing_m_matrix(g, d), *boundary_rows(g, d))
            assert base_rank == housing_rank_formula(g, d)
            assert stacked == [base_rank, base_rank]


def test_boundary_rows_shape():
    # the pure block holds the undecorated generators, which are the pure
    # strata; the decorated block holds the rest; at d = 2g-3 both are empty
    for g, d in ((4, 2), (5, 4), (6, 3)):
        pure, decorated = map(list, boundary_rows(g, d))
        labels = enumerate_pure_housing_partitions(g, d)
        assert sorted(pure) == sorted(pure_stratum_row(sigma) for sigma in labels)
        assert sorted(decorated) == sorted(
            v_form(data, d).values
            for data in enumerate_boundary_generators(g, d)
            if any(kap or psi for _, kap, psi in data)
        )
        assert len(pure) + len(decorated) == len(enumerate_boundary_generators(g, d))
    for g in range(2, 9):
        assert list(map(list, boundary_rows(g, 2 * g - 3))) == [[], []]


def test_kappa_row_values():
    assert stratum_row(((2, (1,), ()),)) == (9, 61)
    assert stratum_row(((1, (), ()),)) == (1,)


def test_smooth_and_eta_matrices():
    assert smooth_matrix(4, 1) == ((512,),)
    assert eta_matrix(3, 1) == ((16,),)
    assert len(smooth_matrix(7, 1)) == len(enumerate_partitions(4))
    assert len(smooth_matrix(7, 1, max_length=2)) == 3


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


def test_betti_report_matches_per_row_counts():
    # the shared table of p(n, parts <= k) against one count of at most
    # 2g-2-d parts per row, and gamma against fz_count of 3e-g-1 up to the
    # middle row and of 3(g-2-e)-g-1 past it
    for g in range(2, 81):
        expected = []
        for e in range(0, g - 1):
            d = g - 1 + e
            m = 3 * e - g - 1 if 2 * e <= g - 2 else 3 * (g - 2 - e) - g - 1
            expected.append({"e": e, "d": d,
                             "ambient_rank": partition_count(d, range(1, 2 * g - 1 - d)),
                             "gamma_conjectural": fz_count(m), "delta_conjectural": 0,
                             "kernel_conjectural": fz_count(m)})
        assert betti_report(g)["rows"] == expected, g


def test_betti_report_nonzero_gamma():
    rows = betti_report(8)["rows"]
    by_e = {row["e"]: row for row in rows}
    # 3e-g-1 = 0 at e=3, g=8: one allowed partition (the empty one)
    assert by_e[3]["gamma_conjectural"] == 1
    assert by_e[3]["kernel_conjectural"] == 1
    assert by_e[2]["gamma_conjectural"] == 0
