"""Exact matrix ranks and the theorem-level verification reports.

The verifiers build pairing rows, boundary stratum forms (columns
indexed by P(d) in canonical order) or socle integrals of the smooth
locus, and rank nested blocks of them over the rationals in one integer
echelon each, reporting every number involved so a failing cell is
diagnosable.  The decorated boundary strata are ranked through products
of a spanning set of one-vertex rows, not datum by datum.
"""

from functools import lru_cache
from itertools import chain
from math import gcd

from .coeffs import eta_form, product, stratum_row
from .exact import fz_count, partition_count
from .partitions import enumerate_partitions
from .socle import complementary_degree, mu
from .strata import _triples, enumerate_pure_housing_partitions, is_housing_partition

# Highest genus the verifiers and the stratum listing take.  On a 2-vCPU
# machine the (15, 14) span takes 15 s at 81 MB and the rank check at
# (15, r = 0) 1.5 s; past the cap the widths p(2g - 3) run away (p(77)
# at g = 40).
MAX_GENUS = 15
# Highest genus ``betti_report`` takes; its cost grows about as g^3.  On a
# 2-vCPU machine the whole command took 0.6-0.9 s at g = 250, 1.0-1.5 s
# at 300 and 3.2 s at 400.
MAX_BETTI_GENUS = 250


def exact_rank(rows, *more):
    """Rank over the rationals of int rows, or the ranks of nested row blocks.

    With one block of rows the result is its rank; with more, the tuple
    of the ranks of block 1, of blocks 1-2, and so on, from one pass
    over the blocks (any iterables) in order.  Every row consumed must
    have the width of the first row and int entries (not bools), or
    ValueError is raised.  The pass continues one ``_echelon``; once it
    holds width rows no further row is consumed, and every later block
    reports the width.
    """
    kept, width, ranks = (), None, []
    for block in map(iter, (rows,) + more):
        if width is None:
            first = next(block, None)
            if first is not None:
                width, block = len(first), chain((first,), block)
        if width is not None:
            kept = _echelon(kept, (_checked(row, width) for row in block), width)
        ranks.append(len(kept))
    return tuple(ranks) if more else ranks[0]


def _checked(row, width):
    if len(row) != width:
        raise ValueError("rows must all have the same length")
    if not set(map(type, row)) <= {int}:
        raise ValueError("matrix entries must be ints")
    return row


def _echelon(kept, rows, width):
    # kept holds (leading column, primitive row) pairs, each row zero at the
    # leading columns of those kept before it; a new row is reduced by them in
    # that order, on each pivot's nonzero entries, scaled first where the lead
    # does not divide its head; a nonzero rest is kept over its gcd, and
    # nothing is read once width rows are kept
    kept = list(kept)
    entries = [[(j, y) for j, y in enumerate(pivot) if y] for _, pivot in kept]
    for row in rows if len(kept) < width else ():
        row = list(row)
        for (col, pivot), nonzero in zip(kept, entries):
            head, lead = row[col], pivot[col]
            if head % lead:
                scale = lead // gcd(lead, head)
                row, head = [scale * x for x in row], scale * head
            quotient = head // lead
            for j, y in nonzero if quotient else ():
                row[j] -= quotient * y
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            div = gcd(*row)
            kept.append((col, tuple(x // div for x in row)))
            entries.append([(j, y // div) for j, y in enumerate(row) if y])
            if len(kept) == width:
                break
    return tuple(kept)


@lru_cache(maxsize=None)
def boundary_span(g, d):
    """The boundary and stacked ranks of (g, d), computed once per (g, d).

    Returns (rank_pure, rank_full, rank_stacked).  The rows of the pure
    strata, listed from the trees (none at d = 2g-3), go into one
    echelon first; then the rows of S(d, 2g-2-d, 2g-4-d, d), which
    span every boundary row; then the kappa rows pi -> theta(pi + tau)
    over tau in P(2g-3-d).  S(n, room, spare, top) is an echelon of the
    rows of the data within the two sums of ``strata.reduced_data``
    whose remainders sum to n and are at most top: the echelon of
    product(row, b) over each row of ``_spanning_rows(m, 2g-2-d,
    2g-4-d)`` with m <= top whose costs fit and each b in
    S(n - m, room - cost, spare - excess, m), with S(0, ...) = [(1,)].
    At d = 2g-3 no triple fits the budgets (1, -1), so the ranks are
    (0, 0, rank of the kappa rows).

    Proof that rank_full is the rank of the rows of all the data.  The
    row of a datum is the product of its one-vertex rows, and
    ``product`` is bilinear, commutative and associative, so the row is
    multilinear in its one-vertex rows, in any vertex order.  The
    criterion sees a triple only through m and its class (cost, excess),
    and moving a vertex to a class it dominates only lowers both sums,
    so a datum stays a datum.  By induction over the classes, cheapest
    first, every one-vertex row lies in the span of the spanning rows
    of its class and the classes below it, and each spanning row is a
    combination of one-vertex rows of such classes; replacing the
    vertices one at a time, the products of spanning rows that fit span
    exactly the rows of the data.  Taking the vertex of largest
    remainder first gives the recursion of S, and an echelon spans the
    rows it was given.
    """
    width, budgets = len(enumerate_partitions(d)), (2 * g - 2 - d, 2 * g - 4 - d)
    pure = {tuple((m, (), ()) for m in sigma)
            for sigma in enumerate_pure_housing_partitions(g, d)} if d < 2 * g - 3 else ()
    kept = _echelon((), map(stratum_row, pure), width)
    tables, states = {}, {}

    def rows(n, room, spare, top):
        # the products of a spanning row of remainder m <= top with S of the rest
        for m in range(1, min(top, n) + 1):
            if m not in tables:
                tables[m] = _spanning_rows(m, *budgets)
            for row, cost, excess in tables[m]:
                if cost <= room and excess <= spare and (room - cost) * m >= n - m:
                    for _, rest in span(n - m, room - cost, spare - excess, m):
                        yield product(row, rest, m, n - m)

    def span(n, room, spare, top):
        if not n:
            return ((0, (1,)),)
        key = n, room, spare, min(top, n)
        if key not in states:
            states[key] = _echelon((), rows(*key), len(enumerate_partitions(n)))
        return states[key]

    full = _echelon(kept, rows(d, *budgets, d), width)
    kappa = (stratum_row(((d, tau, ()),)) for tau in enumerate_partitions(2 * g - 3 - d))
    return len(kept), len(full), len(_echelon(full, kappa, width))


def _spanning_rows(m, room, spare):
    """Rows spanning the one-vertex rows of remainder m, as (row, cost, excess).

    The triples of ``strata._triples(m, room, spare)`` are grouped by
    class (cost, excess) = (1 + c, lo - 1 + c), walked in that order.
    Each class keeps the rows its one-vertex rows add to an echelon of
    the rows kept in the classes it dominates, its own included.
    """
    classes, size, kept = {}, len(enumerate_partitions(m)), []
    for triple, cost, excess in _triples(m, room, spare):
        classes.setdefault((cost, excess), []).append(triple)
    for (cost, excess), triples in sorted(classes.items()):
        below = _echelon((), (row for row, c, e in kept if c <= cost and e <= excess), size)
        more = _echelon(below, (stratum_row((t,)) for t in triples), size)
        kept += [(row, cost, excess) for _, row in more[len(below):]]
    return kept


def smooth_matrix(g, r, max_length=None):
    """Socle integrals of the smooth locus: rows sigma in P(g-2-r), columns P(r)."""
    taus = enumerate_partitions(r)
    return tuple(tuple(mu(s, t) for t in taus)
                 for s in enumerate_partitions(g - 2 - r, max_length))


def eta_matrix(g, r):
    """Rows eta_sigma over sigma in P(g-2-r, r+1), columns P(r)."""
    return tuple(eta_form(s, g, r).values for s in enumerate_partitions(g - 2 - r, r + 1))


def housing_rank_formula(g, d):
    """Predicted pairing rank: the number of housing partitions in P(d)."""
    complementary_degree(g, d)
    return sum(1 for s in enumerate_partitions(d) if is_housing_partition(s, g, d))


def verify_housing_theorem(g, d):
    """Ranks of the pure and full boundary matrices against the counting formula."""
    if g > MAX_GENUS:
        raise ValueError("genus %d exceeds the verifier cap %d" % (g, MAX_GENUS))
    if complementary_degree(g, d) < 1:
        raise ValueError("need 2g-3-d >= 1")
    rank_pure, rank_full, _ = boundary_span(g, d)
    formula = housing_rank_formula(g, d)
    return {
        "rank_pure": rank_pure,
        "rank_full": rank_full,
        "formula": formula,
        "ok": rank_pure == rank_full == formula,
    }


def verify_rank_theorem(g, r):
    """Additivity of the boundary rank and the smooth rank at d = 2g-3-r."""
    if g > MAX_GENUS:
        raise ValueError("genus %d exceeds the verifier cap %d" % (g, MAX_GENUS))
    d = 2 * g - 3 - r
    complementary_degree(g, d)
    if not 0 <= r <= g - 2:
        raise ValueError("need 0 <= r <= g-2")
    _, rank_boundary, rank_stacked = boundary_span(g, d)
    rank_smooth = exact_rank(smooth_matrix(g, r))
    return {
        "rank_stacked": rank_stacked,
        "rank_boundary": rank_boundary,
        "rank_smooth": rank_smooth,
        "ok": rank_stacked == rank_boundary + rank_smooth,
    }


def verify_span_equality(g, r):
    """Equal row spaces of the eta matrix and the length-restricted mu matrix."""
    short = smooth_matrix(g, r, max_length=r + 1)
    rank_eta, rank_stack = exact_rank(eta_matrix(g, r), short)
    rank_mu = exact_rank(short)
    return {
        "rank_eta": rank_eta,
        "rank_mu": rank_mu,
        "rank_stack": rank_stack,
        "ok": rank_eta == rank_mu == rank_stack,
    }


def verify_length_restriction(g, r):
    """Dropping mu rows of length above r+1 must not lower the rank."""
    rank_short, rank_all = exact_rank(smooth_matrix(g, r, max_length=r + 1),
                                      smooth_matrix(g, r))
    return {
        "rank_all_lengths": rank_all,
        "rank_short": rank_short,
        "ok": rank_all == rank_short,
    }


def betti_report(g):
    """CONJECTURAL kernel dimensions of the socle pairing in low excess.

    For each excess e the degree is d = g-1+e; the reported numbers are
    the ambient rank |P(d, 2g-2-d)|, the conjectured pairing defect
    gamma_e (zero-kernel prediction with the excluded part sizes
    5, 8, 11, ...), the conjectured boundary defect delta_d = 0, and
    their difference.  Nothing here is proved by this package.
    """
    if g > MAX_BETTI_GENUS:
        raise ValueError("genus %d exceeds the report cap %d" % (g, MAX_BETTI_GENUS))
    complementary_degree(g, g - 1)  # the report's lowest degree
    rows = []
    for e in range(0, g - 1):
        d = g - 1 + e
        ambient = partition_count(d, range(1, 2 * g - 1 - d))  # at most 2g-2-d parts
        if 2 * e <= g - 2:
            m = 3 * e - g - 1
        else:
            m = 3 * (g - 2 - e) - g - 1
        gamma = fz_count(m)
        rows.append(
            {
                "e": e,
                "d": d,
                "ambient_rank": ambient,
                "gamma_conjectural": gamma,
                "delta_conjectural": 0,
                "kernel_conjectural": gamma,
            }
        )
    return {"g": g, "status": "CONJECTURAL", "rows": rows}
