"""Exact matrix ranks and the theorem-level verification reports.

The verifiers build pairing rows, boundary stratum forms (columns
indexed by P(d) in canonical order) or socle integrals of the smooth
locus, and rank nested blocks of them over the rationals in one pass
each, reporting every number involved so a failing cell is diagnosable.
"""

from math import gcd
from operator import mul

from .coeffs import LinearForm, eta_form, stratum_row
from .exact import fz_count, partition_count
from .partitions import enumerate_partitions, partition
from .socle import complementary_degree, mu
from .strata import is_housing_partition, reduced_data


def exact_rank(rows, *more):
    """Rank over the rationals of int rows, or the ranks of nested row blocks.

    With one block of rows the result is its rank; with more, the tuple
    of the ranks of block 1, of blocks 1-2, and so on, from one pass
    over the blocks (any iterables) in order.  Every row consumed must
    have the width of the first row and int entries (not bools), or
    ValueError is raised.  The pass keeps an integer basis K of the
    vectors orthogonal to every row so far, starting from the unit
    vectors; the rank is width - |K|.  A row with v = (row . k for k in
    K) zero lies in the span; otherwise the first k_j with v_j nonzero
    is dropped and every other k_i with v_i nonzero becomes
    v_j*k_i - v_i*k_j, divided by its gcd.  Once K is empty no further
    row is consumed, and every later block reports the width.
    """
    kernel, ranks = None, []
    for block in (rows,) + more:
        for row in block if kernel != [] else ():
            if kernel is None:
                width = len(row)
                kernel = [[int(i == j) for j in range(width)] for i in range(width)]
            if len(row) != width:
                raise ValueError("rows must all have the same length")
            if not set(map(type, row)) <= {int}:
                raise ValueError("matrix entries must be ints")
            v = [sum(map(mul, row, k)) for k in kernel]
            j = next((i for i, x in enumerate(v) if x), None)
            if j is not None:
                lead, pivot = v.pop(j), kernel.pop(j)
                kernel = [k if not x else _primitive([lead * a - x * b for a, b in zip(k, pivot)])
                          for k, x in zip(kernel, v)]
            if not kernel:
                break
        ranks.append(0 if kernel is None else width - len(kernel))
    return tuple(ranks) if more else ranks[0]


def _primitive(vector):
    div = gcd(*vector)
    return [x // div for x in vector]


def boundary_rows(g, d):
    """Rows on P(d) of every reduced boundary generator of (g, d), in two lazy blocks.

    The first block holds the pure strata, the k = 0 slice of the walk
    (none at d = 2g-3); the second, whose walk runs only once it is
    advanced, the generators with k >= 1 decorations not in the first.
    """
    pure = reduced_data(g, d, range(min(1, 2 * g - 3 - d)))

    def decorated():
        for data in reduced_data(g, d, range(1, 2 * g - 3 - d)) - pure:
            yield stratum_row(data)

    return map(stratum_row, pure), decorated()


def kappa_row(tau, d):
    """The one-vertex row pi -> theta(pi + tau) as a form on P(d)."""
    return LinearForm(d, stratum_row(((d, partition(tau), ()),)))


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
    if complementary_degree(g, d) < 1:
        raise ValueError("need 2g-3-d >= 1")
    rank_pure, rank_full = exact_rank(*boundary_rows(g, d))
    formula = housing_rank_formula(g, d)
    return {
        "rank_pure": rank_pure,
        "rank_full": rank_full,
        "formula": formula,
        "ok": rank_pure == rank_full == formula,
    }


def verify_rank_theorem(g, r):
    """Additivity of the boundary rank and the smooth rank at d = 2g-3-r."""
    d = 2 * g - 3 - r
    complementary_degree(g, d)
    if not 0 <= r <= g - 2:
        raise ValueError("need 0 <= r <= g-2")
    kappa = [kappa_row(tau, d).values for tau in enumerate_partitions(r)]
    _, rank_boundary, rank_stacked = exact_rank(*boundary_rows(g, d), kappa)
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
