"""Exact matrix ranks and the theorem-level verification reports.

The verifiers build pairing rows, boundary stratum forms (columns
indexed by P(d) in canonical order) or socle integrals of the smooth
locus, and rank nested blocks of them over the rationals in one pass
each, reporting every number involved so a failing cell is diagnosable.
The decorated boundary strata are checked against the kernel of the
pure strata rows by contraction, without building their rows.
"""

from functools import lru_cache
from math import gcd
from operator import mul

from .coeffs import LinearForm, eta_form, stratum_row
from .exact import fz_count, partition_count
from .partitions import enumerate_partitions, partition, unions
from .socle import complementary_degree, mu
from .strata import enumerate_pure_housing_partitions, is_housing_partition, reduced_data


def exact_rank(rows, *more):
    """Rank over the rationals of int rows, or the ranks of nested row blocks.

    With one block of rows the result is its rank; with more, the tuple
    of the ranks of block 1, of blocks 1-2, and so on, from one pass
    over the blocks (any iterables) in order.  Every row consumed must
    have the width of the first row and int entries (not bools), or
    ValueError is raised.  The pass keeps an integer basis K of the
    vectors orthogonal to every row so far, starting from the unit
    vectors, and updates it by ``_kernel``; the rank is width - |K|.
    Once K is empty no further row is consumed, and every later block
    reports the width.
    """
    kernel, width, ranks = None, 0, []
    for block in map(iter, (rows,) + more):
        if kernel is None:
            first = next(block, None)
            if first is not None:
                width = len(first)
                kernel = _reduce(_units(width), _checked(first, width))
        kernel = _kernel(kernel, (_checked(row, width) for row in block))
        ranks.append(0 if kernel is None else width - len(kernel))
    return tuple(ranks) if more else ranks[0]


def _checked(row, width):
    if len(row) != width:
        raise ValueError("rows must all have the same length")
    if not set(map(type, row)) <= {int}:
        raise ValueError("matrix entries must be ints")
    return row


def _kernel(kernel, rows):
    # reduce kernel by each row in turn; no row is read once it is empty (or None)
    for row in rows if kernel else ():
        kernel = _reduce(kernel, row)
        if not kernel:
            break
    return kernel


def _units(width):
    return [[int(i == j) for j in range(width)] for i in range(width)]


def _reduce(kernel, row):
    # the basis of the vectors in span(kernel) orthogonal to row, as a new
    # list: with v = (row . k for k in kernel) zero the row lies in the span;
    # otherwise the first k_j with v_j nonzero is dropped and every other k_i
    # with v_i nonzero becomes v_j*k_i - v_i*k_j, divided by its gcd
    v = [sum(map(mul, row, k)) for k in kernel]
    j = next((i for i, x in enumerate(v) if x), None)
    if j is None:
        return kernel
    lead, pivot = v[j], kernel[j]
    return [k if not x else _primitive([lead * a - x * b for a, b in zip(k, pivot)])
            for i, (k, x) in enumerate(zip(kernel, v)) if i != j]


def _primitive(vector):
    div = gcd(*vector)
    return [x // div for x in vector]


@lru_cache(maxsize=None)
def boundary_span(g, d):
    """The boundary rank of (g, d) with its certificate, computed once per (g, d).

    Returns (rank_pure, rank_full, kernel).  The rows of the pure strata,
    listed from the trees (none at d = 2g-3), are reduced first; their
    kernel K is then checked against every other datum of
    ``reduced_data`` by ``kernel_products``, building no row while the
    products vanish.  A datum with a nonzero product has its row reduced
    into K and the walk goes on after it; the new K lies in the span of
    the old, so rank_full is exact whatever the products.  The kernel is
    a tuple of tuples, orthogonal to every boundary row, with
    width - rank_full vectors; callers continue from it.
    """
    width = len(enumerate_partitions(d))
    pure = {tuple((m, (), ()) for m in sigma)
            for sigma in enumerate_pure_housing_partitions(g, d)} if d < 2 * g - 3 else set()
    kernel = _kernel(_units(width), map(stratum_row, pure))
    rank_pure = width - len(kernel)
    rest = (datum for datum in reduced_data(g, d) if datum not in pure)
    while kernel:
        flagged = next((datum for datum, v in kernel_products(kernel, rest) if any(v)), None)
        if flagged is None:
            break
        kernel = _reduce(kernel, stratum_row(flagged))
    return rank_pure, width - len(kernel), tuple(map(tuple, kernel))


def kernel_products(kernel, data):
    """Yield each datum with the products of the kernel vectors with its row, unbuilt.

    ``data`` are sorted nonzero (m, kappa, psi) triples summing to d,
    the vectors lie on P(d).  The row of a datum is the product of its
    one-vertex rows h, and k . (h * rest) = k' . rest with
    k'[t] = sum over s of h[s] * ways * k[s + t], over the pairs of
    ``unions(m, n)``; so every k is pulled back through the vertices
    one at a time, and at the last vertex the product is one dot
    product with its one-vertex row.  Data met in sorted order share
    the vectors pulled through their common prefix; each is read only
    when its pair is asked for.
    """
    path, pulled = (), [kernel]
    for datum in data:
        head, last = datum[:-1], datum[-1]
        if head != path:
            keep = 0
            while keep < min(len(path), len(head)) and path[keep] == head[keep]:
                keep += 1
            del pulled[keep + 1:]
            n = sum(m for m, _, _ in datum[keep:])
            for vertex in head[keep:]:
                n -= vertex[0]
                pulled.append(_pull(pulled[-1], stratum_row((vertex,)), unions(vertex[0], n)))
            path = head
        row = stratum_row((last,))
        yield datum, tuple(sum(map(mul, k, row)) for k in pulled[-1])


def _pull(vectors, head, table):
    # k'[t] = sum over s of head[s] * ways * k[index] for the (index, ways)
    # pair of s and t in the unions table; the scaled pairs serve every k
    scaled = [(t, i, h * ways) for h, pairs in zip(head, table) if h
              for t, (i, ways) in enumerate(pairs)]
    out = []
    for k in vectors:
        pulled = [0] * len(table[0])
        for t, i, c in scaled:
            pulled[t] += c * k[i]
        out.append(pulled)
    return out


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
    d = 2 * g - 3 - r
    complementary_degree(g, d)
    if not 0 <= r <= g - 2:
        raise ValueError("need 0 <= r <= g-2")
    width = len(enumerate_partitions(d))
    # r = 0 has no boundary stratum: the kappa rows start from the unit vectors
    _, rank_boundary, kernel = boundary_span(g, d) if r else (0, 0, _units(width))
    kernel = _kernel(kernel, (kappa_row(tau, d).values for tau in enumerate_partitions(r)))
    rank_stacked = width - len(kernel)
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
