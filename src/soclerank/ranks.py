"""Exact matrix ranks and the theorem-level verification reports.

The verifiers build pairing rows, boundary stratum forms (columns
indexed by P(d) in canonical order) or socle integrals of the smooth
locus, and rank nested blocks of them over the rationals in one integer
echelon each, reporting every number involved so a failing cell is
diagnosable.  The full boundary rank is certified from the supports of
the one-vertex rows, one echelon per remainder and cost shared by every
cell, not ranked datum by datum.
"""

from functools import lru_cache
from itertools import chain
from math import gcd

from .coeffs import eta_form, m_form, stratum_row
from .exact import fz_counts
from .partitions import enumerate_partitions
from .socle import complementary_degree, mu
from .strata import _houses, enumerate_pure_housing_partitions, reduced_data

# Highest genus the verifiers and the stratum listing take.  On a 2-vCPU
# machine the (15, 14) span takes 3.3-3.7 s at 50 MB and the rank check
# at (15, r = 0) 0.85-0.86 s; past the cap the widths p(2g - 3) run away
# (p(77) at g = 40).
MAX_GENUS = 15
# Highest genus ``betti_report`` takes.  One table of p(n, parts <= k) holds
# its ambient ranks; on a 2-vCPU machine the report of g = 250 takes 0.02 s
# in process and the whole command 0.21-0.26 s, 0.17-0.22 s at g = 2.
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
    # kept holds (leading column, nonzero (j, y) entries) pairs of primitive
    # rows, the lead the first entry, each zero at the leading columns of those
    # kept before it; a new row is reduced by them in that order, scaled first
    # where the lead does not divide its head; a nonzero rest is kept over its
    # gcd, and nothing is read once width rows are kept
    kept = list(kept)
    for row in rows if len(kept) < width else ():
        row = list(row)
        for col, entries in kept:
            head = row[col]
            if head:
                lead = entries[0][1]
                if head % lead:
                    scale = lead // gcd(lead, head)
                    row, head = [scale * x for x in row], scale * head
                quotient = head // lead
                for j, y in entries:
                    row[j] -= quotient * y
        div = gcd(*row)
        if div:
            entries = tuple((j, x // div) for j, x in enumerate(row) if x)
            kept.append((entries[0][0], entries))
            if len(kept) == width:
                break
    return tuple(kept)


@lru_cache(maxsize=None)
def boundary_span(g, d):
    """The boundary and stacked ranks of (g, d), computed once per (g, d).

    Returns (rank_pure, rank_full, rank_stacked).  The rows of the pure
    strata, listed from the trees (none at d = 2g-3), go into one
    echelon; below the width |P(d)|, the pure set being H and
    ``_supported`` certify that they span every datum's row, or else
    the row of every datum of ``strata.reduced_data`` joins the echelon.
    The kappa rows pi -> theta(pi + tau) over tau in P(2g-3-d) go last.
    A degree out of range or a genus above ``MAX_GENUS`` raises ValueError.

    Proof of the certificate.  Let P_a be the row of the pure datum a and
    W_K(m) the span of the P_a over a in P(m) with len a <= K.  ``m_form``
    is P_a / aut(a): 1 at a and 0 off the refinements of a, which come later
    in canonical order, so the P_a are independent and rank_pure is the size
    of the pure set.  A datum's row is the ``product`` of its one-vertex
    rows, which is bilinear, commutative and associative, so
    product(P_a, P_b) = P_(a+b).  Every one-vertex row of cost K = 1 + c
    lies in W_K(m): K >= m leaves nothing to check, and below it
    ``_supported`` finds that the rows with at most one psi part add no
    pivot to the echelon of the forms of P(m, K).  By ``socle._theta`` the
    row of (m, kappa, psi) is multinomial(|psi|; psi) times that of
    (m, kappa, (|psi|,)), of the same cost and the least lo of its size, so
    listed whenever the other is; there lo = 1 + (m + c) % 2, and a cell
    lists the whole (m, K) group exactly when K + (m + K + 1) % 2 < 2g-2-d.
    So a datum's row lies in the span of the P_u, u = a_1 + ... + a_k with
    len a_i <= 1 + c_i, and u has at most sum (1 + c_i) <= 2g-2-d parts;
    fewer make u housing.  At equality every a_i has 1 + c_i parts, and the
    second sum of the criterion, sum (lo_i - 1 + c_i) <= 2g-4-d, forces
    lo_i = 1, so m_i + c_i even, at two vertices or more; there 1 + c_i odd
    parts cannot sum to m_i, so u has two even parts and is housing.  Hence
    rank_full <= |H|; once the pure set is H its rows span every datum's
    row, rank_pure = rank_full = |H|, and the kappa rows reduce on them.
    """
    complementary_degree(g, d)
    if g > MAX_GENUS:
        raise ValueError("genus %d exceeds the verifier cap %d" % (g, MAX_GENUS))
    width = len(enumerate_partitions(d))
    pure = enumerate_pure_housing_partitions(g, d) if d < 2 * g - 3 else frozenset()
    kept = _echelon((), (stratum_row(tuple((m, (), ()) for m in s)) for s in pure), width)
    room = 2 * g - 2 - d
    supported = len(kept) == width or (
        pure == {s for s in enumerate_partitions(d) if _houses(s, room)}
        and all(_supported(m, cost) for m in range(1, d + 1) for cost in range(1, m)
                if cost + (m + cost + 1) % 2 < room))
    full = kept if supported else _echelon(kept, map(stratum_row, reduced_data(g, d)), width)
    kappa = (stratum_row(((d, tau, ()),)) for tau in enumerate_partitions(2 * g - 3 - d))
    return len(kept), len(full), len(_echelon(full, kappa, width))


@lru_cache(maxsize=None)
def _supported(m, cost):
    # boundary_span's vertex lemma at remainder m and cost K < m, for every room:
    # the rows with psi of at most one part add no pivot to the echelon of the
    # m_forms of P(m, K), unitriangular on that prefix of P(m)
    prefix = enumerate_partitions(m, cost)
    forms = (m_form(alpha).values for alpha in prefix)
    rows = (stratum_row(((m, kap, (cost - 1 - a,) if a < cost - 1 else ()),))
            for a in range(cost) for kap in enumerate_partitions(a))
    return len(_echelon((), chain(forms, rows), len(enumerate_partitions(m)))) == len(prefix)


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
    return sum(1 for s in enumerate_partitions(d) if _houses(s, 2 * g - 2 - d))


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
    # counts[n] grows to p(n, parts <= k), k = 1 ... g-1; by conjugation the
    # row of degree d = 2g-2-k, which takes at most k parts, reads counts[d]
    counts, ambients, rows = [1] + [0] * (2 * g - 3), [], []
    for k in range(1, g):
        for n in range(k, 2 * g - 2):
            counts[n] += counts[n - k]
        ambients.append(counts[2 * g - 2 - k])
    fz = fz_counts(3 * ((g - 2) // 2) - g - 1)  # up to gamma's largest argument, at e = (g-2)//2
    for e, ambient in enumerate(reversed(ambients)):
        d, n = g - 1 + e, 3 * min(e, g - 2 - e) - g - 1
        gamma = fz[n] if n >= 0 else 0
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
