"""Exact matrix ranks and the theorem-level verification reports.

The two main verifiers build pairing matrices whose rows are boundary
stratum forms (columns indexed by P(d) in canonical order) or socle
integrals of the smooth locus, compute their ranks over the rationals,
and report every number involved so a failing cell is diagnosable.
"""

from dataclasses import dataclass
from math import gcd

from .coeffs import eta_form, pure_row, v_form
from .exact import fz_count, partition_count
from .partitions import enumerate_partitions, partition
from .socle import mu
from .strata import (
    enumerate_boundary_generators,
    enumerate_pure_housing_partitions,
    is_housing_partition,
)


@dataclass(frozen=True)
class PairingMatrix:
    """Rows labeled by class descriptors, columns by P(degree)."""

    row_labels: tuple
    degree: int
    entries: tuple

    def __post_init__(self):
        width = len(enumerate_partitions(self.degree))
        if len(self.entries) != len(self.row_labels):
            raise ValueError("need one row per label")
        if any(len(row) != width for row in self.entries):
            raise ValueError("every row must have one entry per partition")


def exact_rank(m):
    """Rank over the rationals of a matrix of int entries.

    Accepts a PairingMatrix or any sequence of rows of one length whose
    entries are ints (not bools); anything else raises ValueError.
    Rows are reduced one at a time against the kept echelon rows, in the
    order those were kept, by row = lead*row - head*pivot, where lead is
    the pivot's entry at its leading column (its first nonzero one) and
    head is the row's entry there.  Each kept row is zero at the leading
    columns of all rows kept before it, so a nonzero remainder is
    independent of them: it is divided by the gcd of its entries and
    kept, and the rank is the number of rows kept.  Reduction stops once
    the rank equals the width; later rows are still checked.
    """
    rows = m.entries if isinstance(m, PairingMatrix) else m
    width = len(rows[0]) if rows else 0
    kept = []
    for row in rows:
        if len(row) != width:
            raise ValueError("rows must all have the same length")
        if not set(map(type, row)) <= {int}:
            raise ValueError("matrix entries must be ints")
        if len(kept) == width:
            continue
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


def pure_matrix(g, d):
    """Rows: pairing forms of the pure boundary strata of (g, d)."""
    labels = tuple(sorted(enumerate_pure_housing_partitions(g, d)))
    return PairingMatrix(labels, d, tuple(pure_row(sigma).values for sigma in labels))


def full_matrix(g, d):
    """Rows: pairing forms of every reduced boundary generator of (g, d)."""
    labels = enumerate_boundary_generators(g, d)
    rows = tuple(v_form(data, d).values for data in labels)
    return PairingMatrix(labels, d, rows)


def kappa_row(tau, d):
    """The one-vertex row pi -> theta(pi + tau) as a form on P(d)."""
    return v_form(((d, partition(tau), ()),), d)


def housing_m_matrix(g, d):
    """Unnormalized pure-basis rows at the housing partitions of (g, d)."""
    labels = tuple(
        lam for lam in enumerate_partitions(d) if is_housing_partition(lam, g, d)
    )
    return PairingMatrix(labels, d, tuple(pure_row(lam).values for lam in labels))


def smooth_matrix(g, r, max_length=None):
    """Socle integrals of the smooth locus: rows sigma in P(g-2-r), columns P(r)."""
    sigmas = enumerate_partitions(g - 2 - r, max_length)
    taus = enumerate_partitions(r)
    rows = tuple(tuple(mu(s, t) for t in taus) for s in sigmas)
    return PairingMatrix(sigmas, r, rows)


def eta_matrix(g, r):
    """Rows eta_sigma over sigma in P(g-2-r, r+1), columns P(r)."""
    sigmas = enumerate_partitions(g - 2 - r, r + 1)
    taus = enumerate_partitions(r)
    rows = tuple(tuple(eta_form(s, g, r)(t) for t in taus) for s in sigmas)
    return PairingMatrix(sigmas, r, rows)


def housing_rank_formula(g, d):
    """Predicted pairing rank: short partitions plus borderline ones with two even parts."""
    if not 0 <= d <= 2 * g - 3:
        raise ValueError("degree %d out of range for genus %d" % (d, g))
    short = partition_count(d, range(1, 2 * g - 2 - d))  # at most 2g-3-d parts
    border = sum(
        1
        for s in enumerate_partitions(d)
        if len(s) == 2 * g - 2 - d and sum(1 for p in s if p % 2 == 0) >= 2
    )
    return short + border


def verify_housing_theorem(g, d):
    """Ranks of the pure and full boundary matrices against the counting formula."""
    if 2 * g - 3 - d < 1:
        raise ValueError("need 2g-3-d >= 1")
    rank_pure = exact_rank(pure_matrix(g, d))
    rank_full = exact_rank(full_matrix(g, d))
    formula = housing_rank_formula(g, d)
    return {
        "rank_pure": rank_pure,
        "rank_full": rank_full,
        "formula": formula,
        "ok": rank_pure == rank_full == formula,
    }


def verify_rank_theorem(g, r):
    """Additivity of the boundary rank and the smooth rank at d = 2g-3-r."""
    if not 0 <= r <= g - 2:
        raise ValueError("need 0 <= r <= g-2")
    d = 2 * g - 3 - r
    boundary = full_matrix(g, d)
    kappa_rows = tuple(kappa_row(tau, d).values for tau in enumerate_partitions(r))
    rank_boundary = exact_rank(boundary)
    rank_stacked = exact_rank(tuple(boundary.entries) + kappa_rows)
    rank_smooth = exact_rank(smooth_matrix(g, r))
    return {
        "rank_stacked": rank_stacked,
        "rank_boundary": rank_boundary,
        "rank_smooth": rank_smooth,
        "ok": rank_stacked == rank_boundary + rank_smooth,
    }


def verify_span_equality(g, r):
    """Equal row spaces of the eta matrix and the length-restricted mu matrix."""
    a = eta_matrix(g, r)
    b = smooth_matrix(g, r, max_length=r + 1)
    rank_eta = exact_rank(a)
    rank_mu = exact_rank(b)
    rank_stack = exact_rank(tuple(a.entries) + tuple(b.entries))
    return {
        "rank_eta": rank_eta,
        "rank_mu": rank_mu,
        "rank_stack": rank_stack,
        "ok": rank_eta == rank_mu == rank_stack,
    }


def verify_length_restriction(g, r):
    """Dropping mu rows of length above r+1 must not lower the rank."""
    rank_all = exact_rank(smooth_matrix(g, r))
    rank_short = exact_rank(smooth_matrix(g, r, max_length=r + 1))
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
    if g < 2:
        raise ValueError("genus must be at least 2")
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
