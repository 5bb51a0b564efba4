"""Normalized top-degree evaluations of kappa-psi monomials.

All evaluations are normalized so that the corresponding pure psi-class
value plays the role of the unit; with that normalization the genus
drops out of every formula below and each function is a finite signed
sum over set partitions, exact over the rationals.

``theta`` is the compact-type evaluation of a kappa-monomial times a
psi-monomial.  The ``mu`` family is the smooth-locus analogue together
with its two partially-separated variants; the three are related by
inclusion-exclusion over merges of the kappa indices.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, inf

from .exact import double_factorial, factorial, multinomial
from .partitions import merge_sign, merge_sum, partition, set_partition_totals, shared_work

# Largest psi exponent sum ``theta`` takes.  On a 2-vCPU machine theta of
# 198 ones with 4000 psi ones takes 6.1 s; [1] with 120000 psi ones took 12 s.
MAX_PSI = 4000


def complementary_degree(g, d):
    """r = 2g-3-d, the degree paired with d; ValueError unless g >= 2 and 0 <= d <= 2g-3."""
    r = 2 * g - 3 - d
    if g < 2:
        raise ValueError("genus must be at least 2")
    if not 0 <= d <= 2 * g - 3:
        raise ValueError("degrees d = %d, r = %d out of range for genus %d" % (d, r, g))
    return r


def psi_lambda_g(tau, g):
    """Normalized compact-type socle value of a pure psi-monomial.

    ``tau`` lists the psi exponents (zeros allowed); they must sum to
    the socle degree 2g-3 + len(tau).  The value is the multinomial
    coefficient (2g-3+len(tau))! / prod(tau_i!).
    """
    tau = tuple(tau)
    if any(t < 0 for t in tau):
        raise ValueError("psi exponents must be nonnegative")
    top = 2 * g - 3 + len(tau)
    if sum(tau) != top:
        raise ValueError(
            "psi exponents sum to %d, socle degree needs %d" % (sum(tau), top)
        )
    return multinomial(top, tau)


def psi_lambda_g_lambda_g1(sigma, g):
    """Normalized smooth-locus socle value of a pure psi-monomial.

    ``sigma`` must be a partition (positive parts) of g-2+len(sigma).
    Returns an exact Fraction.
    """
    sigma = partition(sigma)
    n = len(sigma)
    if sum(sigma) != g - 2 + n:
        raise ValueError(
            "psi exponents sum to %d, smooth socle needs %d" % (sum(sigma), g - 2 + n)
        )
    num = factorial(2 * g - 3 + n) * double_factorial(2 * g - 1)
    den = factorial(2 * g - 1)
    for s in sigma:
        den *= double_factorial(2 * s + 1)
    return Fraction(num, den)


def theta(sigma, tau=()):
    """Compact-type evaluation of kappa_sigma * psi^tau, normalized.

    Inclusion-exclusion over set partitions of the kappa index set;
    every summand is a multinomial coefficient, so the result is an
    integer.  Both arguments are partitions; tau may be empty.  A psi
    exponent sum above ``MAX_PSI`` raises ValueError.
    """
    return _theta(partition(sigma), partition(tau))


@lru_cache(maxsize=None)
def _theta(sigma, tau):
    # a block with part sum s_B fills s_B + 1 slots, so k blocks fill
    # |sigma| + k; spreading those and the psi parts over |sigma| + k + |tau|
    # gives the summand multinomial(|sigma| + k; s_B + 1, ...), in the count,
    # times C(|sigma| + k + |tau|, |tau|) * multinomial(|tau|; tau)
    size = sum(tau)
    if size > MAX_PSI:
        raise ValueError("psi exponents sum to %d, above the cap %d" % (size, MAX_PSI))
    total = 0
    for (k, slots), count in set_partition_totals((sigma,), _theta_slots, _one).items():
        term = count * comb(slots + size, size)
        total += term if (k + len(sigma)) % 2 == 0 else -term
    return total * multinomial(size, tau)


def shared_theta_work(sigmas, cap=inf):
    """The kernel work of ``theta`` over the partitions ``sigmas``, each shared memo state once.

    At most the sum of their works alone; the count stops once it passes ``cap``.
    """
    return shared_work(sigmas, _theta_slots, cap)


def _theta_slots(block):
    return sum(block) + 1


def _one(block):
    return 1


@lru_cache(maxsize=None)
def _mu_sum(sigma, tau, separate_tau, separate_sigma):
    # the summand (2|sigma| + 2|tau| + k + 1)! / prod (2 s_B + 1)!! is an
    # integer: a block with part sum s_B fills 2 s_B + 1 slots, and
    # (2 s_B + 1)! / (2 s_B + 1)!! = (2 s_B)!!
    caps = (1 if separate_sigma else None, 1 if separate_tau else None)
    total = 0
    totals = set_partition_totals((sigma, tau), _mu_slots, _mu_factor, caps)
    for (k, slots), count in totals.items():
        term = (slots + 1) * count
        total += term if (k + len(sigma) + len(tau)) % 2 == 0 else -term
    return total


def _mu_slots(block):
    return 2 * sum(block) + 1


def _mu_factor(block):
    return factorial(sum(block)) << sum(block)  # (2s)!! = 2^s s!


def mu(sigma, tau=()):
    """Smooth-locus evaluation of kappa_sigma * kappa_tau, normalized."""
    return _mu_sum(partition(sigma), partition(tau), False, False)


def mu_prime(sigma, tau=()):
    """Variant of ``mu`` whose sum keeps only set partitions separating the tau indices."""
    return _mu_sum(partition(sigma), partition(tau), True, False)


def mu_dprime(sigma, tau=()):
    """Variant of ``mu`` separating both the tau indices and the sigma indices."""
    return _mu_sum(partition(sigma), partition(tau), True, True)


def mu_from_mu_prime(sigma, tau):
    """Reassemble mu(sigma, tau) from mu_prime by merging tau indices."""
    sigma = partition(sigma)
    return merge_sum(partition(tau), merge_sign, lambda t: mu_prime(sigma, t))


def mu_prime_from_mu_dprime(sigma, tau):
    """Reassemble mu_prime(sigma, tau) from mu_dprime by merging sigma indices."""
    tau = partition(tau)
    return merge_sum(partition(sigma), merge_sign, lambda s: mu_dprime(s, tau))
