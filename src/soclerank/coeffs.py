"""Linear forms on the kappa-monomial basis and their expansion coefficients.

Every decorated boundary stratum pairs against the kappa monomials of
degree d, giving a linear form on P(d).  The forms attached to pure
strata, normalized to 1 on their own partition, are a triangular basis;
the coefficients of any stratum row in that basis are the c values that
the housing criterion predicts to vanish.  The eta family, the phi
transform and the block count factors connect those coefficients to the
mu integrals from the socle module.
"""

from collections import namedtuple
from functools import lru_cache
from math import prod

from .exact import double_factorial, factorial
from .partitions import (
    MAX_WORK,
    automorphism_count,
    enumerate_partitions,
    merge_sign,
    merge_sum,
    partition,
    position,
    unions,
)
from .socle import mu_dprime, shared_theta_work, theta

# Highest degree ``c_expansion`` takes: m_basis(d) holds p(d) forms of p(d)
# values.  On a 2-vCPU machine degree 21 takes 5 s, 23 took 11 s, 28 over 100 s.
MAX_DEGREE = 21
# Caps on the distinct thetas of one outside row, within a 10 s answer: the
# work of the kernel states they share, each counted once, and their
# len(sigma) * sum(tau) psi multiplications (~1 us).
MAX_ROW_WORK, MAX_ROW_PSI = MAX_WORK // 3, 10**6


class LinearForm(namedtuple("LinearForm", "degree values")):
    """Values of a linear functional on P(degree), in canonical order."""

    __slots__ = ()

    def __new__(cls, degree, values):
        if len(values) != len(enumerate_partitions(degree)):
            raise ValueError("form must carry one value per partition")
        return super().__new__(cls, degree, values)

    def __call__(self, pi):
        return self.values[position(self.degree)[partition(pi)]]

    def items(self):
        return tuple(zip(enumerate_partitions(self.degree), self.values))


def tabulate(d, func):
    return LinearForm(d, tuple(func(p) for p in enumerate_partitions(d)))


def m_form(lam):
    """The normalized pure-stratum form: 1 at lam, 0 off refinements of lam."""
    # the pure row of lam sums over refining maps onto lam; they come in
    # orbits of aut(lam) under permuting equal parts of lam, each orbit one
    # set partition of pi with block sums lam
    lam = partition(lam)
    aut = automorphism_count(lam)
    row = pure_row(lam)
    return LinearForm(row.degree, tuple(x // aut for x in row.values))


def pure_row(lam):
    """Pairing row of the pure stratum of lam: one undecorated vertex per part."""
    lam = partition(lam)
    return LinearForm(sum(lam), stratum_row(tuple((part, (), ()) for part in lam)))


@lru_cache(maxsize=None)
def m_basis(d):
    """The pure forms' values, as (lam, values) pairs in canonical partition order."""
    return tuple((lam, m_form(lam).values) for lam in enumerate_partitions(d))


def v_form(data, d):
    """Pairing row of a decorated boundary stratum against kappa monomials.

    ``data`` lists per-vertex triples (socle remainder, kappa decoration,
    psi decoration); remainders must sum to d.  The row is the product
    of the one-vertex rows; a zero remainder only scales it by theta.
    A degree above ``MAX_DEGREE`` or a row past ``MAX_ROW_WORK`` or
    ``MAX_ROW_PSI`` raises ValueError before any theta is computed.
    """
    constant, targets = _checked(data, d)
    return LinearForm(d, tuple(constant * x for x in stratum_row(targets)))


def _checked(data, d):
    # outside data with nonnegative remainders summing to d, split if in the caps
    _check_degree(d)  # before the checks list P(m)
    triples = tuple((m, partition(kap), partition(psi)) for m, kap, psi in data)
    if any(m < 0 for m, _, _ in triples):
        raise ValueError("socle remainders must be nonnegative")
    if sum(m for m, _, _ in triples) != d:
        raise ValueError("remainders sum to %d, expected %d" % (sum(m for m, _, _ in triples), d))
    thetas = {(partition(pi + kap), psi)
              for m, kap, psi in triples for pi in enumerate_partitions(m)}
    work = shared_theta_work({sigma for sigma, _ in thetas}, MAX_ROW_WORK)
    psi_work = sum(len(sigma) * sum(tau) for sigma, tau in thetas)
    if work > MAX_ROW_WORK or psi_work > MAX_ROW_PSI:
        raise ValueError("row too large: thetas share work at least %d (cap %d), "
                         "psi work %d (cap %d)" % (work, MAX_ROW_WORK, psi_work, MAX_ROW_PSI))
    return _split_vertices(triples)


def _split_vertices(data):
    # a zero-remainder vertex only scales the row by its theta value; the
    # others stay (m, kappa, psi) triples in descending order, as within each
    # datum of ``strata.reduced_data`` (which yields the data ascending)
    constant = prod(theta(kap, psi) for m, kap, psi in data if not m)
    return constant, tuple(sorted((v for v in data if v[0]), reverse=True))


@lru_cache(maxsize=None)
def stratum_row(targets):
    """Unchecked row on P(d) of sorted nonzero (m, kappa, psi) triples summing to d."""
    # one vertex pairs pi with theta(pi + kappa; psi); a refining map onto more
    # sends a labeled sub-multiset of pi to the first vertex and the rest onto
    # the others, their ``product``; no vertex leaves (1,)
    if not targets:
        return (1,)
    (m, kap, psi), d = targets[0], sum(v[0] for v in targets)
    if len(targets) == 1:
        return tuple(theta(partition(pi + kap), psi) for pi in enumerate_partitions(m))
    return product(stratum_row(targets[:1]), stratum_row(targets[1:]), m, d - m)


def product(head, tail, m, n):
    """Row on P(m + n) of rows on P(m) and P(n); commutative, as ways is symmetric."""
    # each pair (s, t) of the unions table adds ways * head[s] * tail[t] at s + t
    row = [0] * len(enumerate_partitions(m + n))
    for h, pairs in zip(head, unions(m, n)):
        if h:
            for (k, ways), t in zip(pairs, tail):
                row[k] += ways * h * t
    return tuple(row)


def c_expansion(form):
    """Coefficients of ``form`` in the pure basis, by forward substitution.

    The basis is unitriangular against refinement when walked in length
    order, so each coefficient is the residual value at its own
    partition.  A degree above ``MAX_DEGREE`` raises ValueError.
    """
    _check_degree(form.degree)
    basis = m_basis(form.degree)
    coeffs = []
    for i, value in enumerate(form.values):
        coeffs.append(value - sum(c * row[i] for c, (_, row) in zip(coeffs, basis)))
    return dict(zip((lam for lam, _ in basis), coeffs))


def _check_degree(d):
    if d > MAX_DEGREE:
        raise ValueError("degree %d exceeds the expansion cap %d" % (d, MAX_DEGREE))


def _stratum_data(gamma, kappas, psis):
    gamma = tuple(gamma)
    k = len(gamma)
    kappas = ((),) * k if kappas is None else tuple(partition(p) for p in kappas)
    psis = ((),) * k if psis is None else tuple(partition(p) for p in psis)
    if len(kappas) != k or len(psis) != k:
        raise ValueError("need one decoration per gamma part")
    return tuple(zip(gamma, kappas, psis))


@lru_cache(maxsize=None)
def _expansion(targets, d):
    _check_degree(d)  # before the row lists P(d)
    return c_expansion(LinearForm(d, stratum_row(targets)))


def c_coefficient(lam, gamma, kappas=None, psis=None):
    """Coefficient of the pure form at ``lam`` in a decorated stratum row.

    ``gamma`` lists the socle remainders of the stratum; ``kappas`` and
    ``psis`` give one decoration partition per remainder (default empty).
    """
    lam = partition(lam)
    constant, targets = _checked(_stratum_data(gamma, kappas, psis), sum(lam))
    return constant * _expansion(targets, sum(lam))[lam]


def phi_inverse_transform(form):
    """The alternating merge sum: value at tau sums the form over coarsenings."""
    values = dict(form.items())
    return tabulate(form.degree, lambda tau: merge_sum(tau, merge_sign, values.__getitem__))


def phi_transform(form):
    """Two-sided inverse of phi_inverse_transform: the merge sum with block weight (|B|-1)!.

    Block weights w(|B|) compose like exponential generating functions.
    The sign weight has e.g.f. 1 - e^(-x) and (|B|-1)! has -log(1 - x);
    the two are compositional inverses (Stanley, EC2, section 5.1).
    """
    values = dict(form.items())
    return tabulate(form.degree, lambda tau: merge_sum(tau, _cycle_weight, values.__getitem__))


def _cycle_weight(block):
    # the number of cyclic orders of the block
    return factorial(len(block) - 1)


def _check_sigma(sigma, g, r):
    # the canonical sigma, once it fits the degree r of genus g
    sigma = partition(sigma)
    if not 0 <= r <= g - 2:
        raise ValueError("need 0 <= r <= g-2")
    if sum(sigma) != g - 2 - r:
        raise ValueError("sigma must have size %d" % (g - 2 - r))
    if len(sigma) > r + 1:
        raise ValueError("sigma may have at most %d parts" % (r + 1))
    return sigma


def eta_form(sigma, g, r):
    """Expansion coefficients of kappa-decorated one-vertex rows, as a form in tau.

    The reference partition is the odd lift of sigma padded with ones to
    length r+1; the value at tau is the coefficient of that partition in
    the one-vertex row of degree 2g-3-r carrying kappa decoration tau.
    """
    sigma, d = _check_sigma(sigma, g, r), 2 * g - 3 - r
    lam = partition(tuple(2 * s + 1 for s in sigma) + (1,) * (r + 1 - len(sigma)))
    return tabulate(r, lambda tau: _expansion(((d, tau, ()),), d)[lam])


def eta_prime_form(sigma, g, r):
    """The eta row pushed through the phi transform."""
    return phi_transform(eta_form(sigma, g, r))


def eta_dprime_form(sigma, g, r):
    """eta_prime divided by (r+1-len(sigma))!, checked to stay integral."""
    return _eta_dprime(_check_sigma(sigma, g, r), g, r)


@lru_cache(maxsize=None)
def _eta_dprime(sigma, g, r):
    k = factorial(r + 1 - len(sigma))
    vals = []
    for v in eta_prime_form(sigma, g, r).values:
        q, rem = divmod(v, k)
        if rem:
            raise ArithmeticError("eta_prime value %r not divisible by %d" % (v, k))
        vals.append(q)
    return LinearForm(r, tuple(vals))


def block_factor(block):
    """Orderings of the comb symbols of the parts in ``block``, end marker included.

    Value (2*s + b + 1)! / prod (2*v + 1)!! over the part values v of the
    block, where s is the block sum and b the block size; always a
    positive integer, being (2*s + b + 1) times the comb count of the block.
    """
    block = tuple(block)
    if not block:
        raise ValueError("block must be nonempty")
    return factorial(2 * sum(block) + len(block) + 1) // prod(double_factorial(2 * v + 1)
                                                              for v in block)


def verify_triangular_identity(sigma, g, r):
    """Check the block-factor expansion of mu_dprime over eta_dprime rows.

    For every tau of size r, mu_dprime(sigma, tau) must equal the sum
    over set partitions of the index set of sigma of the product of
    block factors times eta_dprime at the merged sigma.
    """
    sigma = _check_sigma(sigma, g, r)
    for i, tau in enumerate(enumerate_partitions(r)):
        rhs = merge_sum(sigma, block_factor, lambda merged: _eta_dprime(merged, g, r).values[i])
        if mu_dprime(sigma, tau) != rhs:
            return False
    return True
