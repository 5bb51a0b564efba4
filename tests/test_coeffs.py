import random

import pytest

import soclerank.coeffs as coeffs
from soclerank.coeffs import (
    LinearForm,
    block_factor,
    c_coefficient,
    c_expansion,
    eta_dprime_form,
    eta_form,
    eta_prime_form,
    m_form,
    phi_inverse_transform,
    phi_transform,
    tabulate,
    v_form,
    verify_triangular_identity,
)
from soclerank.oracles import count_a1
from soclerank.partitions import (
    automorphism_count,
    enumerate_partitions,
    enumerate_refining_functions,
)
from soclerank.ranks import verify_rank_theorem, verify_span_equality
from soclerank.socle import mu, mu_prime, theta
from soclerank.strata import _triples


def test_linear_form_basics():
    form = LinearForm(2, (3, 7))
    assert form((2,)) == 3 and form((1, 1)) == 7
    assert form.items() == (((2,), 3), ((1, 1), 7))
    with pytest.raises(ValueError):
        LinearForm(2, (3,))
    with pytest.raises(ValueError):  # a partition of another degree
        form((3,))


def test_m_form_unit_diagonal():
    for d in range(0, 8):
        for lam in enumerate_partitions(d):
            assert m_form(lam)(lam) == 1


def test_m_form_triangular():
    for d in range(0, 7):
        for lam in enumerate_partitions(d):
            form = m_form(lam)
            for pi in enumerate_partitions(d):
                if not enumerate_refining_functions(lam, pi):
                    assert form(pi) == 0


def test_m_form_single_part_is_theta():
    for d in range(1, 7):
        form = m_form((d,))
        for pi in enumerate_partitions(d):
            assert form(pi) == theta(pi)


def test_m_form_pinned_value():
    assert m_form((2, 1))((1, 1, 1)) == 15


def test_v_form_two_points():
    form = v_form(((1, (), ()), (1, (), ())), 2)
    assert form((2,)) == 0
    assert form((1, 1)) == 2


def test_v_form_pure_is_aut_times_m():
    for d in range(0, 6):
        for lam in enumerate_partitions(d):
            pure = v_form(tuple((p, (), ()) for p in lam), d)
            aut = automorphism_count(lam)
            assert pure.values == tuple(
                aut * x for x in m_form(lam).values
            )


def test_v_form_kappa_shift():
    form = v_form(((2, (1,), ()),), 2)
    assert form((2,)) == theta((2, 1)) == 9
    assert form((1, 1)) == theta((1, 1, 1)) == 61


def test_v_form_zero_remainder_constant():
    base = v_form(((3, (), ()),), 3)
    shifted = v_form(((3, (), ()), (0, (1,), (1, 1))), 3)
    assert theta((1,), (1, 1)) == 12
    assert shifted.values == tuple(12 * x for x in base.values)


def test_v_form_validation():
    with pytest.raises(ValueError):
        v_form(((-1, (), ()), (3, (), ())), 2)
    with pytest.raises(ValueError):
        v_form(((1, (), ()),), 2)


def test_c_pure_coefficients():
    for d in range(0, 6):
        for lam in enumerate_partitions(d):
            for gamma in enumerate_partitions(d):
                expected = automorphism_count(lam) if lam == gamma else 0
                assert c_coefficient(lam, gamma) == expected


def test_c_pinned_values():
    assert c_coefficient((1, 1), (2,)) == 0
    assert c_coefficient((1, 1), (2,), ((1,),)) == 16


def test_row_caps_accept_small_decorations_at_high_degree():
    # the caps weigh what a row costs, counting the kernel states its thetas
    # share once, so a few kappa parts or psi ones pass at degrees 18-21;
    # the checks compute no theta
    for data in [((21, (1,), ()),), ((21, (), (1, 1, 1)),), ((18, (), (1,) * 6),),
                 ((21, (2,), ()),), ((21, (1, 1), ()),), ((18, (1,) * 6, ()),)]:
        coeffs._checked(data, sum(m for m, _, _ in data))


def test_internal_rows_skip_the_row_caps(monkeypatch):
    # kappa and eta rows come from canonical data; the caps guard the
    # outside entries v_form and c_coefficient alone
    monkeypatch.setattr(coeffs, "MAX_ROW_WORK", 0)
    assert verify_rank_theorem(5, 1)["ok"] and verify_span_equality(6, 1)["ok"]
    with pytest.raises(ValueError, match="row too large"):
        v_form(((2, (), ()),), 2)
    with pytest.raises(ValueError, match="row too large"):
        c_coefficient((1, 1), (2,))


def test_one_vertex_rows_equal_the_public_theta():
    # the one-vertex branch of stratum_row reads the theta memo on the merged,
    # sorted pi + kappa; the public theta canonicalizes and checks its input
    unsorted = decorated = 0
    for m in range(1, 9):
        for triple, _, _ in _triples(m, m - 1, 2 * m - 4):
            _, kap, psi = triple
            pis = enumerate_partitions(m)
            assert coeffs.stratum_row((triple,)) == tuple(theta(pi + kap, psi) for pi in pis)
            unsorted += any(kap and kap[0] > pi[-1] for pi in pis)
            decorated += bool(psi)
    assert unsorted and decorated


def test_c_expansion_reconstructs_form():
    rng = random.Random(11)
    for d in range(0, 6):
        parts = enumerate_partitions(d)
        form = LinearForm(d, tuple(rng.randrange(-9, 10) for _ in parts))
        coeffs = c_expansion(form)
        rebuilt = tabulate(
            d, lambda pi: sum(coeffs[lam] * m_form(lam)(pi) for lam in parts)
        )
        assert rebuilt.values == form.values


def test_phi_round_trips():
    # phi_transform is the closed-form merge sum, not built from the inverse,
    # so both compositions are real checks
    rng = random.Random(47)

    def check(d):
        parts = enumerate_partitions(d)
        form = LinearForm(d, tuple(rng.randrange(-20, 21) for _ in parts))
        assert phi_transform(phi_inverse_transform(form)).values == form.values
        assert phi_inverse_transform(phi_transform(form)).values == form.values
        # both transforms fix the value at the one-part partition
        if d >= 1:
            assert phi_transform(form)((d,)) == form((d,))

    for _ in range(20):
        check(rng.randrange(0, 7))
    for d in range(0, 9):
        for _ in range(3):
            check(d)


def test_phi_connects_mu_and_mu_prime():
    for s in range(0, 3):
        for sigma in enumerate_partitions(s):
            for r in range(0, 5 - s):
                prime_row = tabulate(r, lambda tau: mu_prime(sigma, tau))
                plain_row = tabulate(r, lambda tau: mu(sigma, tau))
                assert phi_inverse_transform(prime_row).values == plain_row.values


def test_eta_pinned_values():
    assert eta_form((), 3, 1)((1,)) == 16
    assert eta_prime_form((), 3, 1)((1,)) == 16
    assert eta_dprime_form((), 3, 1)((1,)) == 8


def test_eta_argument_validation():
    with pytest.raises(ValueError):
        eta_form((1,), 3, 1)  # wrong size
    with pytest.raises(ValueError):
        eta_form((1, 1), 4, 0)  # too many parts
    with pytest.raises(ValueError):
        eta_form((), 3, 2)  # r above g-2


def test_eta_prime_matches_word_count():
    for g in range(2, 5):
        for r in range(0, g - 1):
            for sigma in enumerate_partitions(g - 2 - r):
                if len(sigma) > r + 1:
                    continue
                lam = tuple(
                    sorted(
                        tuple(2 * s + 1 for s in sigma)
                        + (1,) * (r + 1 - len(sigma)),
                        reverse=True,
                    )
                )
                form = eta_prime_form(sigma, g, r)
                for tau in enumerate_partitions(r):
                    cost = sum(lam) + len(lam) + sum(tau) + len(tau)
                    if cost <= 8:
                        assert form(tau) == count_a1(lam, tau)


def test_eta_dprime_integral_on_grid():
    for g in range(2, 6):
        for r in range(0, g - 1):
            for sigma in enumerate_partitions(g - 2 - r):
                if len(sigma) > r + 1:
                    continue
                form = eta_dprime_form(sigma, g, r)
                assert all(isinstance(v, int) for v in form.values)


def test_block_factor_values():
    assert block_factor((0,)) == 2
    assert block_factor((1,)) == 8
    assert block_factor((0, 0)) == 6
    with pytest.raises(ValueError):
        block_factor(())


def test_triangular_identity_spots():
    assert verify_triangular_identity((), 2, 0)
    assert verify_triangular_identity((1,), 3, 0)
    assert verify_triangular_identity((2,), 4, 0)
    assert verify_triangular_identity((1, 1), 5, 1)
    assert verify_triangular_identity((2, 1), 6, 1)


def test_triangular_identity_reads_each_row_once_and_stops_at_a_mismatch(monkeypatch):
    # one read of the coarsenings per call; a wrong first eta_dprime value
    # fails at the first tau, and no later tau is compared
    reads, taus = [], []
    real_coarsenings, real_eta, real_mu = coeffs.coarsenings, eta_dprime_form, coeffs.mu_dprime
    monkeypatch.setattr(coeffs, "coarsenings", lambda *a: reads.append(a) or real_coarsenings(*a))
    monkeypatch.setattr(coeffs, "mu_dprime", lambda s, t: taus.append(t) or real_mu(s, t))
    assert verify_triangular_identity((2, 1), 7, 2)
    assert (len(reads), taus) == (1, [(2,), (1, 1)])

    def corrupted(sigma, g, r):
        values = real_eta(sigma, g, r).values
        return LinearForm(r, (values[0] + 1,) + values[1:])

    monkeypatch.setattr(coeffs, "eta_dprime_form", corrupted)
    reads.clear()
    taus.clear()
    assert not verify_triangular_identity((2, 1), 7, 2)
    assert (len(reads), taus) == (1, [(2,)])
