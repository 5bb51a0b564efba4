import math
from fractions import Fraction

import pytest

from soclerank.exact import multinomial
from soclerank.partitions import enumerate_partitions
from soclerank.socle import (
    complementary_degree,
    mu,
    mu_dprime,
    mu_from_mu_prime,
    mu_prime,
    mu_prime_from_mu_dprime,
    psi_lambda_g,
    psi_lambda_g_lambda_g1,
    theta,
)


def test_complementary_degree():
    assert complementary_degree(3, 2) == 1
    assert complementary_degree(4, 0) == 5
    assert complementary_degree(4, 5) == 0
    with pytest.raises(ValueError, match="^genus must be at least 2$"):
        complementary_degree(1, 0)
    with pytest.raises(ValueError, match="^degrees d = 4, r = -1 out of range for genus 3$"):
        complementary_degree(3, 4)
    with pytest.raises(ValueError, match="^degrees d = -2, r = 5 out of range for genus 3$"):
        complementary_degree(3, -2)


def test_psi_lambda_g():
    assert psi_lambda_g((2,), 2) == 1
    assert psi_lambda_g((2, 1), 2) == 3
    assert psi_lambda_g((2, 2, 2, 1), 3) == 630
    # zeros are legal psi exponents when the dimension still matches
    assert psi_lambda_g((3, 0), 2) == 1
    with pytest.raises(ValueError):
        psi_lambda_g((1, 1), 2)
    with pytest.raises(ValueError):
        psi_lambda_g((2, 2, 1, 1), 3)
    with pytest.raises(ValueError):
        # appending a zero part changes the required total
        psi_lambda_g((2, 0), 2)
    with pytest.raises(ValueError):
        psi_lambda_g((-1, 4), 2)


def test_psi_lambda_g_lambda_g1():
    assert psi_lambda_g_lambda_g1((1,), 2) == Fraction(1, 3)
    assert psi_lambda_g_lambda_g1((2, 1), 3) == Fraction(1, 3)
    assert psi_lambda_g_lambda_g1((), 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        psi_lambda_g_lambda_g1((2,), 2)


def test_theta_values():
    assert theta(()) == 1
    assert theta((1, 1)) == 5
    assert theta((2, 1)) == 9
    assert theta((1, 1, 1)) == 61
    assert theta((3, 2, 1)) == 1107
    assert theta((1,), (1, 1)) == 12
    for m in range(1, 9):
        assert theta((m,)) == 1


def test_theta_pure_psi_is_multinomial():
    for n in range(0, 7):
        for tau in enumerate_partitions(n):
            assert theta((), tau) == multinomial(n, tau)


def test_theta_positive():
    for s in range(0, 11):
        for sigma in enumerate_partitions(s):
            for t in range(0, 11 - s):
                for tau in enumerate_partitions(t):
                    assert theta(sigma, tau) >= 1


def test_mu_values():
    assert mu((), ()) == 1
    assert mu((), (1,)) == 8
    assert mu((1,), (1,)) == 512
    assert mu_prime((), (2,)) == 48
    assert mu_dprime((1, 1), ()) == 560
    assert mu_dprime((), (1,)) == 8
    # one block: mu((s,)) = (2s + 2)!!
    assert mu((1000,)) == math.prod(range(2002, 0, -2))


def test_mu_family_relations():
    for total in range(0, 5):
        for s in range(0, total + 1):
            for sigma in enumerate_partitions(s):
                for tau in enumerate_partitions(total - s):
                    assert mu(sigma, tau) == mu_from_mu_prime(sigma, tau)
                    assert mu_prime(sigma, tau) == mu_prime_from_mu_dprime(sigma, tau)
