"""
Exact socle evaluations
=======================

The two evaluation families at the heart of the package: theta for the
compact type pairing and the mu family for the smooth locus.  Both are
normalized so the pure psi value is the unit, which makes every value
an exact integer independent of the genus.
"""

from fractions import Fraction

from soclerank import (
    complementary_degree,
    mu,
    mu_dprime,
    mu_prime,
    psi_lambda_g,
    psi_lambda_g_lambda_g1,
    theta,
)

# the un-normalized building blocks still know about the genus
print("pure psi pairing, g=2, tau=(2,):", psi_lambda_g((2,), 2))
print("pure psi pairing, g=3, tau=(2,2,2,1):", psi_lambda_g((2, 2, 2, 1), 3))
print("smooth pairing, g=2, sigma=(1,):", psi_lambda_g_lambda_g1((1,), 2))
assert psi_lambda_g_lambda_g1((1,), 2) == Fraction(1, 3)

# degree d and complementary degree r = 2g-3-d determine each other
# through the socle degree 2g-3
print("complementary degree, g=4, d=3:", complementary_degree(4, 3))

# theta(sigma, tau) is the normalized kappa-psi evaluation; the genus
# has dropped out completely
print()
print("theta((1,1)) =", theta((1, 1)))
print("theta((2,1)) =", theta((2, 1)))
print("theta((1,1,1)) =", theta((1, 1, 1)))
print("theta((1,), (1,1)) =", theta((1,), (1, 1)))

# a single kappa index is always worth 1, and a pure psi input is a
# plain multinomial coefficient
assert theta((7,)) == 1
assert theta((), (2, 1)) == 3

# the mu family: plain, tau-separated, and fully separated variants
print()
for sigma, tau in (((), ()), ((), (1,)), ((1,), (1,)), ((1, 1), ())):
    print(
        "sigma=%-6r tau=%-6r  mu=%-6d mu'=%-6d mu''=%d"
        % (sigma, tau, mu(sigma, tau), mu_prime(sigma, tau), mu_dprime(sigma, tau))
    )

# every value above is a nonnegative integer even though the definition
# sums signed rationals over set partitions
print()
print("all integral, as promised")
