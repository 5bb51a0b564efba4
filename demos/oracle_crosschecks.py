"""
Brute-force oracles
===================

Every closed-form count in the package has an independent brute-force
twin that counts words under conditions stated literally, one path
through the (placed set, last symbol) states per word.  The oracles
import nothing from the formula modules, so agreement is meaningful
evidence, not circularity.  Each one refuses inputs beyond its symbol
budget, and any budget above 16 symbols, instead of silently taking
hours.
"""

from soclerank import (
    comb_count,
    count_a1,
    count_a4,
    count_b2,
    count_comb_linear_extensions,
    count_lemma_tool,
    count_main_claim,
    enumerate_partitions,
    eta_dprime_form,
    eta_prime_form,
    mu_dprime,
    theta,
)

# theta vs the adjacency-condition word count
print("theta oracle:")
for sigma, tau in (((1, 1), ()), ((2, 1), ()), ((1,), (1, 1))):
    print(
        "  sigma=%r tau=%r: formula=%d oracle=%d"
        % (sigma, tau, theta(sigma, tau), count_lemma_tool(sigma, tau))
    )
# one instance of 14 symbols, over 10^9 words, with the budget raised
sigma, tau = (1, 1, 1), (2, 1, 1, 1, 1, 1, 1)
print(
    "  sigma=%r tau=%r (14 symbols): formula=%d oracle=%d"
    % (sigma, tau, theta(sigma, tau), count_lemma_tool(sigma, tau, max_symbols=14))
)

# the oracle also certifies that the count ignores the chosen total
# order on the kappa indices
orders = [(0, 1), (1, 0)]
print("  order independence:", {count_lemma_tool((2, 1), (), o) for o in orders})

# comb-like linear extension counts vs the factorial ratio
print()
print("comb-like orders:")
for pi in ((), (1,), (2,), (1, 1)):
    print(
        "  pi=%r: formula=%d oracle=%d"
        % (pi, comb_count(pi), count_comb_linear_extensions(pi))
    )

# averaged word count vs the expansion coefficient (here eta at tau=(1))
print()
print("main claim: count_main_claim((1,1), (1,)) =", count_main_claim((1, 1), (1,)))

# the remaining interpretations pin the eta' / eta'' / mu'' variants
print()
print("a1 vs eta':", count_a1((1, 1), (1,)), "=", eta_prime_form((), 3, 1)((1,)))
print("a4 vs eta'':", count_a4((), (1,), 1), "=", eta_dprime_form((), 3, 1)((1,)))
print("b2 vs mu'':", count_b2((1, 1), ()), "=", mu_dprime((1, 1), ()))

# a small sweep, every cell exact
print()
bad = 0
for s in range(0, 3):
    for sigma in enumerate_partitions(s):
        for t in range(0, 3 - s):
            for tau in enumerate_partitions(t):
                if count_b2(sigma, tau) != mu_dprime(sigma, tau):
                    bad += 1
print("b2 sweep mismatches:", bad)

# oversized inputs fail fast
try:
    count_lemma_tool((6, 5), (4,))
except ValueError as exc:
    print("budget guard:", exc)
try:
    count_lemma_tool((1,), max_symbols=17)
except ValueError as exc:
    print("ceiling:", exc)
