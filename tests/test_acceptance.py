"""End-to-end acceptance checks, one test and one printed verdict per claim.

Every comparison below is an exact equality of integers or rationals;
there are no tolerances anywhere.  Each test sweeps its full advertised
grid, collects any mismatches, prints a single PASS/FAIL line, and only
then asserts, so a red run still reports every claim's status.
"""

from itertools import permutations

from soclerank.coeffs import (
    LinearForm,
    c_coefficient,
    eta_dprime_form,
    phi_inverse_transform,
    phi_transform,
    verify_triangular_identity,
)
from soclerank.exact import comb_count
from soclerank.oracles import (
    count_a4,
    count_b2,
    count_comb_linear_extensions,
    count_lemma_tool,
    count_main_claim,
)
from soclerank.partitions import enumerate_partitions
from soclerank.ranks import (
    verify_housing_theorem,
    verify_length_restriction,
    verify_rank_theorem,
    verify_span_equality,
)
from soclerank.socle import (
    mu,
    mu_dprime,
    mu_from_mu_prime,
    mu_prime,
    mu_prime_from_mu_dprime,
    theta,
)
from soclerank.strata import (
    build_housing_tree,
    enumerate_boundary_generators,
    enumerate_pure_housing_partitions,
    housing_data,
    is_housing_partition,
)


def _report(capsys, index, description, failures):
    verdict = "PASS" if not failures else "FAIL (%d cases)" % len(failures)
    with capsys.disabled():
        print("criterion %d (%s): %s" % (index, description, verdict))
    assert not failures, failures[:5]


def test_criterion_1_housing_rank_grid(capsys):
    failures = []
    cells = [(g, d) for g in range(2, 11) for d in range(0, 2 * g - 3)]
    for g, d in cells:
        report = verify_housing_theorem(g, d)
        if not report["ok"]:
            failures.append((g, d, report))
    _report(
        capsys, 1, "boundary pairing ranks match the counting formula", failures
    )


def test_criterion_2_rank_additivity_grid(capsys):
    failures = []
    for g in range(2, 11):
        for r in range(0, g - 1):
            report = verify_rank_theorem(g, r)
            if not report["ok"]:
                failures.append((g, r, report))
    _report(
        capsys, 2, "stacked rank splits into boundary plus smooth", failures
    )


def test_criterion_3_theta_word_oracle(capsys):
    failures = []
    for pinned, expected in (((1, 1), 5), ((2, 1), 9), ((1, 1, 1), 61)):
        if not theta(pinned) == count_lemma_tool(pinned) == expected:
            failures.append(("pinned", pinned, expected))
    for s in range(0, 12):
        for sigma in enumerate_partitions(s):
            base = s + len(sigma)
            if base > 11:
                continue
            for t in range(0, 12 - base):
                for tau in enumerate_partitions(t):
                    expected = theta(sigma, tau)
                    if count_lemma_tool(sigma, tau, max_symbols=11) != expected:
                        failures.append((sigma, tau, None))
                    if 2 <= len(sigma) <= 3:
                        for order in permutations(range(len(sigma))):
                            if count_lemma_tool(sigma, tau, order, 11) != expected:
                                failures.append((sigma, tau, order))
    _report(capsys, 3, "theta equals the adjacency word count", failures)


def test_criterion_4_main_claim_oracle(capsys):
    failures = []
    if c_coefficient((1, 1), (2,)) != 0 or count_main_claim((1, 1)) != 0:
        failures.append(("pinned", (1, 1), 0))
    if (
        c_coefficient((1, 1), (2,), ((1,),)) != 16
        or count_main_claim((1, 1), (1,)) != 16
    ):
        failures.append(("pinned", (1, 1), 16))
    for ls in range(0, 11):
        for lam in enumerate_partitions(ls):
            base = ls + len(lam)
            if base > 10:
                continue
            for ts in range(0, 11 - base):
                for tau in enumerate_partitions(ts):
                    left = 10 - base - ts - len(tau)
                    if left < 0:
                        continue
                    for rs in range(0, left + 1):
                        for rho in enumerate_partitions(rs):
                            value = c_coefficient(lam, (ls,), (tau,), (rho,))
                            oracle = count_main_claim(lam, tau, rho)
                            if value != oracle:
                                failures.append((lam, tau, rho, value, oracle))
                            elif not (isinstance(value, int) and value >= 0):
                                failures.append((lam, tau, rho, value, "type"))
    _report(capsys, 4, "coefficients equal the averaged word count", failures)


def test_criterion_5_identity_pipeline(capsys):
    failures = []
    for d in range(0, 7):
        width = len(enumerate_partitions(d))
        for i in range(width):
            delta = LinearForm(d, tuple(int(j == i) for j in range(width)))
            back = phi_transform(phi_inverse_transform(delta))
            forth = phi_inverse_transform(phi_transform(delta))
            if back.values != delta.values or forth.values != delta.values:
                failures.append(("round-trip", d, i))
    for s in range(0, 6):
        for sigma in enumerate_partitions(s):
            for t in range(0, 6 - s):
                for tau in enumerate_partitions(t):
                    if mu(sigma, tau) != mu_from_mu_prime(sigma, tau):
                        failures.append(("reassemble-mu", sigma, tau))
                    if mu_prime(sigma, tau) != mu_prime_from_mu_dprime(sigma, tau):
                        failures.append(("reassemble-mu-prime", sigma, tau))
    for g in range(2, 8):
        for r in range(0, g - 1):
            for sigma in enumerate_partitions(g - 2 - r, r + 1):
                if not verify_triangular_identity(sigma, g, r):
                    failures.append(("triangular", sigma, g, r))
    for g in range(2, 8):
        for r in range(0, g - 1):
            if not verify_span_equality(g, r)["ok"]:
                failures.append(("span", g, r))
            if not verify_length_restriction(g, r)["ok"]:
                failures.append(("length", g, r))
    _report(capsys, 5, "transform and reassembly identities", failures)


def test_criterion_6_housing_enumeration(capsys):
    failures = []
    for g in range(2, 9):
        for d in range(0, 2 * g - 3):
            enumerated = enumerate_pure_housing_partitions(g, d)
            predicate = {
                sigma
                for sigma in enumerate_partitions(d)
                if is_housing_partition(sigma, g, d)
            }
            if enumerated != predicate:
                failures.append(("set", g, d))
            for sigma in sorted(predicate):
                tree = build_housing_tree(sigma, g, d)
                if tree.genus != g or housing_data(tree) != sigma:
                    failures.append(("rebuild", g, d, sigma))
    _report(
        capsys, 6, "housing partitions enumerate and rebuild exactly", failures
    )


def test_criterion_7_vanishing(capsys):
    failures = []
    for g in range(2, 8):
        for d in range(0, 2 * g - 2):
            lams = enumerate_partitions(d)
            non_housing = [
                lam for lam in lams if not is_housing_partition(lam, g, d)
            ]
            for data in enumerate_boundary_generators(g, d):
                gamma = tuple(m for m, _, _ in data)
                kappas = tuple(kap for _, kap, _ in data)
                psis = tuple(psi for _, _, psi in data)
                decorated = sum(map(sum, kappas)) + sum(map(sum, psis))
                for lam in lams:
                    if decorated + len(gamma) < len(lam):
                        if c_coefficient(lam, gamma, kappas, psis) != 0:
                            failures.append(("short-data", g, d, lam, data))
                for lam in non_housing:
                    if c_coefficient(lam, gamma, kappas, psis) != 0:
                        failures.append(("non-housing", g, d, lam, data))
    _report(capsys, 7, "predicted vanishing coefficients are zero", failures)


def test_criterion_8_remaining_oracles(capsys):
    failures = []
    for n in range(0, 8):
        for pi in enumerate_partitions(n):
            if 2 * n + len(pi) <= 15:
                if count_comb_linear_extensions(pi, max_symbols=15) != comb_count(pi):
                    failures.append(("comb", pi))
    for s in range(0, 8):
        for sigma in enumerate_partitions(s):
            for r in range(0, 8 - s):
                if len(sigma) > r + 1:
                    continue
                g = s + 2 + r
                for tau in enumerate_partitions(r):
                    cost = 2 * (s + r) + len(sigma) + len(tau) + 1
                    if cost > 15:
                        continue
                    oracle = count_a4(sigma, tau, r, max_symbols=15)
                    if oracle != eta_dprime_form(sigma, g, r)(tau):
                        failures.append(("a4", sigma, tau, r))
    for s in range(0, 8):
        for sigma in enumerate_partitions(s):
            for t in range(0, 8 - s):
                for tau in enumerate_partitions(t):
                    cost = 2 * (s + t) + len(sigma) + len(tau) + 1
                    if cost > 15:
                        continue
                    if count_b2(sigma, tau, max_symbols=15) != mu_dprime(sigma, tau):
                        failures.append(("b2", sigma, tau))
    _report(capsys, 8, "comb, injection and star oracles match", failures)
