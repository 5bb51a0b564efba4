"""Exact socle pairing matrices and ranks for tautological classes on moduli of curves.

Everything is exact integer or rational arithmetic: partition
combinatorics, normalized kappa-psi evaluations, boundary stratum
enumeration, expansion coefficients in the pure-stratum basis,
integer-echelon ranks of nested row blocks in one pass, and brute-force
counting oracles that cross-check every formula.  Every memo is an
unbounded ``lru_cache``; the life of the process bounds them.
"""

from .exact import comb_count, double_factorial, factorial, format_scalar, fz_count, multinomial
from .oracles import (
    count_a1,
    count_a4,
    count_b2,
    count_comb_linear_extensions,
    count_lemma_tool,
    count_main_claim,
)
from .partitions import (
    automorphism_count,
    enumerate_partitions,
    enumerate_refining_functions,
    enumerate_set_partitions,
    merge_sum,
    partition,
)
from .socle import (
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
from .strata import (
    DecoratedTree,
    build_housing_tree,
    enumerate_boundary_generators,
    enumerate_pure_housing_partitions,
    housing_data,
    is_housing_partition,
    tree_degree_multisets,
)
from .coeffs import (
    LinearForm,
    block_factor,
    tabulate,
    c_coefficient,
    c_expansion,
    eta_dprime_form,
    eta_form,
    eta_prime_form,
    m_form,
    phi_inverse_transform,
    phi_transform,
    v_form,
    verify_triangular_identity,
)
from .ranks import (
    betti_report,
    boundary_span,
    eta_matrix,
    exact_rank,
    housing_rank_formula,
    smooth_matrix,
    verify_housing_theorem,
    verify_length_restriction,
    verify_rank_theorem,
    verify_span_equality,
)

__version__ = "0.1.0"
