"""
Linear forms and expansion coefficients
=======================================

Each boundary stratum pairs against the kappa monomials of its degree,
giving a linear form on partitions.  The normalized pure forms are a
triangular basis; expanding any decorated row in that basis yields the
c coefficients, and the eta family repackages the one-vertex rows.
"""

from soclerank import (
    c_coefficient,
    c_expansion,
    count_main_claim,
    enumerate_partitions,
    eta_dprime_form,
    eta_form,
    m_form,
    phi_inverse_transform,
    phi_transform,
    v_form,
    verify_triangular_identity,
)

# the normalized pure form at (2,1): value 1 on its own partition,
# nonzero only on refinements
form = m_form((2, 1))
print("M_(2,1) values:", form.items())

# a pairing row of the two-vertex stratum with remainders (1,1)
row = v_form(((1, (), ()), (1, (), ())), 2)
print("two-vertex row:", row.items())

# expanding that row in the pure basis recovers its automorphism count
# on the diagonal and nothing else
print("expansion:", c_expansion(row))

# decorated rows pick up off-diagonal coefficients
print()
print("c((1,1); (2) with kappa (1)) =", c_coefficient((1, 1), (2,), ((1,),)))
print("same value by the word oracle:", count_main_claim((1, 1), (1,), ()))

# the phi transform is a length-triangular change of coordinates with
# an explicit inverse
print()
slot = phi_transform(row)
print("phi(row):", slot.values)
print("round trip ok:", phi_inverse_transform(slot).values == row.values)

# eta rows: one-vertex coefficients as forms in the kappa decoration
print()
print("eta for sigma=() at g=3, r=1:", eta_form((), 3, 1).items())
print("eta'' (divided variant):", eta_dprime_form((), 3, 1).items())

# the block-factor triangular identity ties eta'' back to mu''
checks = []
for g in range(2, 6):
    for r in range(0, g - 1):
        for sigma in enumerate_partitions(g - 2 - r, r + 1):
            checks.append(verify_triangular_identity(sigma, g, r))
print()
print("triangular identity on %d cells: %s" % (len(checks), all(checks)))
