"""
Rank verification end to end
============================

The two headline checks: the boundary pairing rank matches the housing
count in every degree, and at the complementary degree the stacked
matrix rank splits into a boundary part and a smooth part.  Everything
is exact integer arithmetic; a report is a small dict with an ok flag.
"""

from soclerank import (
    betti_report,
    boundary_span,
    housing_rank_formula,
    verify_housing_theorem,
    verify_length_restriction,
    verify_rank_theorem,
    verify_span_equality,
)

# one cell in detail: genus 5, degree 4
g, d = 5, 4
# the pure strata rows go into an integer echelon first; a check on the
# supports of the one-vertex rows, one echelon per remainder, shows that
# they span every decorated stratum's row too; the kappa rows of
# P(2g-3-d) come last
rank_pure, rank_full, rank_stacked = boundary_span(g, d)
print("pure matrix rank:    ", rank_pure)
print("full matrix rank:    ", rank_full)
print("with kappa rows:     ", rank_stacked)
print("counting formula:    ", housing_rank_formula(g, d))
print("report:", verify_housing_theorem(g, d))

# the whole advertised grid
print()
print("housing grid g <= 5:")
for g in range(2, 6):
    for d in range(0, 2 * g - 3):
        report = verify_housing_theorem(g, d)
        print("  g=%d d=%d rank=%d ok=%s" % (g, d, report["formula"], report["ok"]))

print()
print("rank additivity g <= 5:")
for g in range(2, 6):
    for r in range(0, g - 1):
        report = verify_rank_theorem(g, r)
        print(
            "  g=%d r=%d stacked=%d boundary=%d smooth=%d ok=%s"
            % (
                g, r, report["rank_stacked"], report["rank_boundary"],
                report["rank_smooth"], report["ok"],
            )
        )

# the supporting rank facts behind the additivity statement
print()
print("span equality g=5:", [verify_span_equality(5, r)["ok"] for r in range(0, 4)])
print("length restriction g=5:", [verify_length_restriction(5, r)["ok"] for r in range(0, 4)])

# the conjectural kernel report is labeled as such and proves nothing
print()
report = betti_report(6)
print("%s kernel report, g=%d" % (report["status"], report["g"]))
for row in report["rows"]:
    print("  e=%d d=%d ambient=%d predicted kernel=%d" % (
        row["e"], row["d"], row["ambient_rank"], row["kernel_conjectural"]))
