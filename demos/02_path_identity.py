#!/usr/bin/env python3
"""The path-sum / squared-amplitude identity, checked by brute force.

Expanding N rounds of the observed histogram over M outcomes produces
((M^2+M)/2)^N canonical terms after twin merging.  The whole sum can be
rewritten as |sum over the M^N classical paths of sqrt(prob) * exp(i*phase)|^2
once the phases solve the radix-grouped cosine constraints.  With phases
additive over rounds both sums factor, so the check solves one round,
cos(theta_a - theta_b) = d_ab, and raises both sides to the N-th power.
Two outcomes solve exactly at every feasible coupling, so the identity holds
to machine precision; three outcomes are solved to their exact minimax
residual r*, which no phase assignment can beat, and the report carries that
residual, r* and a gap bound instead.
"""

import numpy as np

from qal.core import BareDistribution, symmetric_coupling
from qal.paths import all_paths, build_constraints, census, expand_paths, identity_check, xi_sum

print("== exact census ==")
for m, n in [(2, 1), (2, 2), (3, 2), (4, 3)]:
    rep = census(m, n)
    print(
        f"M={m} N={n}: raw {rep.raw_total}, merged {rep.reduced_total}, "
        f"non-classical {rep.independent_nonclassical}"
    )

print("\n== expansion at M=2, N=1 ==")
bare = BareDistribution(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
coupling = symmetric_coupling(bare, [0.2, 0.2])
def label_row(row):
    # 1-based in displays, matching the usual outcome numbering
    return ",".join(str(int(i) + 1) for i in row)


terms = expand_paths(bare, coupling, 1)
for base, partner, value, multiplicity in zip(
    terms.base, terms.partner, terms.value, terms.multiplicity
):
    # (round, partner) of each crossing round
    crossings = [(r, int(b)) for r, b in enumerate(partner) if b >= 0]
    print(f"  path {label_row(base)} crossings {crossings} value {value:+.3f} x{multiplicity}")
print("  total:", xi_sum(bare, coupling, 1), " (= (0.4 + 0.4)^1)")

print("\n== constraints at M=2, N=2 ==")
cs = build_constraints(bare, coupling, 2)
rows = all_paths(2, 2)  # a constraint's pair indices are rows of this table
print(f"  {len(cs)} pair constraints in {cs.n_groups} radix groups")
for i, j, target in zip(cs.pair_i[:3], cs.pair_j[:3], cs.targets[:3]):
    a, b = rows[i], rows[j]
    differ = tuple(int(r) for r in np.flatnonzero(a != b))
    print(f"  paths {label_row(a)} vs {label_row(b)}: differ at {differ}, target {target:+.4f}")

print("\n== identity, two outcomes (exactly solvable) ==")
for gamma, n in [(0.2, 1), (0.2, 2), (0.4, 3)]:
    rep = identity_check(bare, [gamma, gamma], n, seed=1)
    print(
        f"  gamma={gamma} N={n}: path sum {rep.xi:.6f}, |amplitude|^2 {rep.amp_sq:.6f}, "
        f"gap {rep.gap:.2e}, residual {rep.max_residual:.2e}"
    )

print("\n== identity, three outcomes (overdetermined: the report is the contract) ==")
bare3 = BareDistribution(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.3, 0.2]))
rep = identity_check(bare3, [0.1, 0.1, 0.1], 2, seed=1)
print(
    f"  path sum {rep.xi:.6f}, |amplitude|^2 {rep.amp_sq:.6f}, gap {rep.gap:.3f}, "
    f"residual {rep.max_residual:.3f} (lower bound {rep.solve_report.lower_bound:.3f}), "
    f"gap <= bound: {rep.gap <= rep.bound}"
)

print("\n== channel too strong: constraints leave the unit interval ==")
skew = BareDistribution(np.array([0.0, 1.0]), np.array([0.99, 0.01]))
rep = identity_check(skew, [1.0, 1.0], 1)
print(f"  feasible: {rep.feasible} (coupling {rep.coupling.d[0, 1]:.3f})")
