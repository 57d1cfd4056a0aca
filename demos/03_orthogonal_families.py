"""Many idempotent families at once, with orthogonality preserved.

Lifting one idempotent family is a local matter.  Lifting several that
are pairwise orthogonal downstairs (q_i q_j = 0 for i != j) is harder:
the lifts must stay pairwise orthogonal upstairs, which a point-by-point
repair of each family separately would not give you.

lift_family runs an induction.  At step k it already has orthogonal lifts
p_1 ... p_{k-1}; it corrects the k-th section against the partial sum
e = p_1 + ... + p_{k-1} by solving a pair of quadratic equations in the
commutant, again with frozen contour data.  Each step keeps e as a running
sum, e_k = e_{k-1} + p_{k-1}.  The smallness bound eps0 that makes the
step well-posed is 1/2, checked at lambda = 0 and recorded in the trace.
"""

import numpy as np

from idemlift import build_dual_testbed, lift_family, lift_local

scn = build_dual_testbed(seed=11)
grid = np.linspace(-0.5, 0.5, 21)

secs = scn.family_sections            # each polluted by its own kernel noise
qs = [sec.target for sec in secs]     # three rank-1 rotated projections in M4

# orthogonality downstairs, in both orders
for i in range(3):
    for j in range(3):
        if i != j:
            prod = (qs[i](0.2) * qs[j](0.2)).norm()
            assert prod < 1e-12, (i, j, prod)
print("targets are pairwise orthogonal downstairs: yes")

lifted, traces = lift_family(secs, grid)

for k, tr in enumerate(traces):
    print(f"step {k}: eps0 = {tr.eps0:.4f}, "
          f"worst lift = {tr.worst('lift'):.3e}, "
          f"worst idempotency = {tr.worst('idempotency'):.3e}")

# pairwise orthogonality upstairs, both orders, across the grid
worst = 0.0
for lam in grid:
    ps = [fam(lam) for fam in lifted]
    for i in range(3):
        for j in range(3):
            if i != j:
                worst = max(worst, (ps[i] * ps[j]).norm())
print("worst pairwise product upstairs:", worst)

# the partial sums are idempotent too (orthogonal idempotents add up)
e = lifted[0](0.3) + lifted[1](0.3) + lifted[2](0.3)
print("sum of the three lifts, idempotency defect:", (e * e - e).norm())

# --- self-adjoint version -------------------------------------------------
# With sa=True the sections are symmetrized before each induction step;
# every lift then satisfies p = p* for real lambda on top of everything
# else.
lifted_sa, _ = lift_family(secs, grid, sa=True)
print()
print("self-adjoint run:")
for k, fam in enumerate(lifted_sa):
    worst_sa = max((fam(lam) - fam(lam).adjoint()).norm() for lam in grid)
    print(f"step {k}: worst ||p - p*|| = {worst_sa:.3e}")

# --- a non-split surjection ------------------------------------------------
# The dual-number testbed splits (the kernel has a complement that is a
# subalgebra).  The block testbed does not: pi projects block upper
# triangular 4x4 matrices onto their diagonal blocks, conjugated by a
# lambda-dependent similarity, and the corner is the kernel for every
# lambda even though pi itself genuinely moves.
from idemlift import build_block_testbed  # noqa: E402

blk = build_block_testbed(seed=11)
tr = blk.local_section.defect(0.4)
print()
print("block testbed section error downstairs:", tr)
trace = lift_local(blk.local_section, grid)
print("block testbed lift, worst idempotency:", trace.worst("idempotency"))
