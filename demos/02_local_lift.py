"""Lifting an idempotent family through a surjection, one grid at a time.

Setup: pi(lambda) maps a dual-number extension of M4 onto M4 by dropping
the nilpotent part.  The target family q(lambda) is a rank-2 projection
rotated by exp(lambda K).  A section is any lambda-wise preimage; ours is
deliberately polluted with kernel noise, so it is NOT idempotent upstairs.

lift_local takes only the section, which carries pi and q with it, and
repairs it into an exactly idempotent family p(lambda)
that still maps onto q(lambda), commutes with the section, and depends on
lambda as smoothly as the section does.  The repair solves
x^2 + x + r0 = 0 by a branch-cut square root whose contour and sheet are
frozen once at lambda = 0, then reused across the grid.
"""

import numpy as np

from idemlift import build_dual_testbed, lift_local, lift_local_sa

scn = build_dual_testbed(seed=3)
sec = scn.local_section
pi, q = sec.pi, sec.target     # a section knows what it lifts, and through what
grid = np.linspace(-0.5, 0.5, 21)

# the section really is dirty: idempotency fails upstairs before the lift
a0 = sec(0.35)
print("section idempotency defect before lift:", (a0 * a0 - a0).norm())
print("but it still hits the target:", (pi.apply(0.35, a0) - q(0.35)).norm())

trace = lift_local(sec, grid)

# the trace records one point per grid value, plus the frozen contour data
print()
print("sheet chosen at the base point:", trace.contours[0].sheet)
print("points recorded:", len(trace.points),
      "valid:", len(trace.valid_points()))
print("frozen contours:", [cd.label or cd.branch for cd in trace.contours])

print()
print("   lambda     ||p^2-p||     ||pi(p)-q||   ||[p,a]||")
for pt in trace.points[::5]:
    print(f"  {pt.lam.real:+.2f}     {pt.defects['idempotency']:.3e}"
          f"    {pt.defects['lift']:.3e}    {pt.defects['commutation']:.3e}")

print()
print("worst idempotency over the grid:", trace.worst("idempotency"))
print("worst lift defect over the grid:", trace.worst("lift"))
print("worst commutation defect:      ", trace.worst("commutation"))

# p is a genuine element family: evaluate it anywhere on the grid
p = trace.points[10].p
print()
print("p(0) is a", p.algebra.kind, "element of norm", round(p.norm(), 4))

# --- self-adjoint variant -------------------------------------------------
# The target family here is self-adjoint for real lambda.  lift_local_sa
# symmetrizes the section first and then applies the same machinery, so
# the lift is self-adjoint too, and the difference a - p factors through
# the kernel: a - p = (a^2 - a)(a1 - a0) with a0, a1 the frozen spectral
# halves.  Both facts are recorded as extra defect channels.
trace_sa = lift_local_sa(sec, grid)
print()
print("self-adjoint lift:")
print("  worst ||p - p*||:          ", trace_sa.worst("self-adjointness"))
print("  worst factorisation defect:", trace_sa.worst("factorisation"))
print("  worst idempotency:         ", trace_sa.worst("idempotency"))

# both lifts project onto the same downstairs family
mid = grid[7]
diff = q(mid) - pi.apply(mid, trace_sa.point(mid).p)
print("  downstairs agreement at lambda =", round(float(mid), 3), ":", diff.norm())
