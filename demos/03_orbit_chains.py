"""The transvection walk seen through its orbit chains.

A uniformly random symplectic transvection moves an ordered vertex pair
around its commutation class.  Because transvections commute with the
group action, the walk projects exactly onto a small chain over orbit
labels.  This demo builds both chains, verifies their closed forms, and
plots (in ASCII) how fast a point mass spreads to stationarity.

Run:  python demos/03_orbit_chains.py
"""

import numpy as np

from kerdock3 import (FieldContext, extract_r, mixing_time_report,
                      q0_closed_form, q1_closed_form, q_empirical,
                      spectral_report, tv_curve_exact)

ctx = FieldContext(3)
n = ctx.order

print("non-edge chain (anticommuting pairs), built two independent ways:")
emp = q_empirical(ctx, "nonedges")
print(f"  enumeration == closed form: {emp == q1_closed_form(ctx)}")
print(f"  states: {[f'{s.kind.name}:{s.value:#x}' for s in emp.states]}")
print(f"  numerators / {emp.denominator}:")
print(np.array2string(emp.numerators))

print("\nedge chain (commuting pairs), built two independent ways:")
q0 = q_empirical(ctx, "edges")
print(f"  enumeration == closed form: {q0 == q0_closed_form(ctx)}")
print(f"  R block (type-2 -> type-1 numerators), constant at m=3:")
print(np.array2string(extract_r(q0)))

print("\nspectra:")
for name, tm in (("edges", q0), ("nonedges", emp)):
    rep = spectral_report(tm)
    eigs = ", ".join(f"{v.real:.6f}" for v in rep.eigenvalues)
    print(f"  {name}: eigenvalues [{eigs}]")
    print(f"  {name}: second eigenvalue {rep.lambda2:.6f}, gap {rep.gap:.6f}")

print("\nmixing-time bound ingredients at accuracy 0.01:")
for key, value in sorted(mixing_time_report(3, 0.01).items()):
    print(f"  {key} = {value}")

print("\nexact total-variation decay from a point mass (edge chain):")
curve = tv_curve_exact(q0, 0, 20)
for t in (0, 1, 2, 3, 5, 8, 12, 16, 20):
    v = float(curve[t])
    bar = "#" * max(1, int(60 * v / float(curve[0]))) if v > 1e-15 else ""
    print(f"  t={t:2d}  tv={v:.3e}  {bar}")
ratio = float(curve[20] / curve[19])
print(f"  step-20 decay ratio {ratio:.6f} "
      f"(second eigenvalue {spectral_report(q0).lambda2:.6f})")
