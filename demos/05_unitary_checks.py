"""Dense-matrix oracle: the binary level really does describe unitaries.

At m <= 3 every symplectic object in the package can be promoted to an
explicit 2^m x 2^m unitary.  Conjugating a Pauli by such a unitary must
permute Pauli indices exactly as the packed binary matrix says, up to a
fourth root of unity.  Frame potentials then measure how close sampled
ensembles are to moment-matching the Haar measure.

Run:  python demos/05_unitary_checks.py       (a few seconds)
"""

import numpy as np

from kerdock3 import (FieldContext, SamplerConfig, collision_frame_potential_3,
                      conjugation_check, estimator_margin, frame_potential,
                      frame_potential_estimate, haar_frame_potential,
                      kerdock_unitaries, psl_unitary, sample_stream,
                      sample_unitary, single_qubit_clifford_group)
from kerdock3.kerdock import psl_elements, psl_to_symplectic

ctx = FieldContext(2)

print("conjugation oracle: every Moebius unitary matches its binary matrix")
count = 0
for g in psl_elements(ctx):
    conjugation_check(ctx, psl_unitary(ctx, g), psl_to_symplectic(ctx, g))
    count += 1
print(f"  checked all {count} group elements at m=2, tolerance 1e-8")

print("\nHaar frame-potential targets (dimension, moment) -> value:")
for dim, k in ((2, 2), (2, 3), (4, 2), (4, 3), (4, 4)):
    print(f"  dim {dim}, k={k}: {haar_frame_potential(dim, k)}")

print("\nexact ensembles at m=2 (dimension 4):")
ens = kerdock_unitaries(ctx)
print(f"  base ensemble: {len(ens)} unitaries")
print(f"  F_2 = {frame_potential(ens, 2):.12f}   (2-design value 2)")
print(f"  F_3 = {frame_potential(ens, 3):.12f}   (3-design value would be 6)")
print(f"  closed-form F_3 at t=0: {collision_frame_potential_3(ctx, 0):.12f}")

print("\nthe walk closes the F_3 gap geometrically:")
for t in (0, 1, 2, 3, 5, 8, 12):
    print(f"  t={t:2d}: F_3 = {collision_frame_potential_3(ctx, t):.9f}")

print("\nsingle-qubit contrast: the 24 Clifford unitaries form an exact"
      " 3-design in dimension 2")
group = single_qubit_clifford_group()
print(f"  F_2 = {frame_potential(group, 2):.12f}   (Haar: "
      f"{haar_frame_potential(2, 2)})")
print(f"  F_3 = {frame_potential(group, 3):.12f}   (Haar: "
      f"{haar_frame_potential(2, 3)})")

print("\nsampled estimate from the walk (m=2, t=20, 4000 samples):")
config = SamplerConfig(m=2, seed=11, count=4000, steps=20)
unitaries = [sample_unitary(ctx, s) for s in sample_stream(config)]
fhat, sigma_hat = frame_potential_estimate(unitaries, 3)
margin = estimator_margin(2, 20, len(unitaries), sigma_hat, ctx)
print(f"  F_3 estimate {fhat:.4f} +- {sigma_hat:.4f}")
print(f"  documented upper margin above 6: {margin:.4f}")
print(f"  inside [6 - 1e-6, 6 + margin]: "
      f"{6.0 - 1e-6 <= fhat <= 6.0 + margin}")
assert np.isfinite(fhat)
