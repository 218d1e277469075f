"""Kerdock Clifford 2-designs and transvection-walk approximate 3-designs.

The package works at the binary-symplectic level: Pauli operators are
index pairs over GF(2^m), Clifford elements are 2m x 2m binary
symplectic matrices, and the approximate-3-design sampler composes a
short random walk of symplectic transvections with a uniform
PSL(2, 2^m) element and a uniform Pauli.  Dense-unitary realizations
are available for small m to verify every symbolic object against an
independent oracle.

Layers (each importable on its own):

- ``gf2m``     field arithmetic, trace, dual bases, multiplication matrices
- ``pauli``    Pauli index pairs, symplectic matrices, transvections
- ``kerdock``  the Kerdock matrix set and the PSL(2, 2^m) subgroup
- ``graph``    the commutation graph, pair classes, orbit invariants
- ``markov``   the transvection pair walk: exact chains, spectra, mixing
- ``sampler``  reproducible design sampling and Monte-Carlo statistics
- ``unitary``  dense oracles, conjugation checks, frame potentials
- ``cli``      the ``kerdock3`` command-line tool
"""

from .gf2m import FieldContext, PRIMITIVE_POLYS
from .pauli import (PauliIndex, SymplecticMatrix, Transvection,
                    apply_symplectic, apply_transvection, omega_matrix,
                    symplectic_inner, transvection_matrix)
from .kerdock import (INFINITY, PslElement, classify_subgroup, kerdock_matrix,
                      mobius_action, pair_action, psl_elements, psl_factors,
                      psl_product, psl_to_symplectic, sample_psl,
                      subgroup_members)
from .graph import (CensusReport, EdgeKind, OrbitInvariant, PauliPair, census,
                    classify_pair, closed_form_counts, orbit_invariant,
                    orbit_representative, orbit_states, srg_check,
                    srg_parameters)
from .markov import (TransitionMatrix, closed_form_failures, extract_r,
                     full_chain, lambda_q0_bound, lambda_q1_closed, lump_chain,
                     mixing_time_bound, mixing_time_report, q0_closed_form,
                     q1_closed_form, q_empirical, spectral_report,
                     stationary_check, transvection_counts, tv_curve,
                     tv_curve_exact)
from .sampler import (DesignSample, PairStatistics, SamplerConfig, compose,
                      mc_sigma, pair_statistics, pair_statistics_stream,
                      read_jsonl, sample_at, sample_stream,
                      steps_for_epsilon, write_jsonl)
from .unitary import (collision_frame_potential_3, conjugation_check,
                      delta_frame_potential_3, estimator_margin,
                      frame_potential, frame_potential_estimate,
                      haar_frame_potential, hermitian_pauli,
                      kerdock_unitaries, pauli_unitary, psl_unitary,
                      sample_unitary, single_qubit_clifford_group,
                      transvection_unitary)

__version__ = "0.1.0"
