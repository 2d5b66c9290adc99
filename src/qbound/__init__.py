"""Quantum ensembles, generalized measurements, and the entropic bounds on
how much information a measurement can extract.

The package builds measurement statistics (:mod:`qbound.qobjects`),
evaluates information quantities and bound right-hand sides
(:mod:`qbound.infomeasures`, :mod:`qbound.bounds`), verifies the
Haar-uniform ensemble identities by Monte Carlo (:mod:`qbound.haarmc`),
lower-bounds accessible information by direct search
(:mod:`qbound.accinfo`), and packages verification campaigns behind a
scenario registry and CLI (:mod:`qbound.scenarios`, :mod:`qbound.cli`).
All information quantities are in nats.
"""

from .accinfo import OptResult, maximize_mutual_info, povm_from_vectors, two_state_reference
from .bounds import (BoundReport, SaturationFlags, accb_rhs, bound_report,
                     bound_reports, bsub_rhs, dimension_bound, dual_holevo_rhs, eqspec_check,
                     eqx_rhs, saturation_predicates, spectrum_identity_deviation,
                     sww_rhs)
from .haarmc import (DistortedMoments, MCEstimate, distorted_moments_mc,
                     distorted_sample, haar_moment_mc, haar_state, haar_unitary,
                     trial_rng, uniform_ensemble_info_exact,
                     uniform_ensemble_info_mc)
from .infomeasures import (conditional_info_gain, holevo_chi, info_gain_f,
                           mutual_information, shannon, subentropy, von_neumann)
from .matrixcore import commutes, operator_rank, sqrt_psd, support_projector
from .qobjects import (DensityOperator, Ensemble, Measurement, OutcomeAnalysis,
                       apply_measurement, coarse_grain, ensemble_from_json,
                       ensemble_state, ensemble_to_json, matrix_from_json,
                       matrix_to_json, measurement_from_json, measurement_to_json,
                       mix_measurements, pure_state, random_instance)
from .scenarios import Report, ScenarioConfig, emit_report, run_scenario

__version__ = "0.1.0"
