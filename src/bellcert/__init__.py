"""Stabilizer codes compiled into self-testing Bell inequalities.

The pipeline: pick a stabilizer code, substitute its site-local X/Z
symbols with measurement settings (tilted pairs on the designated sites),
and obtain a Bell polynomial whose quantum bound carries an explicit
sum-of-squares certificate.  Verification runs four independent routes:
exact symbolic identity checking, spectral analysis against the codespace
(one block per syndrome sector), proof search over the on-state
deduction rules, and a finite-shot game simulator that estimates the
violation from sampled rounds, drawing each monomial's outcome products
from their exact Born-rule law under optional depolarizing noise.  Every
refused input raises ``InputError``, a ``ValueError``.
"""

from .pauli import (CodeValidationError, InputError, PauliWord, StabilizerCode,
                    apply_word, code_preset, comm_exponent, load_code, mul)
from .poly import BellPolynomial, MeasurementAssignment, Monomial
from .compile import (CertificateError, CompiledInequality, SOSCertificate,
                      build_bell, build_tilted, chsh_certificate,
                      chsh_polynomial, default_certificate, emit, parse,
                      substitute, verify_sos)
from .verify import (Realization, SelftestReport, SpectralReport,
                     canonical_realization, canonicalize_pair, check_selftest,
                     classical_bound, codespace_basis,
                     codeword_expectations, logical_basis,
                     materialize, max_eig, principal_angle_sin,
                     qudit_codespace, tilt_sweep)
from .engine import (Budget, DeduceResult, Problem, deduce, problem_for_code,
                     search_subsets, transcript_render)
from .sim import (EstimateReport, EstimationError, Strategy, estimate_bell,
                  noise_sweep)

__version__ = "0.1.0"
