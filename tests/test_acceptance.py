"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or -v to see them; a
failed assertion marks the criterion FAIL before the summary line prints).
"""

import math
import time

import numpy as np
import pytest

from bellcert.compile import (build_bell, chsh_certificate, chsh_polynomial,
                              default_certificate, verify_sos)
from bellcert.engine import (CONTRADICTION, PROVED, UNKNOWN, deduce,
                             problem_for_code, search_subsets)
from bellcert.pauli import code_preset
from bellcert.poly import BellPolynomial, Monomial
from bellcert.sim import Strategy, estimate_bell, noise_sweep
from bellcert.verify import (canonical_realization, check_selftest,
                             classical_bound, codespace_basis, materialize,
                             max_eig, model_check_deduction,
                             principal_angle_sin)

SQRT2 = math.sqrt(2)
I5_BOUND = 2 + 8 * SQRT2


def _report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_chsh_fixture():
    start = time.perf_counter()
    cert = chsh_certificate()
    compiled = build_bell(cert)
    ok_sos, residual = verify_sos(compiled)
    res_max = residual.max_abs_coeff()
    i0 = chsh_polynomial()
    h = materialize(i0, canonical_realization(compiled.assignment))
    top = max_eig(h).max_eigenvalue
    classical = classical_bound(i0)
    elapsed = time.perf_counter() - start
    ok = (ok_sos and res_max == 0.0
          and abs(top - 2 * SQRT2) <= 1e-9
          and classical == 2.0
          and elapsed < 1.0)
    _report(1, ok, f"sos residual {res_max:.1e}, max eig {top:.12f}, "
                   f"classical {classical}, {elapsed:.2f}s")


def test_criterion_2_five_qubit_golden_polynomial():
    code = code_preset("five_qubit")
    cert = default_certificate(code, alpha0=0.0,
                               alphas=(SQRT2, 1.0, SQRT2, 2 * SQRT2),
                               mu=math.pi / 4)
    compiled = build_bell(cert, code)
    golden = {
        ((1, (0,)), (2, (1,)), (3, (1,)), (4, (0,))): 2.0,
        ((1, (1,)), (2, (1,)), (3, (1,)), (4, (0,))): 2.0,
        ((2, (0,)), (3, (1,)), (4, (1,)), (5, (0,))): 2.0,
        ((1, (0,)), (3, (0,)), (4, (1,)), (5, (1,))): 2.0,
        ((1, (1,)), (3, (0,)), (4, (1,)), (5, (1,))): 2.0,
        ((1, (0,)), (2, (0,)), (4, (0,)), (5, (1,))): 4.0,
        ((1, (1,)), (2, (0,)), (4, (0,)), (5, (1,))): -4.0,
    }
    expected = BellPolynomial({Monomial(k): v for k, v in golden.items()})
    diff = (compiled.poly - expected).max_abs_coeff()
    ok = (compiled.poly.allclose(expected, 1e-12)
          and len(compiled.poly) == len(expected))
    _report(2, ok, f"term-for-term max deviation {diff:.2e}, "
                   f"{len(compiled.poly)} terms, bound {compiled.bound:.10f}")


def test_criterion_3_bound_attainment():
    start = time.perf_counter()
    code = code_preset("five_qubit")
    compiled = build_bell(default_certificate(code), code)
    h = materialize(compiled.poly, canonical_realization(compiled.assignment))
    rep = max_eig(h)
    dist = principal_angle_sin(rep.eigenbasis, codespace_basis(code))
    elapsed = time.perf_counter() - start
    ok = (abs(rep.max_eigenvalue - I5_BOUND) <= 1e-8
          and rep.multiplicity == 2
          and dist <= 1e-8
          and elapsed < 1.0)
    _report(3, ok, f"max eig {rep.max_eigenvalue:.10f} (target {I5_BOUND:.10f}), "
                   f"multiplicity {rep.multiplicity}, codespace distance "
                   f"{dist:.2e}, {elapsed:.2f}s")


THETAS = (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 3)


def test_criterion_4_tilted_certification():
    start = time.perf_counter()
    worst_fid = 1.0
    for name in ("five_qubit", "steane", "shor"):
        code = code_preset(name)
        for theta in THETAS:
            cert = default_certificate(code, theta=theta, alpha0=1.0)
            report = check_selftest(build_bell(cert, code), code)
            assert report.multiplicity == 1, (name, theta, report.to_json())
            assert report.fidelity is not None
            worst_fid = min(worst_fid, report.fidelity)
            assert report.passed, (name, theta, report.to_json())
    elapsed = time.perf_counter() - start
    ok = worst_fid >= 1 - 1e-8 and elapsed < 30.0
    _report(4, ok, f"12 tilted certificates, worst fidelity "
                   f"{worst_fid:.12f}, {elapsed:.1f}s")


def test_criterion_5_sos_identities():
    worst = 0.0
    code5 = code_preset("five_qubit")
    certs = [(None, chsh_certificate())]
    certs.append((code5, default_certificate(code5)))
    for name in ("five_qubit", "steane", "shor"):
        code = code_preset(name)
        for theta in THETAS:
            certs.append((code, default_certificate(code, theta=theta,
                                                    alpha0=1.0)))
    for code, cert in certs:
        ok, residual = verify_sos(build_bell(cert, code))
        worst = max(worst, residual.max_abs_coeff())
        assert ok, (cert.code_name, cert.theta)
    cancel_paper = build_bell(default_certificate(code5), code5).reduced_form
    cancel_unit = build_bell(default_certificate(code5, alphas=(1, 1, 1, 1)),
                             code5).reduced_form
    ok = worst <= 1e-10 and cancel_paper and not cancel_unit
    _report(5, ok, f"{len(certs)} certificates, worst residual {worst:.2e}; "
                   f"cancellation paper={cancel_paper} unit={cancel_unit}")


def test_criterion_6_violation_gap():
    start = time.perf_counter()
    gaps = {}
    for name in ("five_qubit", "steane", "shor"):
        code = code_preset(name)
        cert = default_certificate(code)  # alpha0 = 0 defaults
        compiled = build_bell(cert, code)
        h = materialize(compiled.poly,
                        canonical_realization(compiled.assignment))
        quantum = max_eig(h).max_eigenvalue
        classical = classical_bound(compiled.poly)
        gaps[name] = quantum - classical
        assert classical < quantum - 0.1, (name, classical, quantum)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    detail = ", ".join(f"{k}: gap {v:.3f}" for k, v in gaps.items())
    _report(6, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_7_deduction_reproduction():
    outcomes = {}
    checks = []
    for name, extras, expected in [
        ("five_qubit", True, PROVED),
        ("steane", True, PROVED),
        ("shor", True, PROVED),
        ("shor", False, UNKNOWN),
    ]:
        code = code_preset(name)
        res = deduce(problem_for_code(code, extras=extras))
        outcomes[f"{name}{'+extras' if extras else '-extras'}"] = res.status
        assert res.status == expected, (name, extras, res.status)
        if code.q == 2:
            checks.append(model_check_deduction(res, code))
    for q, expected in [(2, PROVED), (3, CONTRADICTION), (5, CONTRADICTION)]:
        code = code_preset("five_qudit", q=q)
        res = deduce(problem_for_code(code))
        outcomes[f"five_qudit:{q}"] = res.status
        assert res.status == expected, (q, res.status)
        if q == 2:
            checks.append(model_check_deduction(res, code_preset("five_qubit")))
    worst = max(checks)
    ok = worst <= 1e-9
    _report(7, ok, f"{outcomes}; model-check worst error {worst:.2e}")


def test_criterion_8_subset_search():
    start = time.perf_counter()
    results = search_subsets(code_preset("five_qubit"))
    elapsed = time.perf_counter() - start
    proved = {r.subset for r in results if r.status == PROVED}
    ok = (1,) in proved and len(results) == 32 and elapsed < 10.0
    _report(8, ok, f"scan of 32 subsets in {elapsed:.2f}s, "
                   f"{len(proved)} proved, includes (1,)")


def test_criterion_9_simulation_consistency():
    start = time.perf_counter()
    code = code_preset("five_qubit")
    compiled = build_bell(default_certificate(code), code)
    strat = Strategy.from_code(code, seed=20240813)
    big = estimate_bell(strat, compiled.poly, 10**6)
    dev = abs(big.estimate - I5_BOUND)
    assert dev <= 5 * big.stderr, (big.estimate, big.stderr)
    small = estimate_bell(Strategy.from_code(code, seed=20240813),
                          compiled.poly, 10**4)
    ratio = big.stderr / small.stderr
    assert 0.08 <= ratio <= 0.12, ratio
    rows = noise_sweep(Strategy.from_code(code, seed=77), compiled.poly,
                       [0.0, 1.0], 10**5)
    clean, dead = rows
    assert abs(clean.estimate - I5_BOUND) <= 5 * clean.stderr
    assert abs(dead.estimate) <= 5 * dead.stderr
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _report(9, ok, f"estimate {big.estimate:.4f} ({dev / big.stderr:.2f} sigma "
                   f"from {I5_BOUND:.4f}), stderr ratio {ratio:.4f}, "
                   f"noise endpoints ({clean.estimate:.3f}, "
                   f"{dead.estimate:.4f}), {elapsed:.1f}s")
