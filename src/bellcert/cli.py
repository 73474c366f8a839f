"""Command-line pipeline: codes -> bell -> verify -> selftest -> simulate.

Exit codes: 0 success/pass, 1 internal or failed verification, 2 usage
(any refused input, a ``pauli.InputError``, including inputs above a size
cap), 3 deduction unknown, 4 deduction contradiction, 5 capability
(polynomial not estimable by single-measurement rounds).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from dataclasses import replace
from pathlib import Path

from . import compile as compiler
from . import engine, sim, verify
from .pauli import (PRESET_NAMES, InputError, StabilizerCode, code_preset,
                    load_code, preset_data)
from .poly import BellPolynomial, MeasurementAssignment

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_CONTRADICTION = 4
EXIT_CAPABILITY = 5


def _parse_list(text: str, kind: type = float) -> list:
    """The comma list's values as ``kind`` (float or int); blanks are skipped."""
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        what = "integer" if kind is int else "numeric"
        raise InputError(f"bad {what} list {text!r}: {exc}") from exc


def _emit_json(doc, out: str | None) -> None:
    _write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_code_arg(args) -> StabilizerCode:
    if args.code_file:
        return load_code(Path(args.code_file).read_text())
    if args.code:
        return code_preset(args.code)
    raise InputError("one of --code or --code-file is required")


def _inputs(args):
    """(code, compiled, poly) a command acts on: code is None for the CHSH
    fixture or a bare --poly-file, compiled is None for any --poly-file."""
    poly_file = getattr(args, "poly_file", None)
    fixed = ("--poly-file gives the polynomial" if poly_file
             else "--code chsh has a fixed certificate" if args.code == "chsh"
             else None)
    for flag, default in _CERT_DEFAULTS.items():
        if fixed and getattr(args, flag) != default:
            raise InputError(f"{fixed}: no --{flag.replace('_', '-')}")
    code = None
    # a lone --poly-file needs no code; with neither, _load_code_arg refuses
    if args.code != "chsh" and (args.code or args.code_file or not poly_file):
        code = _load_code_arg(args)
    if poly_file:
        try:
            return code, None, compiler.parse(Path(poly_file).read_text())
        except KeyError as exc:
            raise InputError(f"malformed polynomial file: missing {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed polynomial file: {exc}") from exc
    if code is None:
        compiled = compiler.build_bell(compiler.chsh_certificate())
    else:
        cert = compiler.default_certificate(
            code, theta=args.theta, alpha0=args.alpha0,
            alphas=_parse_list(args.alpha) if args.alpha else None,
            mu=args.mu, extras=not args.no_extras)
        compiled = compiler.build_bell(cert, code)
    return code, compiled, compiled.poly


def _assignment(poly: BellPolynomial,
                code: StabilizerCode | None = None) -> MeasurementAssignment:
    """The measurement assignment poly.meta names: its n, pair sites and mu,
    a missing field taken from the code if given, else poly.max_site(), no
    pair sites and pi/4."""
    meta = poly.meta
    n, pair_sites = (code.n, code.pair_sites) if code else (poly.max_site(), ())
    try:
        asg = MeasurementAssignment(operator.index(meta.get("n") or n),
                                    meta.get("pair_sites", pair_sites),
                                    float(meta.get("mu", math.pi / 4)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed polynomial meta: {exc}") from exc
    if poly.max_site() > asg.n:
        raise InputError(f"polynomial touches site {poly.max_site()}, "
                         f"beyond n = {asg.n}")
    return asg


def _spectrum(poly: BellPolynomial) -> verify.SpectralReport:
    """Top of the spectrum at the canonical realization named by poly.meta."""
    real = verify.canonical_realization(_assignment(poly))
    return verify.max_eig(verify.materialize(poly, real))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_codes(args) -> int:
    if args.action == "list":
        if args.json:
            _emit_json({"presets": list(PRESET_NAMES)}, args.out)
        else:
            _write_text("\n".join(PRESET_NAMES), args.out)
        return EXIT_OK
    code = _load_code_arg(args)
    if args.json:
        _emit_json(code.to_json(), args.out)
        return EXIT_OK
    # the distance is published preset data; nothing computes it
    data = preset_data(code)
    params = (f"[[{code.n},{code.k},{data.distance}]]" if data
              else f"[[{code.n},{code.k}]]")
    lines = [f"{code.name}: {params} q={code.q}",
             f"pair sites: {sorted(code.pair_sites)}"]
    for i, g in enumerate(code.generators, start=1):
        lines.append(f"  S{i} = {g}")
    lines.append(f"  logical X = {code.logical_x}")
    lines.append(f"  logical Z = {code.logical_z}")
    _write_text("\n".join(lines), args.out)
    return EXIT_OK


def cmd_bell(args) -> int:
    _, compiled, _ = _inputs(args)
    doc = compiler.emit(compiled.poly, "json")
    if args.out:
        Path(args.out).write_text(doc + "\n")
    print(compiler.emit(compiled.poly, "human"))
    print(f"bound = {compiled.bound:.12g}")
    print(f"reduced_form = {compiled.reduced_form}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.poly_file and args.check != "classical":
        raise InputError(f"{args.check} verification needs certificate "
                         "flags, not --poly-file")
    if args.sweep is not None and args.check != "spectral":
        raise InputError(f"--sweep needs the spectral check, not {args.check}")
    code, compiled, poly = _inputs(args)
    if args.sweep is not None:
        thetas = _parse_list(args.sweep)
        if not thetas:
            raise InputError(f"--sweep {args.sweep!r} lists no angle")
        if code is None:
            raise InputError("--sweep needs --code or --code-file")
        cert = replace(compiled.certificate, alpha0=args.alpha0 or 1.0)
        rows = verify.tilt_sweep(cert, code, thetas)
        csv = "theta,max_eig,fidelity\n" + "\n".join(
            f"{r['theta']:.10g},{r['max_eig']:.10g},{r['fidelity']:.10g}"
            for r in rows) + "\n"
        _write_text(csv, args.out)
        return EXIT_OK

    checks: dict[str, dict] = {}
    if args.check in ("sos", "all"):
        ok, residual = compiler.verify_sos(compiled)
        checks["sos"] = {"passed": bool(ok),
                         "residual_max": residual.max_abs_coeff(),
                         "bound": compiled.bound,
                         "reduced_form": compiled.reduced_form}
    if args.check == "classical":
        # only the top eigenvalue: no target state, so no logical basis
        sectors = (verify.sector_spectrum(poly, compiled.assignment, code)
                   if code is not None and compiled is not None else None)
        spectral = {"max_eigenvalue": float(sectors[0].max())
                    if sectors is not None else _spectrum(poly).max_eigenvalue}
    elif args.check != "sos":
        # one spectrum per command: the spectral and classical checks share it
        if code is not None and compiled is not None:
            spectral = verify.check_selftest(compiled, code).to_json()
        else:
            spectral = _spectrum(poly).to_json()
            if compiled is not None:
                delta = abs(spectral["max_eigenvalue"] - compiled.bound)
                spectral.update(bound=compiled.bound,
                                passed=delta <= verify.SELFTEST_TOL)
    if args.check in ("spectral", "all"):
        checks["spectral"] = spectral
    if args.check in ("classical", "all"):
        classical = verify.classical_bound(poly)
        checks["classical"] = {
            "classical_bound": classical,
            "quantum_value": spectral["max_eigenvalue"],
            "passed": classical <= spectral["max_eigenvalue"] - 0.1,
        }

    passed = all(c.get("passed", False) for c in checks.values())
    _emit_json({"checks": checks, "passed": passed}, args.out)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_selftest(args) -> int:
    if args.budget_facts < 1:
        raise InputError("--budget-facts must be >= 1")
    code = _load_code_arg(args)
    budget = engine.Budget(max_facts=args.budget_facts)
    if args.action == "deduce":
        subset = (frozenset(_parse_list(args.subset, int))
                  if args.subset is not None else None)
        problem = engine.problem_for_code(code, pair_sites=subset,
                                          extras=not args.no_extras)
        result = engine.deduce(problem, budget)
        if args.json:
            _emit_json({"status": result.status,
                        "pair_comm": {str(k): v for k, v in
                                      sorted(result.pair_comm.items())},
                        "transcript": result.transcript.to_json()}, args.out)
        else:
            _write_text(engine.transcript_render(result.transcript), args.out)
        return {engine.PROVED: EXIT_OK,
                engine.UNKNOWN: EXIT_UNKNOWN,
                engine.CONTRADICTION: EXIT_CONTRADICTION}[result.status]
    results = engine.search_subsets(code, budget, extras=not args.no_extras)
    proved = [r for r in results if r.status == engine.PROVED]
    doc = {
        "code": code.name,
        "proved_subsets": [list(r.subset) for r in proved],
        "results": [{"subset": list(r.subset), "status": r.status}
                    for r in results],
    }
    if proved and args.transcripts:
        doc["first_transcripts"] = {
            ",".join(map(str, r.subset)): r.transcript.to_json()["steps"]
            for r in proved}
    _emit_json(doc, args.out)
    return EXIT_OK if proved else EXIT_UNKNOWN


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed {args.seed} must be >= 0")
    code, _, poly = _inputs(args)
    if code is None:
        raise InputError("simulate needs --code (not chsh) or --code-file")
    asg = _assignment(poly, code)
    if (asg.n, asg.pair_sites) != (code.n, code.pair_sites):
        raise InputError(f"polynomial is for n = {asg.n} sites, pair sites "
                         f"{sorted(asg.pair_sites)}; code {code.name} has "
                         f"n = {code.n}, pair sites {sorted(code.pair_sites)}")
    needed = max(1, sum(not mono.is_identity for mono, _ in poly.terms()))
    if args.shots < needed:
        raise InputError(f"--shots {args.shots} below {needed}: every sampled "
                         "monomial needs at least one shot")
    strategy = sim.Strategy.from_code(code, theta=args.state_theta, asg=asg,
                                      seed=args.seed)
    if args.action == "estimate":
        report = sim.estimate_bell(strategy, poly, args.shots,
                                   allocation=args.allocation)
        _emit_json(report.to_json(), args.out)
        return EXIT_OK
    grid = _parse_list(args.p_grid)
    if not grid:
        raise InputError(f"--p-grid {args.p_grid!r} lists no probability")
    rows = sim.noise_sweep(strategy, poly, grid, args.shots,
                           allocation=args.allocation)
    _write_text(sim.sweep_csv(rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_code_flags(p: argparse.ArgumentParser):
    which = p.add_mutually_exclusive_group()
    which.add_argument("--code", help="preset name (or chsh for bell, verify)")
    which.add_argument("--code-file", help="JSON code document")


# the certificate flags' defaults: all that chsh and --poly-file accept
_CERT_DEFAULTS = {"theta": 0.0, "alpha0": 0.0, "alpha": None,
                  "mu": math.pi / 4, "no_extras": False}


def _add_cert_flags(p: argparse.ArgumentParser):
    _add_code_flags(p)
    p.add_argument("--theta", type=float, default=_CERT_DEFAULTS["theta"],
                   help="tilt angle in [0, pi/2]")
    p.add_argument("--alpha0", type=float, default=_CERT_DEFAULTS["alpha0"],
                   help="tilt weight (0 certifies the whole codespace)")
    p.add_argument("--alpha", help="comma list of positive operator weights")
    p.add_argument("--mu", type=float, default=_CERT_DEFAULTS["mu"],
                   help="pair-site measurement angle")
    p.add_argument("--no-extras", action="store_true",
                   help="drop the preset's extra operators")
    p.add_argument("--out", help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcert",
        description="Stabilizer codes compiled into Bell inequalities with "
                    "sum-of-squares certificates, plus verification, "
                    "deduction, and finite-shot simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codes", help="list or show code presets")
    p.add_argument("action", choices=["list", "show"])
    _add_code_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_codes)

    p = sub.add_parser("bell", help="compile a certificate into a polynomial")
    p.add_argument("action", choices=["build"])
    _add_cert_flags(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("verify", help="check certificates and bounds")
    p.add_argument("check", choices=["sos", "spectral", "classical", "all"])
    _add_cert_flags(p)
    p.add_argument("--poly-file", help="verify a stored polynomial JSON")
    p.add_argument("--sweep", help="comma list of tilt angles (CSV output)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the deduction engine")
    p.add_argument("action", choices=["deduce", "search"])
    _add_code_flags(p)
    p.add_argument("--subset", help="comma list of pair sites")
    p.add_argument("--budget-facts", type=int, default=5000)
    p.add_argument("--no-extras", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--transcripts", action="store_true",
                   help="include proved-subset transcripts in search output")
    p.add_argument("--out")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("simulate", help="finite-shot estimation")
    p.add_argument("action", choices=["estimate", "noise-sweep"])
    _add_cert_flags(p)
    p.add_argument("--poly-file")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--state-theta", type=float, default=0.0,
                   help="tilt of the prepared codeword state")
    p.add_argument("--allocation", choices=["coeff", "uniform"],
                   default="coeff")
    p.add_argument("--p-grid", default="0,0.05,0.1,0.2,0.5,1",
                   help="comma list of depolarizing probabilities")
    p.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and shared: parse_args returns a fresh Namespace
    # each call and leaves the parser as it was
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except sim.EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
