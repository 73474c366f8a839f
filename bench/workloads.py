"""The four benchmark workloads: their operations and their checks.

Each workload is a fixed list of operations built from the run's seed.  A
pass runs the list once; an operation's output is kept (in compact form)
and checked against ``reference`` only after timing ends.  Operations go
through ``bellcert.cli.main`` or the public API exactly as the README's
commands do, and look functions up on their modules at call time so that
the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random

import numpy as np

import reference as ref

PUBLISHED_ALPHA = "1.4142135623730951,1,1.4142135623730951,2.8284271247461903"
THETAS = (math.pi / 12, math.pi / 8, math.pi / 6, math.pi / 3)
# Extra Steane tilts per certify pass, at angles drawn from the seed.
EXTRA_STEANE_TILTS = 8
EXTRA_THETA_RANGE = (0.2, 1.3)
SWEEP_THETAS = (0.2, 0.4, 0.6)

# Certificate facts from the paper's construction: the reduced form holds
# exactly when sum_i alpha_i S_i^2 collapses to a constant (five-qubit and
# CHSH); Steane carries 6 generators + 2 extras and Shor 8 + 1, unit weights.
REDUCED_FORM = {"five_qubit": True, "chsh": True, "steane": False, "shor": False}
ALPHA_SUM = {"five_qubit": 1.0 + 4.0 * math.sqrt(2.0), "steane": 8.0,
             "shor": 9.0, "chsh": 2.0}
PRESET_PAIR_SITES = {"five_qubit": (1,), "steane": (2, 3, 5, 7),
                     "shor": (1, 4, 7)}


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= 1e-8 * max(1.0, abs(scale))


def _cli(bc, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bc.cli.main(argv)
    return rc, buf.getvalue()


def _plain_terms(poly) -> list[tuple[float, tuple]]:
    return [(coeff, mono.factors) for mono, coeff in poly.terms()]


class Workload:
    """A named list of (key, operation) pairs plus per-key checks."""

    name = ""

    def __init__(self, bc, seed: int):
        self.bc = bc
        self.rng = random.Random(seed)
        self.ops: list[tuple[tuple, object]] = []

    def keep(self, key, output):
        """Compact form of an operation's output, kept until the checks."""
        return output

    def check(self, key, kept) -> str | None:
        """Why a kept output is wrong, or None."""
        raise NotImplementedError

    def check_pass(self, kept_by_key: dict) -> dict:
        """Checks spanning several operations of one pass: key -> reason."""
        return {}


class Certify(Workload):
    """Every certificate check of the README plus the qudit codespaces.

    A pass holds 27 operations: `verify all` for the three qubit codes at
    alpha0 = 0 and at four tilts, the CHSH fixture, the README's Steane tilt
    sweep, `qudit_codespace` for q = 3 and 5, and `verify all` for Steane at
    eight more tilts drawn from the seed.  Eight operations are cheaper
    than the twelve Steane tilts (193 terms each at a generic angle; pi/8
    compiles to 153) and seven dearer, so the median operation falls in the
    middle of that block rather than on the step between two cost classes.

    The pass is laid out as five slots, each opening with one of the five
    Shor operations (about 80% of a pass), with the Steane tilts dealt
    round-robin after them and the rest after those.  The operations that
    set the median are thus spread evenly over the pass instead of
    wherever a shuffle puts them, so the median samples the machine's speed
    across the whole run.  The seed draws the extra angles and orders the
    operations within each class.
    """

    name = "certify"

    def __init__(self, bc, seed: int):
        super().__init__(bc, seed)
        ops = []
        extra = [self.rng.uniform(*EXTRA_THETA_RANGE)
                 for _ in range(EXTRA_STEANE_TILTS)]
        for code in ("five_qubit", "steane", "shor"):
            ops.append((("cli", code, 0.0, 0.0),
                        ["verify", "all", "--code", code]))
            for theta in THETAS + (tuple(extra) if code == "steane" else ()):
                ops.append((("cli", code, theta, 1.0),
                            ["verify", "all", "--code", code,
                             "--theta", repr(theta), "--alpha0", "1"]))
        ops.append((("cli", "chsh", 0.0, 0.0), ["verify", "all", "--code", "chsh"]))
        ops.append((("sweep", "steane", SWEEP_THETAS, 1.0),
                    ["verify", "spectral", "--code", "steane", "--alpha0", "1",
                     "--sweep", ",".join(map(str, SWEEP_THETAS))]))
        calls = [(key, (lambda argv=argv: _cli(bc, argv))) for key, argv in ops]
        calls += [(("qudit", q), (lambda q=q: bc.verify.qudit_codespace(q)))
                  for q in (3, 5)]
        self.rng.shuffle(calls)
        # Shor first, then the Steane tilts, then the rest; the sort is
        # stable, so the shuffle still orders each class.
        calls.sort(key=lambda c: (c[0][1] != "shor",
                                  c[0][:2] != ("cli", "steane") or c[0][3] == 0))
        slots = [[call] for call in calls[:5]]
        for i, call in enumerate(calls[5:]):
            slots[i % len(slots)].append(call)
        self.ops = [call for slot in slots for call in slot]
        self._refs: dict = {}
        self._codes: dict = {}

    def _code(self, name):
        if name not in self._codes:
            self._codes[name] = ref.qubit_code(name)
        return self._codes[name]

    def _reference(self, key) -> dict:
        """Target-state values and the classical maximum for one certificate."""
        if key in self._refs:
            return self._refs[key]
        _, code, theta, alpha0 = key
        compiler = self.bc.compile
        if code == "chsh":
            compiled = compiler.build_bell(compiler.chsh_certificate())
        else:
            preset = self.bc.pauli.code_preset(code)
            compiled = compiler.build_bell(compiler.default_certificate(
                preset, theta=theta, alpha0=alpha0), preset)
        terms = _plain_terms(compiled.poly)
        doc = self._code(code)
        if alpha0 > 0:
            v0, v1 = doc["logical"]
            targets = [math.cos(theta) * v0 + math.sin(theta) * v1]
        else:
            targets = list(doc["basis"].T)
        form = REDUCED_FORM[code]
        out = {
            "target_values": [ref.expectation(terms, doc["n"], doc["pair_sites"], t)
                              for t in targets],
            "bound": alpha0 + (2.0 if form else 1.0) * ALPHA_SUM[code],
            "reduced": form,
            "multiplicity": doc["basis"].shape[1] if alpha0 == 0 else 1,
            "classical": ref.classical_max(terms, doc["n"]),
        }
        self._refs[key] = out
        return out

    def check(self, key, kept) -> str | None:
        if key[0] == "qudit":
            q = key[1]
            if kept.shape != (q**5, q) or np.linalg.matrix_rank(kept) != q:
                return f"qudit basis for q={q} does not have rank q"
            for g in ref.qudit_generators(q):
                if np.abs(ref.apply_local(g, kept, 5, q) - kept).max() > 1e-9:
                    return f"qudit basis for q={q} not fixed by a generator"
            return None
        rc, text = kept
        if rc != 0:
            return f"exit code {rc}"
        if key[0] == "sweep":
            return self._check_sweep(key, text)
        doc = json.loads(text)
        r = self._reference(key)
        checks = doc["checks"]
        sos, spec, cls = checks["sos"], checks["spectral"], checks["classical"]
        bound = r["bound"]
        if not doc["passed"]:
            return "program reports a failed check"
        if sos["reduced_form"] != r["reduced"] or not _close(sos["bound"], bound, bound):
            return f"bound {sos['bound']} differs from closed form {bound}"
        if not _close(spec["max_eigenvalue"], bound, bound):
            return f"max eigenvalue {spec['max_eigenvalue']} != bound {bound}"
        for value in r["target_values"]:
            if not _close(value, spec["max_eigenvalue"], bound):
                return f"reference target state gives {value}"
        if spec["multiplicity"] != r["multiplicity"]:
            return f"multiplicity {spec['multiplicity']} != {r['multiplicity']}"
        if not _close(cls["quantum_value"], bound, bound):
            return f"quantum value {cls['quantum_value']} != bound"
        if not _close(cls["classical_bound"], r["classical"], bound):
            return f"classical bound {cls['classical_bound']} != {r['classical']}"
        if cls["classical_bound"] > bound - 0.1:
            return "classical bound not 0.1 below the quantum value"
        return None

    def _check_sweep(self, key, text: str) -> str | None:
        _, code, thetas, alpha0 = key
        lines = text.strip().splitlines()
        if lines[0] != "theta,max_eig,fidelity" or len(lines) != 1 + len(thetas):
            return "unexpected sweep CSV layout"
        for line, theta in zip(lines[1:], thetas):
            row_theta, max_eig, fidelity = map(float, line.split(","))
            r = self._reference(("cli", code, theta, alpha0))
            bound = r["bound"]
            # the CSV carries ten significant digits
            if abs(row_theta - theta) > 1e-9 or abs(max_eig - bound) > 1e-8 * bound:
                return f"theta {row_theta}: max eigenvalue {max_eig} != bound {bound}"
            if abs(r["target_values"][0] - bound) > 1e-8 * bound:
                return f"theta {theta}: reference target state gives {r['target_values'][0]}"
            if fidelity < 1.0 - 1e-8:
                return f"theta {theta}: fidelity {fidelity}"
        return None


class Deduce(Workload):
    """ISSELFTEST over every pair-site subset, the qudit no-go and a wide scan."""

    name = "deduce"
    WIDE = dict(combine="all", max_products=2000)

    def __init__(self, bc, seed: int):
        super().__init__(bc, seed)
        engine, pauli = bc.engine, bc.pauli
        codes = {name: pauli.code_preset(name)
                 for name in ("five_qubit", "steane", "shor")}
        codes.update({f"five_qudit:{q}": pauli.code_preset("five_qudit", q=q)
                      for q in (2, 3, 5)})
        specs = []
        for name in ("five_qubit", "steane", "shor"):
            n = codes[name].n
            for size in range(n + 1):
                for subset in itertools.combinations(range(1, n + 1), size):
                    specs.append((name, subset, True, "default"))
        for q in (2, 3, 5):
            specs.append((f"five_qudit:{q}", None, True, "default"))
        specs.append(("shor", None, False, "default"))
        for size in range(6):
            for subset in itertools.combinations(range(1, 6), size):
                specs.append(("five_qubit", subset, True, "wide"))
        self.rng.shuffle(specs)
        budgets = {"default": engine.Budget(), "wide": engine.Budget(**self.WIDE)}

        def op(name, subset, extras, budget):
            mod = bc.engine
            return mod.deduce(mod.problem_for_code(codes[name], pair_sites=subset,
                                                   extras=extras), budgets[budget])

        self.ops = [(spec, (lambda spec=spec: op(*spec))) for spec in specs]
        self._bases: dict = {}
        self._errors: dict = {}

    def keep(self, key, output):
        return (output.status,
                tuple((f.word, f.phase) for f in output.facts),
                tuple(sorted(output.pair_comm.items())))

    def _model_error(self, code, what, *args) -> float:
        """Cached error of one fact (what = word) or commutation phase
        (what = site) on the reference Paulis and codespace of a qubit code."""
        if code not in self._bases:
            if code == "five_qudit:2":
                self._bases[code] = ref.codespace(ref.qudit_generators(2), 5)
            else:
                self._bases[code] = ref.qubit_code(code)["basis"]
        key = (code, what, *args)
        if key not in self._errors:
            basis = self._bases[code]
            n = basis.shape[0].bit_length() - 1
            fn = ref.pair_comm_error if isinstance(what, int) else ref.word_phase_error
            self._errors[key] = fn(what, *args, basis, n)
        return self._errors[key]

    def check(self, key, kept) -> str | None:
        code, subset, extras, budget = key
        status, facts, pair_comm = kept
        expected = None
        if code.startswith("five_qudit"):
            expected = "proved" if code.endswith(":2") else "contradiction"
        elif not extras:
            expected = "unknown"
        elif budget == "default" and subset == PRESET_PAIR_SITES[code]:
            expected = "proved"
        if expected is not None and status != expected:
            return f"status {status}, expected {expected}"
        if code in ("five_qudit:3", "five_qudit:5"):
            return None  # no faithful qubit model for q > 2
        for word, phase in facts:
            if self._model_error(code, word, phase) > 1e-9:
                return f"derived fact fails in the Pauli model (phase {phase})"
        for site, e in pair_comm:
            if self._model_error(code, site, e) > 1e-9:
                return f"commutation phase at site {site} fails in the Pauli model"
        return None

    def check_pass(self, kept_by_key: dict) -> dict:
        """A larger budget keeps every proof of the default one."""
        bad = {}
        for (code, subset, extras, budget), kept in kept_by_key.items():
            if budget != "wide":
                continue
            default = kept_by_key[(code, subset, extras, "default")]
            if default[0] == "proved" and kept[0] != "proved":
                bad[(code, subset, extras, budget)] = "wide budget lost a proof"
        return bad


class _Sample(Workload):
    """Finite-shot estimates of the five-qubit inequality, one seed per op."""

    def __init__(self, bc, seed: int, argv: list[str], per_pass: int):
        super().__init__(bc, seed)
        seeds = self.rng.sample(range(1, 2**31), per_pass)
        self.ops = [(("sim", s), (lambda s=s: _cli(bc, argv + ["--seed", str(s)])))
                    for s in seeds]
        self._expected: dict = {}

    def _expected_value(self, p: float) -> float:
        if p not in self._expected:
            compiler, preset = self.bc.compile, self.bc.pauli.code_preset("five_qubit")
            alphas = [float(a) for a in PUBLISHED_ALPHA.split(",")]
            compiled = compiler.build_bell(
                compiler.default_certificate(preset, alphas=alphas), preset)
            doc = ref.qubit_code("five_qubit")
            self._expected[p] = ref.expectation(
                _plain_terms(compiled.poly), doc["n"], doc["pair_sites"],
                doc["logical"][0], noise_p=p)
        return self._expected[p]

    def _within(self, p: float, shots: int, estimate: float, stderr: float):
        want = self._expected_value(p)
        if shots != self.shots:
            return f"p={p}: {shots} shots, asked for {self.shots}"
        if abs(estimate - want) > 5.0 * stderr + 1e-9:
            return (f"p={p}: estimate {estimate} is more than 5 standard "
                    f"errors ({stderr}) from {want}")
        return None


class SampleClean(_Sample):
    name = "sample_clean"
    shots = 1_000_000

    def __init__(self, bc, seed: int):
        super().__init__(bc, seed, ["simulate", "estimate", "--code", "five_qubit",
                                    "--shots", str(self.shots),
                                    "--alpha", PUBLISHED_ALPHA], per_pass=8)

    def check(self, key, kept) -> str | None:
        rc, text = kept
        if rc != 0:
            return f"exit code {rc}"
        doc = json.loads(text)
        return self._within(0.0, doc["shots"], doc["estimate"], doc["stderr"])


class SampleNoisy(_Sample):
    name = "sample_noisy"
    shots = 100_000
    P_GRID = (0.0, 0.05, 0.1, 1.0)

    def __init__(self, bc, seed: int):
        super().__init__(bc, seed, ["simulate", "noise-sweep", "--code", "five_qubit",
                                    "--shots", str(self.shots),
                                    "--p-grid", "0,0.05,0.1,1"], per_pass=2)

    def check(self, key, kept) -> str | None:
        rc, text = kept
        if rc != 0:
            return f"exit code {rc}"
        lines = text.strip().splitlines()
        if lines[0] != "p,shots,estimate,stderr" or len(lines) != 1 + len(self.P_GRID):
            return "unexpected sweep CSV layout"
        for line, p in zip(lines[1:], self.P_GRID):
            row_p, shots, estimate, stderr = line.split(",")
            if float(row_p) != p:
                return f"row for p={row_p}, expected {p}"
            reason = self._within(p, int(shots), float(estimate), float(stderr))
            if reason:
                return reason
        return None


WORKLOADS = {w.name: w for w in (Certify, Deduce, SampleClean, SampleNoisy)}
