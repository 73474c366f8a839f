"""Outside-in tracing of bellcert's public functions.

The tracer replaces each traced function with a timing wrapper in every
``bellcert`` module namespace that holds it (``verify`` imports
``apply_word`` from ``pauli``, ``sim`` imports ``logical_basis`` from
``verify``, the package re-exports most names), so calls between layers
are seen too.  Self time is a call's duration minus the durations of the
traced calls it made, kept with an explicit stack.  Spans stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("cli.main", "bellcert.cli", "main"),
    ("compile.build_bell", "bellcert.compile", "build_bell"),
    ("compile.verify_sos", "bellcert.compile", "verify_sos"),
    ("compile.substitute", "bellcert.compile", "substitute"),
    ("poly.mul", "bellcert.poly", "BellPolynomial.__mul__"),
    ("pauli.apply_word", "bellcert.pauli", "apply_word"),
    ("pauli.stabilizer_group", "bellcert.pauli", "stabilizer_group"),
    ("verify.materialize", "bellcert.verify", "materialize"),
    ("verify.max_eig", "bellcert.verify", "max_eig"),
    ("verify.codespace_basis", "bellcert.verify", "codespace_basis"),
    ("verify.logical_basis", "bellcert.verify", "logical_basis"),
    ("verify.qudit_codespace", "bellcert.verify", "qudit_codespace"),
    ("verify.classical_bound", "bellcert.verify", "classical_bound"),
    ("verify.check_selftest", "bellcert.verify", "check_selftest"),
    ("engine.deduce", "bellcert.engine", "deduce"),
    ("engine.problem_for_code", "bellcert.engine", "problem_for_code"),
    ("sim.estimate_bell", "bellcert.sim", "estimate_bell"),
    ("sim.from_code", "bellcert.sim", "Strategy.from_code"),
    ("sim.noise_sweep", "bellcert.sim", "noise_sweep"),
)


# Per-layer metrics reported by a traced run: (name, unit).  Times and
# counts are per pass; every traced pass runs the same operations.
LAYER_METRICS = tuple(
    [(f"{name}.self_s", "s") for name, _, _ in TARGETS
     if name != "compile.substitute"]
    + [(f"{name}.calls", "count") for name in (
        "cli.main", "compile.build_bell", "compile.substitute", "poly.mul",
        "pauli.apply_word", "verify.materialize", "verify.max_eig",
        "engine.deduce", "sim.estimate_bell")]
    + [("compile.terms", "count"), ("pauli.group_words", "count"),
       ("engine.facts", "count"), ("engine.rounds", "count"),
       ("engine.rule_applications", "count"), ("sim.shots", "count"),
       ("sim.clean.shots_per_s", "1/s"), ("sim.noisy.shots_per_s", "1/s"),
       ("trace.overhead_s", "s")])


def _count_result(name: str, args, kwargs, result, own: float, counts) -> None:
    """Work counters read from a traced call's arguments and result."""
    if name == "compile.build_bell":
        counts["compile.terms"] += len(result.poly)
    elif name == "pauli.stabilizer_group":
        counts["pauli.group_words"] += len(result)
    elif name == "engine.deduce":
        counts["engine.facts"] += len(result.facts)
        counts["engine.rounds"] += result.rounds
        counts["engine.rule_applications"] += result.transcript.rule_applications()
    elif name == "sim.estimate_bell":
        noise_p = kwargs.get("noise_p", args[4] if len(args) > 4 else 0.0)
        kind = "noisy" if noise_p > 0 else "clean"
        counts["sim.shots"] += result.shots
        counts[f"sim.{kind}.shots"] += result.shots
        counts[f"sim.{kind}.seconds"] += own


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op_id]
        self.op_id = -1
        self._stack: list[list] = []  # [start, child_seconds, span index]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)

    def _wrap(self, name: str, func):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][2] if stack else -1
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, parent, tracer.op_id]
            tracer.spans.append(span)
            frame = [time.perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                span[1], span[2] = frame[0], end
                own = duration - frame[1]
                tracer.self_s[name] += own
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            _count_result(name, args, kwargs, result, own, tracer.counts)
            return result

        return traced

    def install(self) -> None:
        """Patch every bellcert namespace that refers to a traced function."""
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "bellcert"
                                       or mod_name.startswith("bellcert.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def pass_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """(seconds, exact counts) accumulated since the last reset."""
        times = {f"{name}.self_s": self.self_s[name] for name, _, _ in TARGETS}
        counts = {f"{name}.calls": self.calls[name] for name, _, _ in TARGETS}
        for key, value in self.counts.items():
            (times if key.endswith(".seconds") else counts)[key] = value
        for kind in ("clean", "noisy"):
            times.setdefault(f"sim.{kind}.seconds", 0.0)
            counts.setdefault(f"sim.{kind}.shots", 0)
        return times, counts

    def write_spans(self, path) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "op_id"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)
