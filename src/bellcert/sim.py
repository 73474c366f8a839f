"""Finite-shot simulation of the verifier/prover rounds.

A strategy is a shared state plus two single-qubit observables per site.
Each round the verifier picks one setting per site, the provers return
+-1 outcomes drawn by the Born rule, and correlation estimates aggregate
the outcome products.  One sampler serves rounds and estimates: it rotates
the state into every site's eigenbasis for the chosen settings and draws
basis indices, whose bits are the per-site outcomes.  Local depolarizing
noise (1 - p) rho + p I/2 is exact outcome replacement: with probability p
a measured site's outcome becomes one of its two eigenvalues chosen
uniformly, i.e. its eigenvalue index flips with probability p/2.  The
channels act per site and unmeasured sites are traced out, so this is the
exact joint law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pauli import SizeLimitError, StabilizerCode
from .poly import BellPolynomial, MeasurementAssignment, Monomial
from .verify import Realization, canonical_realization, logical_basis

# One monomial's draw keeps about 33 bytes per shot alive (the int64 index
# array, its per-site bits, the float64 products and, under noise, the flip
# draws; tracemalloc peak at 1e6 shots, p = 0 and 0.1).  2^25 shots take
# 2^25 x 33 B = 1.1 GB, in line with pauli.MAX_MATRIX_DIM's 1.25 GiB.
MAX_SHOTS = 2**25


class EstimationError(ValueError):
    """Raised when a polynomial cannot be estimated from single-shot rounds."""


@dataclass
class Strategy:
    """Shared n-qubit state, a realization, and the RNG seed."""

    state: np.ndarray
    realization: Realization
    seed: int = 0

    def __post_init__(self):
        self.state = np.asarray(self.state, dtype=complex).reshape(-1)
        n = self.realization.n
        if self.state.shape[0] != 2**n:
            raise ValueError(f"state dimension {self.state.shape[0]} != 2^{n}")
        for site in range(1, n + 1):
            if self.realization.dim(site) != 2:
                raise ValueError("sampling requires dimension-2 sites")
        norm = np.linalg.norm(self.state)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} != 1")
        self._rng = np.random.default_rng(self.seed)
        # per site and setting: (ascending eigenvalues, eigenvector columns)
        self._eigs = [[np.linalg.eigh(self.realization.obs(site, setting))
                       for setting in (0, 1)] for site in range(1, n + 1)]

    @property
    def n(self) -> int:
        return self.realization.n

    @classmethod
    def from_code(cls, code: StabilizerCode, theta: float = 0.0,
                  asg: MeasurementAssignment | None = None,
                  seed: int = 0) -> "Strategy":
        """Tilted codeword cos(theta)|0L> + sin(theta)|1L> with the
        canonical realization of ``asg``, by default the code's pair sites
        at mu = pi/4."""
        v0, v1 = logical_basis(code)
        state = math.cos(theta) * v0 + math.sin(theta) * v1
        asg = asg or MeasurementAssignment(code.n, code.pair_sites)
        return cls(state=state, realization=canonical_realization(asg), seed=seed)


def _born_indices(strategy: Strategy, settings: Sequence[int], shots: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray]]:
    """Born-rule basis indices for `shots` rounds, site k measured in
    setting settings[k - 1], and each site's ascending eigenvalues; bit
    n - k of an index selects site k's outcome."""
    n = strategy.n
    psi = strategy.state.reshape((2,) * n)
    outcome_vals = []
    for k in range(n):
        vals, vecs = strategy._eigs[k][settings[k]]
        psi = np.moveaxis(np.tensordot(vecs.conj().T, psi, axes=([1], [k])), 0, k)
        outcome_vals.append(vals)
    probs = np.abs(psi.reshape(-1))**2
    probs = probs / probs.sum()
    return rng.choice(probs.size, size=shots, p=probs), outcome_vals


def sample_round(strategy: Strategy, settings: Mapping[int, int],
                 rng: np.random.Generator | None = None) -> dict[int, int]:
    """One verifier round: a single Born-rule draw of every site's outcome.

    Settings must cover every site; outcomes are +-1 per site.
    """
    n = strategy.n
    if set(settings) != set(range(1, n + 1)):
        raise ValueError("settings must cover every site exactly once")
    rng = rng if rng is not None else strategy._rng
    idx, vals = _born_indices(strategy, [settings[s] for s in range(1, n + 1)],
                              1, rng)
    return {s: int(round(vals[s - 1][(idx[0] >> (n - s)) & 1]))
            for s in range(1, n + 1)}


@dataclass
class EstimateReport:
    estimate: float
    stderr: float
    shots: int
    per_setting: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "shots": self.shots,
            "per_setting": self.per_setting,
        }


def _check_single_measurement(poly: BellPolynomial) -> list[tuple[Monomial, float]]:
    terms = []
    offenders = []
    for mono, coeff in poly.terms():
        if any(len(word) > 1 for _, word in mono.factors):
            offenders.append(str(mono))
        else:
            terms.append((mono, coeff))
    if offenders:
        raise EstimationError(
            "sequential monomials unsupported (one observable per site and "
            "round): " + "; ".join(offenders))
    return terms


def _allocate(weights: Sequence[float], shots: int) -> list[int]:
    """Split exactly `shots` proportionally to `weights`, at least one each."""
    if shots < len(weights):
        raise ValueError(f"shots {shots} below the {len(weights)} sampled "
                         "monomials (each needs at least one)")
    total = sum(weights)
    raw = [shots * w / total for w in weights]
    alloc = [max(1, int(r)) for r in raw]
    remainder = shots - sum(alloc)
    if remainder > 0:
        order = sorted(range(len(raw)), key=lambda i: raw[i] - int(raw[i]),
                       reverse=True)
        for i in range(remainder):
            alloc[order[i % len(order)]] += 1
    # the one-shot floors overshot: take the excess from the largest
    for _ in range(-remainder):
        alloc[alloc.index(max(alloc))] -= 1
    return alloc


def _sample_products(strategy: Strategy, sites: tuple[int, ...],
                     settings: tuple[int, ...], shots: int,
                     rng: np.random.Generator, noise_p: float) -> np.ndarray:
    """Outcome products for `shots` rounds of one setting pattern.

    Unmeasured sites take setting 0; their outcomes are never read.  The
    noise draws follow the clean index draw, so p = 0 consumes the stream
    exactly as a noiseless estimate does.
    """
    n = strategy.n
    full_settings = [0] * n
    for site, setting in zip(sites, settings):
        full_settings[site - 1] = setting
    idx, outcome_vals = _born_indices(strategy, full_settings, shots, rng)
    products = np.ones(shots)
    for site in sites:
        bit = (idx >> (n - site)) & 1
        if noise_p > 0:
            bit ^= rng.random(shots) < noise_p / 2
        products *= outcome_vals[site - 1][bit]
    return products


def estimate_bell(strategy: Strategy, poly: BellPolynomial, shots: int,
                  allocation: str = "coeff",
                  noise_p: float = 0.0) -> EstimateReport:
    """Unbiased finite-shot estimate of a Bell polynomial's expectation.

    Shots are split across monomials proportionally to |coefficient|
    (minimum one each); ``allocation='uniform'`` splits evenly.  Each
    monomial gets an independent seeded stream, so reports are
    reproducible for any execution order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise SizeLimitError(f"shots {shots} exceed the cap {MAX_SHOTS}")
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError(f"noise probability {noise_p} outside [0, 1]")
    terms = _check_single_measurement(poly)
    constant = 0.0
    sampled: list[tuple[Monomial, float]] = []
    for mono, coeff in terms:
        if mono.is_identity:
            constant += coeff
        else:
            sampled.append((mono, coeff))
    if not sampled:
        return EstimateReport(constant, 0.0, 0, [])
    if allocation == "coeff":
        weights = [abs(c) for _, c in sampled]
    elif allocation == "uniform":
        weights = [1.0] * len(sampled)
    else:
        raise ValueError(f"unknown allocation {allocation!r}")
    alloc = _allocate(weights, shots)
    seeds = np.random.SeedSequence(strategy.seed).spawn(len(sampled))
    estimate = constant
    variance = 0.0
    per_setting = []
    for (mono, coeff), m, seed in zip(sampled, alloc, seeds):
        rng = np.random.default_rng(seed)
        sites = tuple(s for s, _ in mono.factors)
        settings = tuple(word[0] for _, word in mono.factors)
        products = _sample_products(strategy, sites, settings, m, rng, noise_p)
        mean = float(products.mean())
        var = float(products.var(ddof=1)) if m > 1 else 0.0
        estimate += coeff * mean
        variance += coeff * coeff * var / m
        per_setting.append({
            "sites": list(sites),
            "settings": list(settings),
            "coeff": coeff,
            "shots": int(m),
            "mean": mean,
        })
    return EstimateReport(float(estimate), math.sqrt(variance),
                          int(sum(alloc)), per_setting)


@dataclass
class SweepPoint:
    p: float
    shots: int
    estimate: float
    stderr: float


def noise_sweep(strategy: Strategy, poly: BellPolynomial,
                p_grid: Iterable[float], shots: int,
                allocation: str = "coeff") -> list[SweepPoint]:
    """Estimate under per-site depolarizing noise for each p in the grid.

    Every row reuses the strategy seed, so the p = 0 row coincides with
    estimate_bell exactly.
    """
    rows = []
    for p in p_grid:
        report = estimate_bell(strategy, poly, shots, allocation=allocation,
                               noise_p=float(p))
        rows.append(SweepPoint(float(p), report.shots, report.estimate,
                               report.stderr))
    return rows


def sweep_csv(rows: Iterable[SweepPoint]) -> str:
    lines = ["p,shots,estimate,stderr"]
    for row in rows:
        lines.append(f"{row.p:.6g},{row.shots},{row.estimate:.10g},"
                     f"{row.stderr:.10g}")
    return "\n".join(lines) + "\n"
