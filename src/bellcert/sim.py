"""Finite-shot simulation of the verifier/prover rounds.

A strategy is a shared state plus two single-qubit observables per site.
Each round the verifier picks one setting per site and the provers return
+-1 outcomes drawn by the Born rule: ``sample_round`` rotates the state
into every site's eigenbasis for the chosen settings and draws one basis
index, whose bits are the per-site outcomes.

An estimate needs only each monomial's outcome product, which is +-1 with
P(+1) = (1 + <m>)/2 exactly, <m> = <psi| (x) A_site |psi> over the
monomial's sites.  Local depolarizing noise (1 - p) rho + p I/2 on every
site scales <m> by (1 - p)^|supp m|: the channels act per site, and an
unmeasured site's channel is traced out.  So the number of +1 products in
m shots is one binomial draw, and the mean and ddof=1 variance of the m
products follow from it in closed form; this is the exact law of m
independent rounds, with no per-shot array.  On a code's tilted codeword
each <m> comes from the stabilizer algebra, so an estimate builds no 2^n
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pauli import InputError, SizeLimitError, StabilizerCode
from .poly import BellPolynomial, MeasurementAssignment, Monomial
from .verify import (Realization, canonical_realization,
                     codeword_expectations, logical_basis)

# The cap bounds the requested shot budget; no per-shot array exists, since
# each monomial's outcome products are one binomial draw.
MAX_SHOTS = 2**25


class EstimationError(ValueError):
    """Raised when a polynomial cannot be estimated from single-shot rounds."""


class Strategy:
    """Shared n-qubit state, a realization, and the RNG seed.

    A strategy from ``from_code`` keeps its ``codeword`` (code, theta,
    assignment) instead of a state: estimates take each <m> from
    ``verify.codeword_expectations``; the 2^n state, the realization and
    the eigenbases are built when first used, by ``sample_round`` say.
    """

    def __init__(self, state: np.ndarray | None,
                 realization: Realization | None, seed: int = 0,
                 codeword: tuple[StabilizerCode, float,
                                 MeasurementAssignment] | None = None):
        self.seed, self.codeword = seed, codeword
        n = self.n = realization.n if codeword is None else codeword[2].n
        if codeword is None:
            self.realization = realization
            for site in range(1, n + 1):
                if realization.dim(site) != 2:
                    raise InputError("sampling requires dimension-2 sites")
            self.state = np.asarray(state, dtype=complex).reshape(-1)
            if self.state.shape[0] != 2**n:
                raise InputError(f"state dimension {self.state.shape[0]} "
                                 f"!= 2^{n}")
            norm = np.linalg.norm(self.state)
            if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
                raise InputError(f"state norm {norm} != 1")
        self._rng = np.random.default_rng(seed)

    @cached_property
    def state(self) -> np.ndarray:
        """The 2^n vector; a ``from_code`` strategy builds it on first read."""
        code, theta, _ = self.codeword
        v0, v1 = logical_basis(code)
        return math.cos(theta) * v0 + math.sin(theta) * v1

    @cached_property
    def realization(self) -> Realization:
        return canonical_realization(self.codeword[2])

    @cached_property
    def _eigs(self) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """Per site and setting: (ascending eigenvalues, eigenvector columns)."""
        return [[np.linalg.eigh(self.realization.obs(site, setting))
                 for setting in (0, 1)] for site in range(1, self.n + 1)]

    @classmethod
    def from_code(cls, code: StabilizerCode, theta: float = 0.0,
                  asg: MeasurementAssignment | None = None,
                  seed: int = 0) -> "Strategy":
        """Tilted codeword cos(theta)|0L> + sin(theta)|1L> with the
        canonical realization of ``asg``, by default the code's pair sites
        at mu = pi/4.  A theta whose double is not finite is refused, since
        estimates read sin 2 theta and cos 2 theta."""
        if not math.isfinite(2 * theta):
            why = ("is not finite" if not math.isfinite(theta)
                   else f"doubles to {2 * theta}")
            raise InputError(f"--state-theta {theta} {why}")
        if code.k != 1:
            raise InputError(f"logical basis defined for k=1 codes, "
                             f"not k={code.k}")
        asg = asg or MeasurementAssignment(code.n, code.pair_sites)
        if asg.n != code.n:
            raise InputError(f"assignment on {asg.n} sites; code {code.name} "
                             f"has n = {code.n}")
        return cls(None, None, seed, codeword=(code, theta, asg))


def sample_round(strategy: Strategy,
                 settings: Mapping[int, int]) -> dict[int, int]:
    """One verifier round: a single Born-rule draw of every site's outcome
    from the strategy's own stream.

    Settings must cover every site; outcomes are +-1 per site.
    """
    n = strategy.n
    if set(settings) != set(range(1, n + 1)):
        raise InputError("settings must cover every site exactly once")
    psi = strategy.state.reshape((2,) * n)
    vals = []
    for k in range(n):
        site_vals, vecs = strategy._eigs[k][settings[k + 1]]
        psi = np.moveaxis(np.tensordot(vecs.conj().T, psi, axes=([1], [k])), 0, k)
        vals.append(site_vals)
    probs = np.abs(psi.reshape(-1))**2
    probs = probs / probs.sum()
    # bit n - s of the basis index selects site s's ascending eigenvalue
    idx = strategy._rng.choice(probs.size, size=1, p=probs)[0]
    return {s: int(round(vals[s - 1][(idx >> (n - s)) & 1]))
            for s in range(1, n + 1)}


@dataclass
class EstimateReport:
    estimate: float
    stderr: float
    shots: int
    per_setting: list[dict] = field(default_factory=list)
    p: float = 0.0  # depolarizing probability; not part of to_json

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "shots": self.shots,
            "per_setting": self.per_setting,
        }


def _allocate(weights: Sequence[float], shots: int) -> list[int]:
    """Split exactly `shots` proportionally to `weights`, at least one each."""
    if shots < len(weights):
        raise InputError(f"shots {shots} below the {len(weights)} sampled "
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


def _expectation(strategy: Strategy, mono: Monomial) -> float:
    """<psi| (x) A_site |psi> over the monomial's sites, each A_site the
    strategy's own observable for its setting."""
    n = strategy.n
    psi = strategy.state.reshape((2,) * n)
    phi = psi
    for site, word in mono.factors:
        obs = strategy.realization.obs(site, word[0])
        phi = np.moveaxis(np.tensordot(obs, phi, axes=([1], [site - 1])),
                          0, site - 1)
    return float(np.vdot(psi, phi).real)


def _draw_products(seed: np.random.SeedSequence, m: int,
                   prob: float) -> tuple[float, float]:
    """Mean and ddof=1 variance of m +-1 outcome products, each +1 with
    probability prob (clipped to [0, 1]), from one binomial draw of the
    number of +1s."""
    k = np.random.default_rng(seed).binomial(m, min(max(prob, 0.0), 1.0))
    mean = float((2 * k - m) / m)
    return mean, (m * (1.0 - mean * mean) / (m - 1) if m > 1 else 0.0)


def _estimate_rows(strategy: Strategy, poly: BellPolynomial, shots: int,
                   allocation: str,
                   noise_grid: list[float]) -> list[EstimateReport]:
    """One estimate per noise probability in the grid, each equal to a
    lone estimate at that probability.

    Each monomial's <m> is computed once, from the stabilizer algebra for
    a ``from_code`` strategy and from the state otherwise; every row draws
    from a generator built afresh from the monomial's seed, as a lone
    estimate does.
    """
    for p in noise_grid:
        if not 0.0 <= p <= 1.0:
            raise InputError(f"noise probability {p} outside [0, 1]")
    if shots < 1:
        raise InputError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise SizeLimitError(f"shots {shots} exceed the cap {MAX_SHOTS}")
    constant = 0.0
    sampled: list[tuple[Monomial, float]] = []
    offenders = []
    for mono, coeff in poly.terms():
        if any(len(word) > 1 for _, word in mono.factors):
            offenders.append(str(mono))
        elif mono.is_identity:
            constant += coeff
        else:
            sampled.append((mono, coeff))
    if offenders:
        raise EstimationError(
            "sequential monomials unsupported (one observable per site and "
            "round): " + "; ".join(offenders))
    if not sampled:
        return [EstimateReport(constant, 0.0, 0, [], p) for p in noise_grid]
    if allocation == "coeff":
        weights = [abs(c) for _, c in sampled]
    elif allocation == "uniform":
        weights = [1.0] * len(sampled)
    else:
        raise InputError(f"unknown allocation {allocation!r}")
    alloc = _allocate(weights, shots)
    seeds = np.random.SeedSequence(strategy.seed).spawn(len(sampled))
    estimates = [constant] * len(noise_grid)
    variances = [0.0] * len(noise_grid)
    per_setting: list[list[dict]] = [[] for _ in noise_grid]
    if strategy.codeword is None:
        exact = [_expectation(strategy, mono) for mono, _ in sampled]
    else:
        code, theta, asg = strategy.codeword
        by_mono = codeword_expectations(poly, asg, code, theta)
        exact = [by_mono[mono] for mono, _ in sampled]
    for (mono, coeff), m, seed, clean in zip(sampled, alloc, seeds, exact):
        sites = tuple(s for s, _ in mono.factors)
        settings = tuple(word[0] for _, word in mono.factors)
        for row, p in enumerate(noise_grid):
            noisy = (1.0 - p)**len(sites) * clean
            mean, var = _draw_products(seed, m, (1.0 + noisy) / 2)
            estimates[row] += coeff * mean
            variances[row] += coeff * coeff * var / m
            per_setting[row].append({
                "sites": list(sites),
                "settings": list(settings),
                "coeff": coeff,
                "shots": int(m),
                "mean": mean,
            })
    return [EstimateReport(float(estimate), math.sqrt(variance),
                           int(sum(alloc)), rows, p)
            for estimate, variance, rows, p in zip(estimates, variances,
                                                   per_setting, noise_grid)]


def estimate_bell(strategy: Strategy, poly: BellPolynomial, shots: int,
                  allocation: str = "coeff",
                  noise_p: float = 0.0) -> EstimateReport:
    """Unbiased finite-shot estimate of a Bell polynomial's expectation.

    Shots are split across monomials proportionally to |coefficient|
    (minimum one each); ``allocation='uniform'`` splits evenly.  Each
    monomial's m outcome products are one exact binomial draw with
    P(+1) = (1 + (1 - noise_p)^|supp| <m>)/2, from its own child of the
    strategy seed, so reports are reproducible for any execution order.
    """
    return _estimate_rows(strategy, poly, shots, allocation, [noise_p])[0]


def noise_sweep(strategy: Strategy, poly: BellPolynomial,
                p_grid: Iterable[float], shots: int,
                allocation: str = "coeff") -> list[EstimateReport]:
    """Estimate under per-site depolarizing noise for each p in the grid,
    one report per p carrying it as ``p``.

    Each monomial's <m> is computed once for all rows; every row equals
    estimate_bell at its p with the strategy seed, so the p = 0 row
    coincides with estimate_bell exactly.  Every p is checked before
    anything is drawn.
    """
    return _estimate_rows(strategy, poly, shots, allocation,
                          [float(p) for p in p_grid])


def sweep_csv(rows: Iterable[EstimateReport]) -> str:
    lines = ["p,shots,estimate,stderr"]
    for row in rows:
        lines.append(f"{row.p:.6g},{row.shots},{row.estimate:.10g},"
                     f"{row.stderr:.10g}")
    return "\n".join(lines) + "\n"
