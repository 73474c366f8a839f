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

The index draw reproduces ``Generator.choice(d, size, p=probs)`` index for
index and consumes the same stream: the same normalized cdf, the same
``rng.random(shots)`` uniforms and the same answer, count(cdf <= u).  Only
the lookup differs.  A guide table splits [0, 1) into a power of two of
buckets, so a uniform's bucket floor(u * buckets) is exact; a bucket
holding no cdf value gives every uniform in it one index, and only the
uniforms in the at most d other buckets are binary-searched.  A monomial's
outcome product is then one lookup per shot in a table over the 2^n basis
indices, built with the per-shot product's multiplications in the same
site order, so means and variances are bit-equal; noise flips are drawn
per site in the same order and xor-ed into the index.  A noise sweep
draws each monomial's clean indices once and rewinds the stream to just
after that draw for each row's flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pauli import InputError, SizeLimitError, StabilizerCode
from .poly import BellPolynomial, MeasurementAssignment, Monomial
from .verify import Realization, canonical_realization, logical_basis

# One monomial's draw keeps about 25 bytes per shot alive (the int64 index
# array, the float64 products and their variance's deviations or, under
# noise, the flipped indices and one site's flip draws; tracemalloc peak at
# 1e6 shots: 24 B at p = 0, 25 B at p = 0.1).  2^25 shots take
# 2^25 x 25 B = 0.84 GB, in line with pauli.MAX_MATRIX_DIM's 1.25 GiB.
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
            raise InputError(f"state dimension {self.state.shape[0]} != 2^{n}")
        for site in range(1, n + 1):
            if self.realization.dim(site) != 2:
                raise InputError("sampling requires dimension-2 sites")
        norm = np.linalg.norm(self.state)
        if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
            raise InputError(f"state norm {norm} != 1")
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
    return _guide_draw(probs, shots, rng), outcome_vals


def _guide_draw(probs: np.ndarray, shots: int,
                rng: np.random.Generator) -> np.ndarray:
    """``rng.choice(probs.size, size=shots, p=probs)``, index for index.

    The same cdf and uniforms as choice, but a guide table (Chen and Asau's
    indexed search) replaces its per-shot binary search: only uniforms in
    a bucket that holds a cdf value are searched.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = rng.random(shots)
    # about 64 buckets per outcome, never more buckets than shots
    buckets = 1 << min((64 * probs.size - 1).bit_length(),
                       shots.bit_length() - 1)
    u *= buckets  # exact, like cdf * buckets: a power-of-two scale
    idx = _guide_table(cdf, buckets)[u.astype(np.intp)]
    split = np.flatnonzero(idx < 0)
    idx[split] = (cdf * buckets).searchsorted(u[split], side="right")
    return idx


def _guide_table(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """choice's index, count(cdf <= u), shared by every u in bucket b,
    [b, b + 1) / buckets; -1 where a cdf value inside the bucket splits it."""
    edges = np.arange(buckets + 1) / buckets
    lo = cdf.searchsorted(edges[:-1], side="right")
    hi = cdf.searchsorted(edges[1:], side="left")
    return np.where(lo == hi, lo, -1)


def sample_round(strategy: Strategy,
                 settings: Mapping[int, int]) -> dict[int, int]:
    """One verifier round: a single Born-rule draw of every site's outcome
    from the strategy's own stream.

    Settings must cover every site; outcomes are +-1 per site.
    """
    n = strategy.n
    if set(settings) != set(range(1, n + 1)):
        raise InputError("settings must cover every site exactly once")
    idx, vals = _born_indices(strategy, [settings[s] for s in range(1, n + 1)],
                              1, strategy._rng)
    return {s: int(round(vals[s - 1][(idx[0] >> (n - s)) & 1]))
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


def _product_table(n: int, sites: tuple[int, ...],
                   outcome_vals: list[np.ndarray]) -> np.ndarray:
    """The outcome product of every basis index: entry i multiplies, from
    1 and in site order, each measured site's eigenvalue at its bit of i,
    the multiplications a per-shot product over the same sites makes."""
    bits = np.arange(2**n)
    table = np.ones(2**n)
    for site in sites:
        table *= outcome_vals[site - 1][(bits >> (n - site)) & 1]
    return table


def _flipped(idx: np.ndarray, n: int, sites: tuple[int, ...],
             rng: np.random.Generator, noise_p: float) -> np.ndarray:
    """A copy of idx in which each measured site's eigenvalue index flips
    with probability p/2, one uniform per shot and site, in site order."""
    flipped = idx.copy()
    for site in sites:
        flipped ^= (rng.random(idx.size) < noise_p / 2) << (n - site)
    return flipped


def _estimate_rows(strategy: Strategy, poly: BellPolynomial, shots: int,
                   allocation: str,
                   noise_grid: list[float]) -> list[EstimateReport]:
    """One estimate per noise probability in the grid, each equal to a
    lone estimate at that probability.

    Every monomial draws its clean indices once.  Each row restores the
    monomial's stream to just after that draw before its flip draws, so
    every row consumes the stream as a lone estimate does.
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
    n = strategy.n
    estimates = [constant] * len(noise_grid)
    variances = [0.0] * len(noise_grid)
    per_setting: list[list[dict]] = [[] for _ in noise_grid]
    for (mono, coeff), m, seed in zip(sampled, alloc, seeds):
        rng = np.random.default_rng(seed)
        sites = tuple(s for s, _ in mono.factors)
        settings = tuple(word[0] for _, word in mono.factors)
        # unmeasured sites take setting 0; their outcomes are never read
        full_settings = [0] * n
        for site, setting in zip(sites, settings):
            full_settings[site - 1] = setting
        idx, outcome_vals = _born_indices(strategy, full_settings, m, rng)
        table = _product_table(n, sites, outcome_vals)
        drawn = rng.bit_generator.state
        for row, p in enumerate(noise_grid):
            if p > 0:
                rng.bit_generator.state = drawn
                products = table[_flipped(idx, n, sites, rng, p)]
            else:
                products = table[idx]
            mean = float(products.mean())
            var = float(products.var(ddof=1)) if m > 1 else 0.0
            del products  # freed before the next row draws its flips
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
    monomial gets an independent seeded stream, so reports are
    reproducible for any execution order.
    """
    return _estimate_rows(strategy, poly, shots, allocation, [noise_p])[0]


def noise_sweep(strategy: Strategy, poly: BellPolynomial,
                p_grid: Iterable[float], shots: int,
                allocation: str = "coeff") -> list[EstimateReport]:
    """Estimate under per-site depolarizing noise for each p in the grid,
    one report per p carrying it as ``p``.

    Every row equals estimate_bell at its p with the strategy seed, so the
    p = 0 row coincides with estimate_bell exactly.  Every p is checked
    before anything is drawn.
    """
    return _estimate_rows(strategy, poly, shots, allocation,
                          [float(p) for p in p_grid])


def sweep_csv(rows: Iterable[EstimateReport]) -> str:
    lines = ["p,shots,estimate,stderr"]
    for row in rows:
        lines.append(f"{row.p:.6g},{row.shots},{row.estimate:.10g},"
                     f"{row.stderr:.10g}")
    return "\n".join(lines) + "\n"
