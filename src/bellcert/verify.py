"""Matrix-level verification: realizations, spectra, codespaces, bounds.

Everything here is dense linear algebra on dimensions up to 2^14, with
deterministic outputs (fixed summation order, LAPACK Hermitian eigensolver).
Codespaces come from ``pauli.codespace_basis``: seeded random probes passed
through the stabilizer product projector prod_i (1/q) sum_t S_i^t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .pauli import (PauliWord, SizeLimitError, StabilizerCode, apply_word,
                    code_preset, codespace_basis)
from .poly import BellPolynomial, DIRECT, MeasurementAssignment
from .compile import CompiledInequality, SOSCertificate, build_bell

EIG_CLUSTER_TOL = 1e-8

# A dim x dim complex matrix takes 16 dim^2 bytes, and materialize plus
# max_eig keep up to five alive at once (the sum, a term's kron product and
# its scaled copy; then the hermitized copy, eigh's eigenvectors and its
# workspace).  2^12 gives 5 x 256 MiB = 1.25 GiB; 2^13 would need 5 GiB.
MAX_MATRIX_DIM = 2**12

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class RealizationError(ValueError):
    """Raised for observables that are not +-1-valued Hermitian operators."""


@dataclass(frozen=True)
class Realization:
    """Two observables per site, each Hermitian with spectrum in {+1, -1}."""

    observables: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        for site, pair in enumerate(self.observables, start=1):
            for x, obs in enumerate(pair):
                d = obs.shape[0]
                if obs.shape != (d, d):
                    raise RealizationError(f"site {site} setting {x}: not square")
                if np.abs(obs - obs.conj().T).max() > 1e-12:
                    raise RealizationError(f"site {site} setting {x}: not Hermitian")
                if np.abs(obs @ obs - np.eye(d)).max() > 1e-12:
                    raise RealizationError(
                        f"site {site} setting {x}: square differs from identity")

    @property
    def n(self) -> int:
        return len(self.observables)

    def dim(self, site: int) -> int:
        return self.observables[site - 1][0].shape[0]

    def total_dim(self) -> int:
        return math.prod(self.dim(s) for s in range(1, self.n + 1))

    def obs(self, site: int, setting: int) -> np.ndarray:
        return self.observables[site - 1][setting]


def canonical_realization(asg: MeasurementAssignment) -> Realization:
    """The Pauli-based assignment attaining the quantum bound (mu = pi/4 only)."""
    pairs = []
    sqrt2 = math.sqrt(2.0)
    for site in range(1, asg.n + 1):
        kind, mu = asg.role(site)
        if kind == DIRECT:
            pairs.append((_X.copy(), _Z.copy()))
        else:
            if abs(mu - math.pi / 4) > 1e-12:
                raise RealizationError(
                    f"canonical realization requires mu = pi/4, got {mu}")
            pairs.append(((_X + _Z) / sqrt2, (_X - _Z) / sqrt2))
    return Realization(tuple(pairs))


def random_realization(n: int, rng: np.random.Generator,
                       dims: Sequence[int] = (2, 4)) -> Realization:
    """Random +-1-valued observables, for realization-soundness checks."""
    pairs = []
    for _ in range(n):
        d = int(rng.choice(list(dims)))
        site_pair = []
        for _ in range(2):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            v, _r = np.linalg.qr(g)
            signs = rng.choice([-1.0, 1.0], size=d)
            obs = (v * signs) @ v.conj().T
            obs = (obs + obs.conj().T) / 2
            site_pair.append(obs)
        pairs.append(tuple(site_pair))
    return Realization(tuple(pairs))


def materialize(poly: BellPolynomial, real: Realization) -> np.ndarray:
    """Dense matrix of a polynomial under a realization (fixed term order)."""
    if poly.max_site() > real.n:
        raise ValueError(f"polynomial touches site {poly.max_site()} "
                         f"but realization has {real.n}")
    dim = real.total_dim()
    if dim > MAX_MATRIX_DIM:
        raise SizeLimitError(
            f"dimension {dim} exceeds dense matrix cap {MAX_MATRIX_DIM}")
    out = np.zeros((dim, dim), dtype=complex)
    eyes = [np.eye(real.dim(s), dtype=complex) for s in range(1, real.n + 1)]
    for mono, coeff in poly.terms():
        site_ops = []
        for site in range(1, real.n + 1):
            word = mono.word_at(site)
            op = eyes[site - 1]
            for letter in word:
                op = op @ real.obs(site, letter)
            site_ops.append(op)
        out += coeff * reduce(np.kron, site_ops)
    return out


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

@dataclass
class SpectralReport:
    max_eigenvalue: float
    multiplicity: int
    eigenbasis: np.ndarray  # dim x multiplicity, orthonormal columns
    gap: float              # distance to the next eigenvalue below the cluster
    bound: float | None = None

    def to_json(self) -> dict:
        doc = {
            "max_eigenvalue": self.max_eigenvalue,
            "multiplicity": self.multiplicity,
            "gap": self.gap,
            "dimension": int(self.eigenbasis.shape[0]),
        }
        if self.bound is not None:
            doc["bound"] = self.bound
        return doc


def max_eig(h: np.ndarray, bound: float | None = None) -> SpectralReport:
    """Top eigenvalue and its full eigenspace (cluster tolerance 1e-8)."""
    if np.abs(h - h.conj().T).max() > 1e-9:
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    top = float(vals[-1])
    mask = vals >= top - EIG_CLUSTER_TOL
    mult = int(mask.sum())
    below = vals[~mask]
    gap = float(top - below[-1]) if below.size else math.inf
    return SpectralReport(top, mult, vecs[:, mask], gap, bound)


# ---------------------------------------------------------------------------
# Codespaces
# ---------------------------------------------------------------------------

def qudit_codespace(q: int) -> np.ndarray:
    """Joint omega^0 eigenspace basis of the five-site qudit code, dim q.

    The five_qudit preset through ``codespace_basis``: seeded probes passed
    through the stabilizer product projector, so the q=5 case never needs a
    3125x3125 eigendecomposition.
    """
    code = code_preset("five_qudit", q=q)  # rejects composite q
    if q > 5:
        raise ValueError("qudit codespace supported for prime q <= 5")
    return codespace_basis(code)


def principal_angle_sin(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spans.

    Computed as the spectral norm of (I - P_b) basis_a, which stays accurate
    for nearly identical subspaces (no sqrt(1 - cos^2) cancellation).
    """
    if basis_a.shape[1] != basis_b.shape[1]:
        return 1.0
    residual = basis_a - basis_b @ (basis_b.conj().T @ basis_a)
    sigma = np.linalg.svd(residual, compute_uv=False)
    return float(np.clip(sigma.max(), 0.0, 1.0))


def logical_basis(code: StabilizerCode) -> tuple[np.ndarray, np.ndarray]:
    """(|0L>, |1L>) with Zbar|0L> = +|0L>, |1L> = Xbar|0L>.

    The global phase of |0L> is fixed by making its first nonzero amplitude
    real and positive.
    """
    if code.k != 1:
        raise ValueError("logical basis defined for k=1 codes")
    basis = codespace_basis(code)
    zs = basis.conj().T @ apply_word(code.logical_z, basis)
    vals, vecs = np.linalg.eigh((zs + zs.conj().T) / 2)
    if abs(vals[-1] - 1.0) > 1e-8 or abs(vals[0] + 1.0) > 1e-8:
        raise ValueError("logical Z does not split the codespace into +-1")
    v0 = basis @ vecs[:, -1]
    idx = int(np.argmax(np.abs(v0) > 1e-8))
    amp = v0[idx]
    v0 = v0 * (abs(amp) / amp)
    v1 = apply_word(code.logical_x, v0)
    return v0, v1 / np.linalg.norm(v1)


# ---------------------------------------------------------------------------
# Self-test check
# ---------------------------------------------------------------------------

@dataclass
class SelftestReport:
    code: str
    theta: float
    alpha0: float
    bound: float
    max_eigenvalue: float
    multiplicity: int
    gap: float
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    fidelity: float | None = None
    subspace_distance: float | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        doc = {
            "code": self.code,
            "theta": self.theta,
            "alpha0": self.alpha0,
            "bound": self.bound,
            "max_eigenvalue": self.max_eigenvalue,
            "multiplicity": self.multiplicity,
            "gap": self.gap,
            "passed": self.passed,
            "checks": [{"name": n, "passed": ok, "detail": d}
                       for n, ok, d in self.checks],
        }
        if self.fidelity is not None:
            doc["fidelity"] = self.fidelity
        if self.subspace_distance is not None:
            doc["subspace_distance"] = self.subspace_distance
        return doc


def check_selftest(cert: SOSCertificate, code: StabilizerCode,
                   compiled: CompiledInequality | None = None,
                   tol: float = 1e-8) -> SelftestReport:
    """Spectral verification that the compiled inequality certifies its target.

    With alpha0 = 0 the top eigenspace must be the codespace (multiplicity
    2^k); with alpha0 > 0 it must be the single tilted codeword
    cos(theta)|0L> + sin(theta)|1L>.
    """
    compiled = compiled or build_bell(cert, code)
    real = canonical_realization(compiled.assignment)
    h = materialize(compiled.poly, real)
    spec = max_eig(h, bound=compiled.bound)
    report = SelftestReport(
        code=code.name, theta=cert.theta, alpha0=cert.alpha0,
        bound=compiled.bound, max_eigenvalue=spec.max_eigenvalue,
        multiplicity=spec.multiplicity, gap=spec.gap,
    )
    delta = abs(spec.max_eigenvalue - compiled.bound)
    report.checks.append(("bound_attained", delta <= tol,
                          f"|max_eig - bound| = {delta:.3e}"))
    if cert.alpha0 == 0:
        report.checks.append(("multiplicity", spec.multiplicity == 2**code.k,
                              f"multiplicity {spec.multiplicity}"))
        dist = principal_angle_sin(spec.eigenbasis, codespace_basis(code))
        report.subspace_distance = dist
        report.checks.append(("eigenspace_is_codespace", dist <= tol,
                              f"principal-angle sin = {dist:.3e}"))
    else:
        report.checks.append(("multiplicity", spec.multiplicity == 1,
                              f"multiplicity {spec.multiplicity}"))
        v0, v1 = logical_basis(code)
        target = math.cos(cert.theta) * v0 + math.sin(cert.theta) * v1
        vec = spec.eigenbasis[:, 0]
        fid = float(abs(np.vdot(vec, target))**2)
        report.fidelity = fid
        report.checks.append(("fidelity", fid >= 1.0 - tol,
                              f"fidelity {fid:.12f}"))
    return report


def tilt_sweep(code: StabilizerCode, thetas: Iterable[float],
               alpha0: float = 1.0,
               alphas: Sequence[float] | None = None,
               mu: float = math.pi / 4,
               extras: bool = True) -> list[dict]:
    """Rows (theta, max_eig, fidelity) for a sweep of tilt angles."""
    from .compile import default_certificate

    rows = []
    for theta in thetas:
        cert = default_certificate(code, theta=theta, alpha0=alpha0,
                                   alphas=alphas, mu=mu, extras=extras)
        report = check_selftest(cert, code)
        rows.append({
            "theta": float(theta),
            "max_eig": report.max_eigenvalue,
            "fidelity": report.fidelity if report.fidelity is not None else math.nan,
        })
    return rows


def model_check_deduction(result, code: StabilizerCode,
                          tol: float = 1e-9) -> float:
    """Largest violation of any derived fact in the canonical Pauli model.

    The model takes X_k, Z_k to be genuine Paulis and the state any
    codespace vector; it satisfies every hypothesis for every pair-site
    subset, so every soundly derived fact must annihilate the codespace.
    Qubit codes only (the qudit commutation bookkeeping is pattern-blind by
    design and has no faithful single model).
    """
    if code.q != 2:
        raise ValueError("model check is defined for qubit codes")
    basis = codespace_basis(code)
    worst = 0.0
    for fact in result.facts:
        factors = [(site, sym, power)
                   for site, runs in fact.word for sym, power in runs]
        w = PauliWord.from_factors(code.n, factors, q=2)
        target = (-1.0)**fact.phase
        err = float(np.abs(apply_word(w, basis) - target * basis).max())
        worst = max(worst, err)
    for site, e in result.pair_comm.items():
        zx = PauliWord.from_factors(code.n, [(site, "Z", 1), (site, "X", 1)])
        xz = PauliWord.from_factors(code.n, [(site, "X", 1), (site, "Z", 1)])
        err = float(np.abs(apply_word(zx, basis)
                           - (-1.0)**e * apply_word(xz, basis)).max())
        worst = max(worst, err)
    if worst > tol:
        raise AssertionError(f"derived fact fails in the Pauli model: {worst:.3e}")
    return worst


# ---------------------------------------------------------------------------
# Classical bound
# ---------------------------------------------------------------------------

def classical_bound(poly: BellPolynomial) -> float:
    """Maximum over all deterministic +-1 assignments, by exact enumeration.

    Each monomial evaluates to a parity of the assigned signs, so the scan
    over 2^(2n) strategies vectorizes to popcounts.
    """
    n = poly.max_site()
    if n == 0:
        return poly.constant_part()
    if n > 10:
        raise SizeLimitError(
            f"enumeration over 2^{2 * n} assignments refused (n > 10)")
    count = 1 << (2 * n)
    strategies = np.arange(count, dtype=np.uint32)
    total = np.full(count, 0.0)
    for mono, coeff in poly.terms():
        mask = np.uint32(0)
        for site, word in mono.factors:
            for setting in (0, 1):
                if sum(1 for letter in word if letter == setting) % 2:
                    mask |= np.uint32(1 << ((site - 1) * 2 + setting))
        parity = np.bitwise_count(strategies & mask) & 1
        total += coeff * (1.0 - 2.0 * parity)
    return float(total.max())


# ---------------------------------------------------------------------------
# Pair canonicalization
# ---------------------------------------------------------------------------

def canonicalize_pair(xop: np.ndarray, zop: np.ndarray,
                      tol: float = 1e-8) -> tuple[np.ndarray, dict[str, float]]:
    """Unitary U with U X U* ~ X (x) I and U Z U* ~ Z (x) I.

    Requires X^2 = Z^2 = I and {X, Z} = 0 (each to 1e-8) on an even
    dimension; built by pairing the +-1 eigenspaces of Z through X.
    """
    d = xop.shape[0]
    if xop.shape != (d, d) or zop.shape != (d, d):
        raise ValueError("operators must be square and equally sized")
    if d % 2:
        raise ValueError(f"dimension {d} is odd; no X (x) I form exists")
    pre = {
        "x_square": float(np.abs(xop @ xop - np.eye(d)).max()),
        "z_square": float(np.abs(zop @ zop - np.eye(d)).max()),
        "anticommutator": float(np.abs(xop @ zop + zop @ xop).max()),
    }
    for name, err in pre.items():
        if err > tol:
            raise ValueError(f"precondition {name} violated: {err:.3e} > {tol}")
    vals, vecs = np.linalg.eigh((zop + zop.conj().T) / 2)
    plus = vecs[:, vals > 0]
    if plus.shape[1] != d // 2:
        raise ValueError("Z eigenspaces are not balanced")
    minus = xop @ plus
    v = np.hstack([plus, minus])
    # Re-orthonormalize; the QR sign fix keeps the construction deterministic.
    v, r = np.linalg.qr(v)
    v = v * np.sign(np.real(np.diag(r)))
    u = v.conj().T
    half = d // 2
    target_x = np.kron(_X, np.eye(half))
    target_z = np.kron(_Z, np.eye(half))
    residuals = {
        "x": float(np.abs(u @ xop @ u.conj().T - target_x).max()),
        "z": float(np.abs(u @ zop @ u.conj().T - target_z).max()),
    }
    return u, residuals
