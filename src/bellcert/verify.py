"""Matrix-level verification: realizations, spectra, codespaces, bounds.

Outputs are deterministic (fixed summation order, LAPACK Hermitian
eigensolver).  Codespaces come from ``pauli.codespace_basis``: seeded random
probes passed through the stabilizer product projector prod_i (1/q) sum_t S_i^t.

The self-test check works per syndrome sector.  At the canonical realization
every setting is a Pauli combination, so a compiled polynomial is a sum of
Pauli words; for a qubit code with k = 1 each word in the normalizer is
i^(-p) S^a Xbar^bx Zbar^bz, which acts on the sector with syndrome s as
i^(-p) (-1)^(a.s) times a 2 x 2 logical Pauli.  One batched eigh over the 2^(n-1)
blocks gives the whole spectrum.  Polynomials without a code, random
realizations and words outside the normalizer use the dense route instead:
``materialize`` builds the 2^n x 2^n matrix and ``max_eig`` diagonalizes it.
Both routes refuse dimensions above ``MAX_MATRIX_DIM`` = 2^12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .pauli import (PauliWord, SizeLimitError, StabilizerCode, apply_word,
                    code_preset, codespace_basis, mul)
from .poly import COEFF_TOL, BellPolynomial, DIRECT, MeasurementAssignment
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


def _capped_dim(real: Realization) -> int:
    dim = real.total_dim()
    if dim > MAX_MATRIX_DIM:
        raise SizeLimitError(
            f"dimension {dim} exceeds dense matrix cap {MAX_MATRIX_DIM}")
    return dim


def materialize(poly: BellPolynomial, real: Realization) -> np.ndarray:
    """Dense matrix of a polynomial under a realization (fixed term order)."""
    if poly.max_site() > real.n:
        raise ValueError(f"polynomial touches site {poly.max_site()} "
                         f"but realization has {real.n}")
    dim = _capped_dim(real)
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
    top, mask, gap = _top_cluster(vals)
    return SpectralReport(top, int(mask.sum()), vecs[:, mask], gap, bound)


def _top_cluster(vals: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(top, mask of eigenvalues within 1e-8 of it, gap below) of sorted vals."""
    top = float(vals[-1])
    mask = vals >= top - EIG_CLUSTER_TOL
    below = vals[~mask]
    return top, mask, float(top - below[-1]) if below.size else math.inf


# ---------------------------------------------------------------------------
# Syndrome sectors
# ---------------------------------------------------------------------------

# sigma_b = X^(b & 1) Z^(b >> 1): the Pauli basis of one qubit, and of one
# sector's logical block (b = 1 for Xbar, b = 2 for Zbar).
_SIGMA = np.array([np.eye(2), _X, _Z, _X @ _Z], dtype=complex)
_I_INV_POW = np.array([1, -1j, -1, 1j])  # i^(-p) for p = 0..3


def _pauli_coeffs(obs: np.ndarray) -> list[tuple[int, int, complex]]:
    """(x, z, c) with obs = sum c X^x Z^z over the nonzero c."""
    coeffs = [np.vdot(sigma, obs) / 2 for sigma in _SIGMA]
    return [(b & 1, b >> 1, c) for b, c in enumerate(coeffs)
            if abs(c) > COEFF_TOL]


def _pauli_sum(poly: BellPolynomial,
               real: Realization) -> dict[tuple[int, int], complex]:
    """poly at a qubit realization as {(x mask, z mask): c}, c X^x Z^z summed.

    Bit k - 1 of a mask belongs to site k; each setting is expanded in the
    Pauli basis of its 2 x 2 observable, and collected coefficients at or
    below COEFF_TOL are dropped.
    """
    letters = [[_pauli_coeffs(real.obs(site, x)) for x in (0, 1)]
               for site in range(1, real.n + 1)]
    site_words: dict[tuple[int, tuple[int, ...]], dict] = {}
    total: dict[tuple[int, int], complex] = {}
    for mono, coeff in poly.terms():
        acc = {(0, 0): complex(coeff)}
        for site, word in mono.factors:
            if (site, word) not in site_words:
                local = {(0, 0): 1.0}
                for letter in word:
                    nxt: dict[tuple[int, int], complex] = {}
                    for (x, z), c in local.items():
                        for lx, lz, lc in letters[site - 1][letter]:
                            # Z^z X^lx = (-1)^(z lx) X^lx Z^z
                            key = (x ^ lx, z ^ lz)
                            nxt[key] = nxt.get(key, 0) + (-1)**(z & lx) * lc * c
                    local = nxt
                site_words[site, word] = local
            bit = 1 << (site - 1)
            acc = {(x | bit * lx, z | bit * lz): c * lc
                   for (x, z), c in acc.items()
                   for (lx, lz), lc in site_words[site, word].items()}
        for key, c in acc.items():
            total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if abs(c) > COEFF_TOL}


def _symplectic_mask(word: PauliWord) -> int:
    x = sum(bit << k for k, bit in enumerate(word.x_exp))
    z = sum(bit << k for k, bit in enumerate(word.z_exp))
    return x | z << word.n


def sector_spectrum(poly: BellPolynomial, real: Realization,
                    code: StabilizerCode
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues and eigenvectors of poly per syndrome sector, or None.

    Returns (vals, vecs) of shapes (2^m, 2) and (2^m, 2, 2), m = n - 1: row s
    is the block on the sector where generator j has eigenvalue (-1)^(s_j),
    written in the basis (|0L>_s, Xbar|0L>_s) with Zbar|0L>_s = |0L>_s, so
    row 0 is the codespace in the convention of ``logical_basis``.  Returns
    None, for the dense route to take over, unless the code is a qubit code
    with k = 1 on the realization's qubits whose generators and logicals
    are independent involutions with the commutation of a stabilizer code,
    and every word of the polynomial lies in the normalizer.  Refuses
    dimensions above MAX_MATRIX_DIM, like ``materialize``.
    """
    _capped_dim(real)
    n, m = code.n, len(code.generators)
    if (code.q != 2 or code.k != 1 or m != n - 1 or real.n != n
            or poly.max_site() > n
            or any(real.dim(site) != 2 for site in range(1, n + 1))):
        return None
    rows = code.generators + (code.logical_x, code.logical_z)
    masks = [_symplectic_mask(w) for w in rows]
    for i, a in enumerate(masks):
        if not rows[i].power(2).is_identity:
            return None
        for j, b in enumerate(masks):
            anticommute = ((a & b >> n) ^ (b & a >> n)).bit_count() & 1
            if anticommute != ({i, j} == {m, m + 1}):
                return None
    # xor basis keyed by leading bit: (row combination, rows it mixes)
    echelon: dict[int, tuple[int, int]] = {}

    def reduce_mask(v: int, mix: int = 0) -> tuple[int, int]:
        while v and v.bit_length() - 1 in echelon:
            head, head_mix = echelon[v.bit_length() - 1]
            v, mix = v ^ head, mix ^ head_mix
        return v, mix

    for i, mask in enumerate(masks):
        rest, mix = reduce_mask(mask, 1 << i)
        if not rest:
            return None
        echelon[rest.bit_length() - 1] = (rest, mix)
    terms = _pauli_sum(poly, real)
    sign_masks, blocks_of, coeffs = [], [], []
    for (x, z), c in terms.items():
        rest, mix = reduce_mask(x | z << n)
        if rest:
            return None
        # X^x Z^z = i^(-p) S^a Xbar^bx Zbar^bz, with i^p the product's phase
        product = reduce(mul, (rows[i] for i in range(m + 2) if mix >> i & 1),
                         PauliWord.identity(n))
        sign_masks.append(mix & ((1 << m) - 1))
        blocks_of.append(mix >> m)
        coeffs.append(c * _I_INV_POW[product.phase])
    syndromes = np.arange(1 << m)
    parity = np.bitwise_count(syndromes[None, :] & np.array(
        sign_masks, dtype=np.int64).reshape(-1, 1)) & 1
    weights = np.zeros((len(coeffs), 4), dtype=complex)
    weights[np.arange(len(coeffs)), blocks_of] = coeffs
    blocks = np.tensordot((1.0 - 2.0 * parity.astype(float)).T @ weights,
                          _SIGMA, axes=1)
    adjoint = blocks.conj().transpose(0, 2, 1)
    if np.abs(blocks - adjoint).max() > 1e-9:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigh((blocks + adjoint) / 2)


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
    cos(theta)|0L> + sin(theta)|1L>.  The spectrum comes from
    ``sector_spectrum`` where it applies, else from the dense matrix.
    """
    compiled = compiled or build_bell(cert, code)
    real = canonical_realization(compiled.assignment)
    target = np.array([math.cos(cert.theta), math.sin(cert.theta)])
    sectors = sector_spectrum(compiled.poly, real, code)
    if sectors is not None:
        vals, vecs = sectors
        top, _, gap = _top_cluster(np.sort(vals, axis=None))
        in_top = vals >= top - EIG_CLUSTER_TOL
        mult = int(in_top.sum())
        # other sectors are orthogonal to the codespace (sector 0)
        dist = 0.0 if mult == 2 and in_top[0].all() else 1.0
        sector, col = np.argwhere(in_top)[0]
        fid = (float(abs(np.vdot(vecs[0, :, col], target))**2)
               if sector == 0 else 0.0)
    else:
        spec = max_eig(materialize(compiled.poly, real))
        top, mult, gap = spec.max_eigenvalue, spec.multiplicity, spec.gap
        if cert.alpha0 == 0:
            dist = principal_angle_sin(spec.eigenbasis, codespace_basis(code))
        else:
            v0, v1 = logical_basis(code)
            fid = float(abs(np.vdot(spec.eigenbasis[:, 0],
                                    target[0] * v0 + target[1] * v1))**2)
    report = SelftestReport(
        code=code.name, theta=cert.theta, alpha0=cert.alpha0,
        bound=compiled.bound, max_eigenvalue=top, multiplicity=mult, gap=gap,
    )
    delta = abs(top - compiled.bound)
    report.checks.append(("bound_attained", delta <= tol,
                          f"|max_eig - bound| = {delta:.3e}"))
    if cert.alpha0 == 0:
        report.checks.append(("multiplicity", mult == 2**code.k,
                              f"multiplicity {mult}"))
        report.subspace_distance = dist
        report.checks.append(("eigenspace_is_codespace", dist <= tol,
                              f"principal-angle sin = {dist:.3e}"))
    else:
        report.checks.append(("multiplicity", mult == 1,
                              f"multiplicity {mult}"))
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
