"""Matrix-level verification: realizations, spectra, codespaces, bounds.

Outputs are deterministic (fixed summation order, LAPACK Hermitian
eigensolver).  Codespaces come from ``pauli.codespace_basis``: seeded random
probes passed through the stabilizer product projector prod_i (1/q) sum_t S_i^t.

Qubit stabilizer questions are answered in the phase-exact GF(2) algebra
(``_span_phases``), with no 2^n state.  A derived fact holds on the codespace
exactly when its word is a signed generator product (``model_check_deduction``).
At the canonical realization a compiled polynomial is a sum of Pauli words;
for k = 1 a normalizer word i^(-p) S^a Xbar^bx Zbar^bz acts on the syndrome-s
sector as i^(-p) (-1)^(a.s) times a 2 x 2 logical Pauli, and for k != 1 a
stabilizer word i^(-p) S^a as the scalar i^(-p) (-1)^(a.s): one batched eigh
gives the spectrum ``check_selftest`` reads, the same coordinates each
monomial's expectation on a tilted codeword.  Polynomials without a code
take the dense route (``materialize``, ``max_eig``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .pauli import (MAX_MATRIX_DIM, InputError, PauliWord, SizeLimitError,
                    StabilizerCode, apply_word, code_preset, codespace_basis,
                    comm_exponent)
from .poly import (COEFF_TOL, BellPolynomial, MeasurementAssignment,
                   Monomial)
from .compile import (CertificateError, CompiledInequality, SOSCertificate,
                      build_bell)

EIG_CLUSTER_TOL = 1e-8
SELFTEST_TOL = 1e-8  # bound attainment, codespace distance, 1 - fidelity

# sector_spectrum peaks near 336 bytes per syndrome sector (tracemalloc,
# n = 12..19), so 2^21 sectors (n <= 22) stay within MAX_MATRIX_DIM's 1.25 GiB.
MAX_SECTORS = 2**21

# classical_bound at rank r keeps 3 x 2^r float64s; n <= 12 sites give r <= 24
MAX_CLASSICAL_RANK = 24

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# sigma_b = X^(b & 1) Z^(b >> 1): the Pauli basis of one qubit, and of one
# sector's logical block (b = 1 for Xbar, b = 2 for Zbar).
_SIGMA = np.array([np.eye(2), _X, _Z, _X @ _Z], dtype=complex)


class RealizationError(InputError):
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
                # before any arithmetic, which would warn on an infinite entry
                if not np.isfinite(obs).all():
                    raise RealizationError(
                        f"site {site} setting {x}: non-finite entry")
                if not np.abs(obs - obs.conj().T).max() <= 1e-12:
                    raise RealizationError(f"site {site} setting {x}: not Hermitian")
                if not np.abs(obs @ obs - np.eye(d)).max() <= 1e-12:
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


def _setting_paulis(asg: MeasurementAssignment, site: int
                    ) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """Settings 0 and 1 at a site as (x, z, c) terms, each sum c X^x Z^z:
    the Pauli settings that invert ``compile.substitute``.  X, Z on a direct
    site and cos mu X +- sin mu Z on a pair site, whose (A0+A1)/(2 cos mu)
    and (A0-A1)/(2 sin mu) are X and Z again."""
    if site not in asg.pair_sites:
        return ((1, 0, 1.0),), ((0, 1, 1.0),)
    c, s = math.cos(asg.mu), math.sin(asg.mu)
    return ((1, 0, c), (0, 1, s)), ((1, 0, c), (0, 1, -s))


def canonical_realization(asg: MeasurementAssignment) -> Realization:
    """The 2 x 2 matrices of the settings ``_setting_paulis`` lists."""
    return Realization(tuple(
        tuple(sum(c * _SIGMA[x | z << 1] for x, z, c in terms)
              for terms in _setting_paulis(asg, site))
        for site in range(1, asg.n + 1)))


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

    def to_json(self) -> dict:
        return {
            "max_eigenvalue": self.max_eigenvalue,
            "multiplicity": self.multiplicity,
            "gap": self.gap,
            "dimension": int(self.eigenbasis.shape[0]),
        }


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian part of a matrix, or of each matrix in a stack;
    ValueError if h is more than 1e-9 from Hermitian."""
    adjoint = h.conj().swapaxes(-1, -2)
    if np.abs(h - adjoint).max() > 1e-9:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigh((h + adjoint) / 2)


def max_eig(h: np.ndarray) -> SpectralReport:
    """Top eigenvalue and its full eigenspace (cluster tolerance 1e-8)."""
    vals, vecs = _eigh(h)
    top, mask, gap = _top_cluster(vals)
    return SpectralReport(top, int(mask.sum()), vecs[:, mask], gap)


def _top_cluster(vals: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(top, mask of eigenvalues within 1e-8 of it, gap below) of sorted vals."""
    top = float(vals[-1])
    mask = vals >= top - EIG_CLUSTER_TOL
    below = vals[~mask]
    return top, mask, float(top - below[-1]) if below.size else math.inf


# ---------------------------------------------------------------------------
# Syndrome sectors
# ---------------------------------------------------------------------------

_I_INV_POW = np.array([1, -1j, -1, 1j])  # i^(-p) for p = 0..3


def _expand(mono: Monomial, coeff: complex, asg: MeasurementAssignment,
            site_words: dict) -> list[tuple[int, int, complex]]:
    """coeff * mono at the canonical realization as (x mask, z mask, c)
    terms, c X^x Z^z summed, each key once.

    Bit k - 1 of a mask belongs to site k.  Each setting is expanded by
    ``_setting_paulis``; ``site_words`` caches each (site, word)'s terms.
    """
    acc = [(0, 0, complex(coeff))]
    for site, word in mono.factors:
        if (site, word) not in site_words:
            settings = _setting_paulis(asg, site)
            local = {(0, 0): 1.0}
            for letter in word:
                nxt: dict[tuple[int, int], complex] = {}
                for (x, z), c in local.items():
                    for lx, lz, lc in settings[letter]:
                        # Z^z X^lx = (-1)^(z lx) X^lx Z^z
                        key = (x ^ lx, z ^ lz)
                        nxt[key] = nxt.get(key, 0) + (-1)**(z & lx) * lc * c
                local = nxt
            site_words[site, word] = [(x, z, c) for (x, z), c in local.items()]
        bit = 1 << (site - 1)
        acc = [(x | bit * lx, z | bit * lz, c * lc) for x, z, c in acc
               for lx, lz, lc in site_words[site, word]]
    return acc


def _pauli_sum(poly: BellPolynomial,
               asg: MeasurementAssignment) -> dict[tuple[int, int], complex]:
    """poly at the canonical realization as {(x mask, z mask): c}, the sum
    of its monomials' ``_expand`` terms.  Collected coefficients at or below
    COEFF_TOL times max(1, largest collected |c|) are dropped: the rounding
    residue of a cancellation grows with the weights."""
    site_words: dict = {}
    total: dict[tuple[int, int], complex] = {}
    for mono, coeff in poly.terms():
        for x, z, c in _expand(mono, coeff, asg, site_words):
            total[x, z] = total.get((x, z), 0) + c
    cut = COEFF_TOL * max([1.0, *map(abs, total.values())])
    return {key: c for key, c in total.items() if abs(c) > cut}


def _gf2_coords(vectors: Iterable[int]) -> tuple[list[int], int]:
    """(coords, rank): bit j of a vector's coords picks basis vector j, the
    basis being the vectors independent of those before them, in order."""
    echelon: dict[int, tuple[int, int]] = {}  # leading bit: (vector, coords)
    coords = []
    for v in vectors:
        mix = 0
        while v and v.bit_length() - 1 in echelon:
            head, head_mix = echelon[v.bit_length() - 1]
            v, mix = v ^ head, mix ^ head_mix
        if v:
            unit = 1 << len(echelon)
            echelon[v.bit_length() - 1] = (v, mix ^ unit)
            mix = unit
        coords.append(mix)
    return coords, len(echelon)


def _walsh(a: np.ndarray) -> np.ndarray:
    """out[s] = sum_t (-1)^popcount(s & t) a[t] along axis 0 (length 2^r),
    by r butterfly passes."""
    out = np.array(a)
    for k in range(len(out).bit_length() - 1):
        low, high = out.reshape(-1, 2, 1 << k, *out.shape[1:]).swapaxes(0, 1)
        low[...], high[...] = low + high, low - high
    return out


def _xz_masks(word: PauliWord) -> tuple[int, int]:
    return tuple(sum(bit << k for k, bit in enumerate(exps))
                 for exps in (word.x_exp, word.z_exp))


def _span_phases(n: int, rows: Sequence[PauliWord],
                 keys: Iterable[tuple[int, int]]) -> list[tuple[int, int] | None]:
    """(mix, p) for each (x, z) of keys, with X^x Z^z = i^(-p) times the
    product, in row order, of the rows whose bits mix sets; None outside
    the rows' span.  Rows must be independent qubit words."""
    rows = [(*_xz_masks(w), w.phase) for w in rows]
    coords, _ = _gf2_coords([x | z << n for x, z, _ in rows]
                            + [x | z << n for x, z in keys])

    def phase(mix):  # Z^z X^rx = (-1)^|z & rx| X^rx Z^z
        z = p = 0
        for i, (rx, rz, rp) in enumerate(rows):
            if mix >> i & 1:
                p, z = p + rp + 2 * (z & rx).bit_count(), z ^ rz
        return p % 4
    # a key outside the span is a new basis vector, with a bit above the rows
    return [None if mix >> len(rows) else (mix, phase(mix))
            for mix in coords[len(rows):]]


def _normalizer_coords(code: StabilizerCode, keys: Iterable[tuple[int, int]]
                       ) -> list[tuple[int, int, complex] | None] | None:
    """X^x Z^z = i^(-p) S^a Xbar^(b & 1) Zbar^(b >> 1) for each (x, z) of
    keys, as (a, b, i^(-p)), or None outside the span of the rows: the
    generators, then Xbar and Zbar if k = 1 (else b = 0).  Returns None
    unless the code is a qubit code: construction makes its rows independent."""
    m = len(code.generators)
    if code.q != 2:
        return None
    rows = code.generators + ((code.logical_x, code.logical_z)
                              if code.k == 1 else ())
    return [None if span is None else
            (span[0] & (1 << m) - 1, span[0] >> m, _I_INV_POW[span[1]])
            for span in _span_phases(code.n, rows, keys)]


def sector_spectrum(poly: BellPolynomial, asg: MeasurementAssignment,
                    code: StabilizerCode
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues and eigenvectors of poly per syndrome sector, or None.

    Returns (vals, vecs) of shapes (2^m, d) and (2^m, d, d), m generators:
    row s is the block on the sector where generator j has eigenvalue
    (-1)^(s_j), so row 0 is the codespace.  For k = 1, d = 2, in the basis
    (|0L>_s, Xbar|0L>_s) with Zbar|0L>_s = |0L>_s of ``logical_basis``;
    else d = 1, the sector's one value of multiplicity 2^k.  Returns None
    unless the code meets ``_normalizer_coords``'s conditions on the
    assignment's sites and each word of the polynomial at the canonical
    realization lies in the span of its rows.  Refuses over MAX_SECTORS.
    """
    n, m = code.n, len(code.generators)
    if asg.n != n or poly.max_site() > n:
        return None
    terms = _pauli_sum(poly, asg)
    coords = _normalizer_coords(code, terms)
    if coords is None:
        return None
    if 1 << m > MAX_SECTORS:
        raise SizeLimitError(f"{1 << m} syndrome sectors exceed the sector "
                             f"cap {MAX_SECTORS}")
    if None in coords:
        return None
    sigma = _SIGMA if code.k == 1 else _SIGMA[:1, :1, :1]
    weights = np.zeros((1 << m, len(sigma)), dtype=complex)
    for (a, b, phase), c in zip(coords, terms.values()):
        weights[a, b] += c * phase
    return _eigh(np.tensordot(_walsh(weights), sigma, axes=1))


def codeword_expectations(poly: BellPolynomial, asg: MeasurementAssignment,
                          code: StabilizerCode,
                          theta: float) -> dict[Monomial, float]:
    """<m> on the codeword cos(theta)|0L> + sin(theta)|1L> for each monomial
    of poly at the canonical realization of asg, with no 2^n vector.

    A normalizer word i^(-p) S^a Xbar^bx Zbar^bz has expectation
    i^(-p) <sigma_b>, since S^a is 1 on the codespace, and <sigma_b> is 1,
    sin 2 theta, cos 2 theta or 0 for b = 0..3; any other word anticommutes
    with a generator, so its expectation is 0.  Refuses a code other than a
    k = 1 qubit code, or other sites than the code's.
    """
    if asg.n != code.n or poly.max_site() > code.n:
        raise InputError(f"assignment on {asg.n} sites, polynomial up to site "
                         f"{poly.max_site()}; code {code.name} has n = {code.n}")
    if code.q != 2 or code.k != 1:
        raise InputError(f"code {code.name} is not a k = 1 qubit code")
    site_words: dict = {}
    expanded = [(mono, _expand(mono, 1.0, asg, site_words))
                for mono, _ in poly.terms()]
    keys = dict.fromkeys((x, z) for _, terms in expanded for x, z, _ in terms)
    coords = _normalizer_coords(code, keys)
    sigma = (1.0, math.sin(2 * theta), math.cos(2 * theta), 0.0)
    value = {key: 0.0 if coord is None else coord[2] * sigma[coord[1]]
             for key, coord in zip(keys, coords)}
    return {mono: float(sum(c * value[x, z] for x, z, c in terms).real)
            for mono, terms in expanded}


# ---------------------------------------------------------------------------
# Codespaces
# ---------------------------------------------------------------------------

def qudit_codespace(q: int) -> np.ndarray:
    """Joint omega^0 eigenspace basis of the five-site qudit code, dim q.

    The five_qudit preset through ``codespace_basis``: seeded probes passed
    through the stabilizer product projector, so the q=5 case never needs a
    3125x3125 eigendecomposition.  Composite q is refused by the preset, and
    every prime q >= 7 by the dense cap (7^5 > 2^14).
    """
    return codespace_basis(code_preset("five_qudit", q=q))


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
        raise InputError(f"logical basis defined for k=1 codes, not k={code.k}")
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


def _sector_refusal(cert: SOSCertificate, code: StabilizerCode) -> str:
    """Why the syndrome sectors of code cannot carry cert's polynomial."""
    if code.q != 2 or cert.n != code.n:
        return (f"certificate on {cert.n} qubits; code {code.name} has "
                f"n = {code.n}, q = {code.q}")
    for op in cert.operators:
        for j, g in enumerate(code.generators, start=1):
            if comm_exponent(op, g):
                return f"operator {op} anticommutes with generator S_{j} = {g}"
    return (f"a certificate word lies outside the span of code {code.name}'s "
            "generators (and logicals, for k = 1)")


def check_selftest(compiled: CompiledInequality,
                   code: StabilizerCode) -> SelftestReport:
    """Spectral verification that the compiled inequality certifies its target.

    With alpha0 = 0 the top eigenspace must be the codespace, sector 0 of
    ``sector_spectrum`` (multiplicity 2^k); with alpha0 > 0 (k = 1 only) the
    single tilted codeword cos(theta)|0L> + sin(theta)|1L>.  A certificate
    the sectors cannot carry is refused with CertificateError.
    """
    cert = compiled.certificate
    if cert.alpha0 > 0 and code.k != 1:
        raise InputError(f"logical basis defined for k=1 codes, not k={code.k}")
    sectors = sector_spectrum(compiled.poly, compiled.assignment, code)
    if sectors is None:
        raise CertificateError(_sector_refusal(cert, code))
    vals, vecs = sectors
    top, _, gap = _top_cluster(np.sort(vals, axis=None))
    in_top = vals >= top - EIG_CLUSTER_TOL
    # a block of size d carries each of its values 2^k / d times
    mult = int(in_top.sum()) * 2**code.k // vals.shape[1]
    report = SelftestReport(
        code=code.name, theta=cert.theta, alpha0=cert.alpha0,
        bound=compiled.bound, max_eigenvalue=top, multiplicity=mult, gap=gap,
    )
    delta = abs(top - compiled.bound)
    report.checks.append(("bound_attained", delta <= SELFTEST_TOL,
                          f"|max_eig - bound| = {delta:.3e}"))
    if cert.alpha0 == 0:
        report.checks.append(("multiplicity", mult == 2**code.k,
                              f"multiplicity {mult}"))
        # other sectors are orthogonal to the codespace (sector 0)
        dist = 0.0 if mult == 2**code.k and in_top[0].all() else 1.0
        report.subspace_distance = dist
        report.checks.append(("eigenspace_is_codespace", dist <= SELFTEST_TOL,
                              f"principal-angle sin = {dist:.3e}"))
    else:
        report.checks.append(("multiplicity", mult == 1,
                              f"multiplicity {mult}"))
        sector, col = np.argwhere(in_top)[0]
        target = (math.cos(cert.theta), math.sin(cert.theta))
        fid = (float(abs(np.vdot(vecs[0, :, col], target))**2)
               if sector == 0 else 0.0)
        report.fidelity = fid
        report.checks.append(("fidelity", fid >= 1.0 - SELFTEST_TOL,
                              f"fidelity {fid:.12f}"))
    return report


def tilt_sweep(cert: SOSCertificate, code: StabilizerCode,
               thetas: Iterable[float]) -> list[dict]:
    """Rows (theta, max_eig, fidelity) for cert retilted to each angle."""
    rows = []
    for theta in thetas:
        retilted = build_bell(replace(cert, theta=theta), code)
        report = check_selftest(retilted, code)
        rows.append({
            "theta": float(theta),
            "max_eig": report.max_eigenvalue,
            "fidelity": report.fidelity if report.fidelity is not None else math.nan,
        })
    return rows


def model_check_deduction(result, code: StabilizerCode) -> float:
    """0.0 if every derived fact holds in the canonical Pauli model (X_k, Z_k
    genuine Paulis, the state any codespace vector); else AssertionError
    naming the first that fails.  W psi = (-1)^phase psi there exactly when
    W = (-1)^phase S^a for a generator product S^a, and Z_k X_k = -X_k Z_k
    needs an odd pair_comm exponent.  Qubit codes only: the qudit
    commutation bookkeeping is pattern-blind and has no faithful model."""
    if code.q != 2:
        raise ValueError("model check is defined for qubit codes")
    factors = ([(site, *run) for site, runs in f.word for run in runs]
               for f in result.facts)
    words = [PauliWord.from_factors(code.n, fs) for fs in factors]
    spans = _span_phases(code.n, code.generators, map(_xz_masks, words))
    for fact, word, span in zip(result.facts, words, spans):
        # on the codespace W = i^(W.phase - p) S^a = i^(W.phase - p)
        if span is None or (word.phase - span[1] - 2 * fact.phase) % 4:
            raise AssertionError(f"derived fact {fact.idx} ({fact.rule}) "
                                 "fails in the Pauli model")
    for site, e in result.pair_comm.items():
        if e % 2 == 0:
            raise AssertionError(f"site {site} commutation exponent {e} "
                                 "fails in the Pauli model")
    return 0.0


# ---------------------------------------------------------------------------
# Classical bound
# ---------------------------------------------------------------------------

def classical_bound(poly: BellPolynomial) -> float:
    """Maximum over all deterministic +-1 assignments, exactly.

    A strategy s sets bit 2(k - 1) + x for A_x = -1 at site k, so a monomial
    is (-1)^<s, mask>, mask marking its odd-count settings.  In a basis b_j
    of the masks' span, <s, mask> = sum_j coord_j <s, b_j>, and (<s, b_j>)_j
    takes every value in GF(2)^r: the 2^(2n) strategies give the 2^r values
    of the Walsh-Hadamard transform of the coefficients at their coords.
    """
    terms = poly.terms()
    coords, rank = _gf2_coords(
        sum(word.count(x) % 2 << 2 * site - 2 + x
            for site, word in mono.factors for x in (0, 1)) for mono, _ in terms)
    if rank > MAX_CLASSICAL_RANK:
        raise SizeLimitError(f"classical bound over a rank-{rank} span "
                             f"refused (cap {MAX_CLASSICAL_RANK})")
    weights = np.zeros(1 << rank)
    np.add.at(weights, coords, [c for _, c in terms])
    return float(_walsh(weights).max())


# ---------------------------------------------------------------------------
# Pair canonicalization
# ---------------------------------------------------------------------------

def canonicalize_pair(xop: np.ndarray,
                      zop: np.ndarray) -> tuple[np.ndarray, dict[str, float]]:
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
        if err > 1e-8:
            raise ValueError(f"precondition {name} violated: {err:.3e} > 1e-08")
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
