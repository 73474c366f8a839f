"""Phase-exact generalized Pauli algebra and stabilizer code presets.

Words are tracked over n sites with local dimension q >= 2.  The phase
group is the cyclic group of order 2q generated by tau = exp(i*pi/q), so
that products such as X*Z = -i*Y (q=2) are exactly representable and the
qudit commutation Z X = omega_q X Z stays exact.

Sites are 1-indexed in all public I/O; exponent vectors are stored
0-indexed internally (entry k belongs to site k+1).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

MAX_DENSE_DIM = 2**14

# A dim x dim complex matrix takes 16 dim^2 bytes, and verify.materialize
# plus max_eig keep up to five alive at once (the sum, a term's kron product
# and its scaled copy; then the hermitized copy, eigh's eigenvectors and its
# workspace).  2^12 gives 5 x 256 MiB = 1.25 GiB; 2^13 would need 5 GiB.
MAX_MATRIX_DIM = 2**12


class InputError(ValueError):
    """An input refused before any work; the CLI reports it as usage."""


class CodeValidationError(InputError):
    """Raised when a stabilizer code document violates an invariant."""


class SizeLimitError(InputError):
    """Raised, before any large allocation, when an input exceeds a size cap."""


def _as_expvec(values: Sequence[int], n: int, q: int, name: str) -> tuple[int, ...]:
    vec = tuple(int(v) % q for v in values)
    if len(vec) != n:
        raise ValueError(f"{name} must have length {n}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class PauliWord:
    """A generalized Pauli word tau^phase * prod_k X_k^{x_k} Z_k^{z_k}."""

    n: int
    q: int
    x_exp: tuple[int, ...]
    z_exp: tuple[int, ...]
    phase: int = 0  # exponent of tau = exp(i*pi/q), modulo 2q

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("local dimension q must be >= 2")
        if self.n < 0:
            raise ValueError("site count must be nonnegative")
        object.__setattr__(self, "x_exp", _as_expvec(self.x_exp, self.n, self.q, "x_exp"))
        object.__setattr__(self, "z_exp", _as_expvec(self.z_exp, self.n, self.q, "z_exp"))
        object.__setattr__(self, "phase", int(self.phase) % (2 * self.q))

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int, q: int = 2) -> "PauliWord":
        return cls(n, q, (0,) * n, (0,) * n, 0)

    @classmethod
    def from_factors(cls, n: int, factors: Iterable[tuple[int, str, int]],
                     q: int = 2) -> "PauliWord":
        """Build a word from (site, symbol, power) factors, sites 1-indexed.

        Same-site factors multiply in the order given, so mixed X/Z factors
        on one site accumulate the normal-ordering phase.
        """
        word = cls.identity(n, q)
        for site, sym, power in factors:
            if not 1 <= site <= n:
                raise ValueError(f"site {site} out of range 1..{n}")
            x = [0] * n
            z = [0] * n
            if sym == "X":
                x[site - 1] = power % q
            elif sym == "Z":
                z[site - 1] = power % q
            else:
                raise ValueError(f"unknown symbol {sym!r} (expected 'X' or 'Z')")
            word = word * cls(n, q, tuple(x), tuple(z), 0)
        return word

    # -- group operations -----------------------------------------------

    def __mul__(self, other: "PauliWord") -> "PauliWord":
        return mul(self, other)

    def dagger(self) -> "PauliWord":
        """Hermitian adjoint: reverses each site factor X^x Z^z -> Z^-z X^-x."""
        q = self.q
        # (X^x Z^z)^dag = Z^-z X^-x = omega^{xz} X^-x Z^-z
        cross = sum(x * z for x, z in zip(self.x_exp, self.z_exp))
        phase = (-self.phase + 2 * cross) % (2 * q)
        return PauliWord(self.n, q,
                         tuple((-x) % q for x in self.x_exp),
                         tuple((-z) % q for z in self.z_exp),
                         phase)

    def power(self, t: int) -> "PauliWord":
        if t < 0:
            return self.dagger().power(-t)
        out = PauliWord.identity(self.n, self.q)
        for _ in range(t):
            out = out * self
        return out

    @property
    def is_identity(self) -> bool:
        return (not any(self.x_exp) and not any(self.z_exp) and self.phase == 0)

    def factors(self) -> tuple[tuple[int, str, int], ...]:
        """(site, symbol, power) factors, X before Z at each site.

        The inverse of ``from_factors`` up to the phase, which it drops.
        """
        out = []
        for k in range(self.n):
            if self.x_exp[k]:
                out.append((k + 1, "X", self.x_exp[k]))
            if self.z_exp[k]:
                out.append((k + 1, "Z", self.z_exp[k]))
        return tuple(out)

    # -- materialization -------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Dense matrix of dimension q^n (exact up to float rounding)."""
        dim = self.q**self.n
        if dim > MAX_MATRIX_DIM:
            raise SizeLimitError(
                f"dimension {dim} exceeds dense matrix cap {MAX_MATRIX_DIM}")
        return apply_word(self, np.eye(dim, dtype=complex))

    def __str__(self) -> str:
        body = " ".join(f"{sym}{site}" + (f"^{power}" if power != 1 else "")
                        for site, sym, power in self.factors()) or "I"
        return body if self.phase == 0 else f"tau^{self.phase} {body}"

    def to_json(self) -> dict:
        return {"x": list(self.x_exp), "z": list(self.z_exp), "phase": self.phase}


def mul(a: PauliWord, b: PauliWord) -> PauliWord:
    """Phase-exact product: matrix(mul(a, b)) == matrix(a) @ matrix(b)."""
    if a.n != b.n or a.q != b.q:
        raise ValueError(f"incompatible words: n={a.n},q={a.q} vs n={b.n},q={b.q}")
    q = a.q
    # Per site: X^xa Z^za X^xb Z^zb = omega^{za*xb} X^{xa+xb} Z^{za+zb}
    cross = sum(za * xb for za, xb in zip(a.z_exp, b.x_exp))
    return PauliWord(
        a.n, q,
        tuple((xa + xb) % q for xa, xb in zip(a.x_exp, b.x_exp)),
        tuple((za + zb) % q for za, zb in zip(a.z_exp, b.z_exp)),
        (a.phase + b.phase + 2 * cross) % (2 * q),
    )


def comm_exponent(a: PauliWord, b: PauliWord) -> int:
    """The e in a*b = omega_q^e * b*a (symplectic form of the exponent vectors)."""
    if a.n != b.n or a.q != b.q:
        raise ValueError("incompatible words")
    e = sum(za * xb - zb * xa
            for za, xb, zb, xa in zip(a.z_exp, b.x_exp, b.z_exp, a.x_exp))
    return e % a.q


def apply_word(word: PauliWord, vecs: np.ndarray) -> np.ndarray:
    """Apply a Pauli word to column vectors without building its dense matrix.

    Basis states are indexed by base-q digit strings d_1..d_n (site 1 = most
    significant).  X^x Z^z |d> = omega^{z d} |d + x>.
    """
    n, q = word.n, word.q
    dim = q**n
    if vecs.shape[0] != dim:
        raise ValueError(f"vector dimension {vecs.shape[0]} != q^n = {dim}")
    idx = np.arange(dim)
    phase_exp = np.zeros(dim, dtype=np.int64)  # tau exponent per basis state
    new_idx = np.zeros(dim, dtype=np.int64)
    for k in range(n):
        stride = q**(n - 1 - k)
        digit = (idx // stride) % q
        phase_exp += 2 * word.z_exp[k] * digit
        new_idx += ((digit + word.x_exp[k]) % q) * stride
    phase_exp = (phase_exp + word.phase) % (2 * q)
    if q == 2:
        phases = np.array([1, 1j, -1, -1j], dtype=complex)[phase_exp]
    else:
        phases = np.exp(1j * math.pi * phase_exp / q)
    out = np.zeros_like(vecs, dtype=complex)
    out[new_idx] = (phases[:, None] if vecs.ndim == 2 else phases) * vecs[idx]
    return out


def codespace_basis(code: StabilizerCode) -> np.ndarray:
    """Orthonormal basis (q^n x q^k) of the joint +1 eigenspace of a code.

    Seeded random probes pass through the product projector
    prod_i (1/q) sum_t S_i^t, m*(q-1) word applications in all, and an SVD
    orthonormalizes the result.  Raises SizeLimitError above MAX_DENSE_DIM,
    and ValueError, a numerical guard, when the projected rank is not q^k or
    a basis column is not fixed by some generator.
    """
    q, dim, want = code.q, code.q**code.n, code.q**code.k
    if dim > MAX_DENSE_DIM:
        raise SizeLimitError(f"dimension {dim} exceeds dense cap {MAX_DENSE_DIM}")
    rng = np.random.default_rng(0)
    block = rng.normal(size=(dim, want + 8)) + 1j * rng.normal(size=(dim, want + 8))
    for g in code.generators:
        term, acc = block, block
        for _ in range(q - 1):
            term = apply_word(g, term)
            acc = acc + term
        block = acc / q
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    rank = int((s > 1e-8 * max(s[0], 1.0)).sum())
    if rank != want:
        raise ValueError(
            f"joint +1 eigenspace has dimension {rank}, expected q^k = {want}")
    basis = u[:, :want]
    for i, g in enumerate(code.generators):
        if np.abs(apply_word(g, basis) - basis).max() > 1e-9:
            raise ValueError(f"codespace basis not fixed by generator S_{i + 1}")
    return basis


def _power_q_is_identity(word: PauliWord) -> bool:
    """Whether word^q = I exactly: (X^x Z^z)^q = omega^(x z q (q - 1) / 2)
    at each site, so (tau^p X^x Z^z)^q = tau^(q (p + (q - 1) sum_k x_k z_k)),
    which is I exactly when p + (q - 1) sum_k x_k z_k is even."""
    cross = sum(x * z for x, z in zip(word.x_exp, word.z_exp))
    return (word.phase + (word.q - 1) * cross) % 2 == 0


# ---------------------------------------------------------------------------
# Stabilizer codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerCode:
    """A stabilizer code: commuting generators plus one logical X/Z pair.

    Construction checks the code's symplectic algebra and raises
    CodeValidationError at the first invariant it breaks.  The checks imply
    a codespace of dimension q^k with no dense probe: the m independent
    generators, each with W^q = I, span a group G of q^m words in which
    only I has a zero exponent vector.  The projector onto their joint +1
    eigenspace is P = q^-m sum_{g in G} g, every g != I is traceless, and
    so tr P = q^(n - m) = q^k.
    """

    name: str
    n: int
    k: int
    q: int
    generators: tuple[PauliWord, ...]
    logical_x: PauliWord
    logical_z: PauliWord
    pair_sites: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "pair_sites", frozenset(int(s) for s in self.pair_sites))
        n, q, gens = self.n, self.q, self.generators
        logicals = ((self.logical_x, "logical_x"), (self.logical_z, "logical_z"))
        if not _is_prime(q):
            raise CodeValidationError(f"local dimension q={q} must be prime")
        for w, label in [*((g, "generator") for g in gens), *logicals]:
            if w.n != n or w.q != q:
                raise CodeValidationError(f"{label} size/modulus mismatch")
        for s in self.pair_sites:
            if not 1 <= s <= n:
                raise CodeValidationError(f"pair site {s} out of range 1..{n}")
        m = len(gens)
        for i in range(m):
            for j in range(i + 1, m):
                e = comm_exponent(gens[i], gens[j])
                if e != 0:
                    raise CodeValidationError(
                        f"generators not Abelian: S_{i + 1}, S_{j + 1} "
                        f"have commutation exponent {e}")
        for i, g in enumerate(gens):
            if not _power_q_is_identity(g):
                raise CodeValidationError(
                    f"generator S_{i + 1} does not satisfy S^q = I exactly "
                    "(no +1 eigenspace)")
        for w, label in logicals:
            if not _power_q_is_identity(w):
                raise CodeValidationError(f"{label} does not satisfy L^q = I exactly")
        rank = symplectic_rank(gens, q)
        if rank != m:
            raise CodeValidationError(f"generators dependent: rank {rank} < {m}")
        if n - rank != self.k:
            raise CodeValidationError(
                f"declared k={self.k} inconsistent with n - rank = {n - rank}")
        for i, g in enumerate(gens):
            for w, label in logicals:
                if comm_exponent(w, g) != 0:
                    raise CodeValidationError(
                        f"{label} does not commute with S_{i + 1}")
        # not for q > 2: the five-qudit code's transversal logicals commute
        # with each other when q divides n
        if (q == 2 and self.k > 0
                and comm_exponent(self.logical_x, self.logical_z) != 1):
            raise CodeValidationError("logical_x and logical_z must anticommute")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "q": self.q,
            "generators": [g.to_json() for g in self.generators],
            "logical_x": self.logical_x.to_json(),
            "logical_z": self.logical_z.to_json(),
            "pair_sites": sorted(self.pair_sites),
        }


def _is_prime(q: int) -> bool:
    """Trial division, after refusing q above MAX_DENSE_DIM: one such site
    alone exceeds the dense cap, and the division would stall on huge q."""
    if q > MAX_DENSE_DIM:
        raise SizeLimitError(
            f"local dimension q={q} exceeds dense cap {MAX_DENSE_DIM}")
    if q < 2:
        return False
    for p in range(2, int(math.isqrt(q)) + 1):
        if q % p == 0:
            return False
    return True


def symplectic_rank(generators: Sequence[PauliWord], q: int) -> int:
    """Rank of the stacked (x|z) exponent matrix over Z_q (q prime)."""
    if not generators:
        return 0
    rows = [list(g.x_exp) + list(g.z_exp) for g in generators]
    m, w = len(rows), len(rows[0])
    rank = 0
    col = 0
    while rank < m and col < w:
        piv = next((r for r in range(rank, m) if rows[r][col] % q), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [(v * inv) % q for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] % q:
                f = rows[r][col]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def stabilizer_group(generators: Sequence[PauliWord]) -> list[PauliWord]:
    """All q^m products of the generators (phases tracked)."""
    if not generators:
        return []
    q = generators[0].q
    group = [PauliWord.identity(generators[0].n, q)]
    for g in generators:
        powers = [PauliWord.identity(g.n, q)]
        for _ in range(q - 1):
            powers.append(powers[-1] * g)
        group = [h * p for h in group for p in powers[1:]] + group
    # deduplicate (generators are expected independent, but be safe)
    seen = {}
    for w in group:
        seen[(w.x_exp, w.z_exp, w.phase)] = w
    return list(seen.values())


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresetData:
    """What is published with a preset besides the code itself.

    ``extras`` are products of generators that the deduction proofs need,
    each with its 1-based position in the certificate's operator list (the
    generators keep their order in the other positions); ``alphas`` are the
    published certificate weights, None for unit weights.
    """

    distance: int
    extras: tuple[tuple[int, PauliWord], ...] = ()
    alphas: tuple[float, ...] | None = None


# (x, z) exponents of each site letter; x and z are X^(q-1) and Z^(q-1)
_LETTERS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "x": (-1, 0), "z": (0, -1)}


def _word(letters: str, q: int = 2) -> PauliWord:
    """The phase-free word with one letter per site, e.g. ``XZzxI``."""
    x, z = zip(*(_LETTERS[c] for c in letters))
    return PauliWord(len(letters), q, x, z)


# name -> (generators, pair sites, published data); at q = 2 the cyclic
# five-qudit code is the five-qubit code, so the two share generators
_FIVE = ("XZzxI", "IXZzx", "xIXZz", "zxIXZ")
_PRESETS = {
    "five_qubit": (_FIVE, (1,), PresetData(3, alphas=(
        math.sqrt(2), 1.0, math.sqrt(2), 2 * math.sqrt(2)))),
    "steane": (("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"),
               (2, 3, 5, 7),
               PresetData(3, extras=((4, _word("XXIIXXI")), (8, _word("ZZIIZZI"))))),
    "shor": (("ZZIIIIIII", "ZIZIIIIII", "IIIZZIIII", "IIIZIZIII", "IIIIIIZZI",
              "IIIIIIZIZ", "XXXXXXIII", "XXXIIIXXX"),
             (1, 4, 7),
             PresetData(3, extras=((9, _word("IIIXXXXXX")),))),
    "five_qudit": (_FIVE, (1,), PresetData(3)),
}
PRESET_NAMES = tuple(_PRESETS)


@functools.lru_cache(maxsize=16)
def code_preset(name: str, q: int | None = None) -> StabilizerCode:
    """Return a named code preset, built once per (name, q) and cached.

    ``five_qudit`` takes the local dimension either as the ``q`` argument or
    inline as ``five_qudit:3``; it defaults to q=3.  The qubit presets take
    only q=2.
    """
    base, colon, qstr = name.partition(":")
    if base not in _PRESETS:
        raise CodeValidationError(
            f"unknown code preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    gens, pair_sites, _ = _PRESETS[base]
    if colon:
        try:
            q = int(qstr)
        except ValueError:
            raise CodeValidationError(
                f"local dimension {qstr!r} in {name!r} is not an integer") from None
    if base == "five_qudit":
        q = 3 if q is None else int(q)
        if not _is_prime(q):
            raise CodeValidationError(f"five_qudit requires prime q >= 2, got {q}")
        name = f"five_qudit:{q}"
    elif q in (None, 2):
        name, q = base, 2
    else:
        raise CodeValidationError(f"{base} is a qubit code; q={q} is not 2")
    n = len(gens[0])
    return StabilizerCode(name, n, 1, q, tuple(_word(g, q) for g in gens),
                          logical_x=_word("X" * n, q), logical_z=_word("Z" * n, q),
                          pair_sites=pair_sites)


def preset_data(code: StabilizerCode) -> PresetData | None:
    """The published data of the preset that ``code`` equals, else None.

    A document that keeps a preset's name but changes a generator, a
    logical or a pair site is another code and gets no preset data.
    """
    base = code.name.partition(":")[0]
    try:
        preset = code_preset(base, q=code.q)
    except CodeValidationError:  # no such preset, or a q it does not take
        return None
    return _PRESETS[base][2] if code == preset else None


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------

def _word_from_json(doc: Mapping, n: int, q: int, label: str) -> PauliWord:
    try:
        return PauliWord(n, q, tuple(doc["x"]), tuple(doc["z"]),
                         int(doc.get("phase", 0)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CodeValidationError(f"malformed {label}: {exc}") from exc


def load_code(document: Mapping | str) -> StabilizerCode:
    """Parse and validate a code document (dict or JSON string).

    Every malformed or invalid document raises CodeValidationError.
    """
    try:
        if isinstance(document, str):
            document = json.loads(document)
        name = str(document["name"])
        n, k, q = (int(document[key]) for key in ("n", "k", "q"))
        gen_docs = document["generators"]
        x_doc, z_doc = document["logical_x"], document["logical_z"]
        site_docs = document.get("pair_sites", [])
        for key, value in (("generators", gen_docs), ("pair_sites", site_docs)):
            if not isinstance(value, list):
                raise TypeError(f"{key} must be a list")
        pair_sites = frozenset(int(s) for s in site_docs)
    except KeyError as exc:
        raise CodeValidationError(f"malformed code document: missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise CodeValidationError(f"malformed code document: {exc}") from exc
    if n < 1:
        raise CodeValidationError("n must be positive")
    gens = tuple(_word_from_json(g, n, q, f"generator {i + 1}")
                 for i, g in enumerate(gen_docs))
    return StabilizerCode(
        name, n, k, q, gens,
        logical_x=_word_from_json(x_doc, n, q, "logical_x"),
        logical_z=_word_from_json(z_doc, n, q, "logical_z"),
        pair_sites=pair_sites,
    )
