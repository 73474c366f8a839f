"""Independent NumPy reference for the benchmark's correctness checks.

Nothing here imports bellcert.  The codes are written out from their
textbook definitions, the Pauli, clock and shift matrices, Kronecker
products, stabilizer projectors, logical codewords, monomial expectations
and the classical brute-force maximum are all rebuilt from NumPy alone, so
a check that compares the program against this module does not share the
program's code paths.

Conventions match the paper's: site 1 is the most significant tensor
factor, X|j> = |j+1>, Z|j> = omega^j |j>, and a Bell monomial's site word
(l1, l2, ...) is the operator product A_l1 A_l2 ... in that order.  On a
direct site the canonical settings are A0 = X, A1 = Z; on a tilted-pair
site (mu = pi/4) they are A0 = (X+Z)/sqrt2, A1 = (X-Z)/sqrt2.

Run ``python3 bench/reference.py`` for the self-check against known facts.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SQRT2 = math.sqrt(2.0)

# generator strings, tilted-pair sites (1-indexed), logical X/Z = X^n / Z^n
QUBIT_CODES = {
    "five_qubit": (("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"), {1}),
    "steane": (("IIIXXXX", "IXXIIXX", "XIXIXIX",
                "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"), {2, 3, 5, 7}),
    "shor": (("ZZIIIIIII", "ZIZIIIIII", "IIIZZIIII", "IIIZIZIII",
              "IIIIIIZZI", "IIIIIIZIZ", "XXXXXXIII", "XXXIIIXXX"), {1, 4, 7}),
    "chsh": (("XX", "ZZ"), {1}),
}


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of square matrices, first factor most significant."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        rows = out.shape[0] * m.shape[0]
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(rows, rows)
    return out


def shift(q: int) -> np.ndarray:
    """X|j> = |j+1 mod q>."""
    return np.roll(np.eye(q, dtype=complex), 1, axis=0)


def clock(q: int) -> np.ndarray:
    """Z|j> = omega^j |j>, omega = exp(2 pi i / q)."""
    return np.diag(np.exp(2j * math.pi * np.arange(q) / q))


def apply_local(ops: dict[int, np.ndarray], vecs: np.ndarray, n: int,
                d: int = 2) -> np.ndarray:
    """Apply site-local operators {site: matrix} to a block of column vectors."""
    cols = vecs.reshape(d**n, -1)
    t = cols.reshape((d,) * n + (cols.shape[1],))
    for site, op in ops.items():
        t = np.moveaxis(np.tensordot(op, t, axes=([1], [site - 1])), 0, site - 1)
    return t.reshape(vecs.shape)


def qubit_string(spec: str) -> dict[int, np.ndarray]:
    table = {"X": X, "Z": Z}
    return {site: table[c] for site, c in enumerate(spec, start=1) if c != "I"}


def qudit_generators(q: int) -> list[dict[int, np.ndarray]]:
    """Five-site modular qudit code: cyclic shifts of X Z Z^-1 X^-1 I."""
    xs, zs = shift(q), clock(q)
    pattern = (xs, zs, zs.conj().T, xs.conj().T)
    return [{(start + j) % 5 + 1: op for j, op in enumerate(pattern)}
            for start in range(4)]


def codespace(gens: list[dict[int, np.ndarray]], n: int, d: int = 2,
              probes: int = 12) -> np.ndarray:
    """Orthonormal basis of the joint +1 eigenspace of commuting generators.

    Seeded probes pass through prod_i (1/d) sum_t S_i^t, then an SVD keeps
    the directions that survive.
    """
    rng = np.random.default_rng(7)
    block = rng.normal(size=(d**n, probes)) + 1j * rng.normal(size=(d**n, probes))
    for g in gens:
        acc = block.copy()
        term = block
        for _ in range(d - 1):
            term = apply_local(g, term, n, d)
            acc += term
        block = acc / d
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    return u[:, s > 1e-8 * s[0]]


def qubit_code(name: str) -> dict:
    """Generators, pair sites, codespace basis and logical codewords."""
    specs, pairs = QUBIT_CODES[name]
    n = len(specs[0])
    gens = [qubit_string(s) for s in specs]
    basis = codespace(gens, n)
    doc = {"n": n, "pair_sites": frozenset(pairs), "generators": gens,
           "basis": basis}
    if name != "chsh":
        zbar = {s: Z for s in range(1, n + 1)}
        xbar = {s: X for s in range(1, n + 1)}
        plus = (basis + apply_local(zbar, basis, n)) / 2
        v0 = plus[:, int(np.argmax(np.linalg.norm(plus, axis=0)))]
        v0 = v0 / np.linalg.norm(v0)
        doc["logical"] = (v0, apply_local(xbar, v0, n))
    return doc


def settings(pair: bool) -> tuple[np.ndarray, np.ndarray]:
    if pair:
        return (X + Z) / SQRT2, (X - Z) / SQRT2
    return X, Z


def monomial_operator(word: tuple[int, ...], pair: bool) -> np.ndarray:
    out = I2
    for letter in word:
        out = out @ settings(pair)[letter]
    return out


def expectation(terms, n: int, pair_sites, psi: np.ndarray,
                noise_p: float = 0.0) -> float:
    """sum_m c_m (1 - p)^|supp m| <psi|m|psi> at the canonical settings.

    ``terms`` is a list of (coeff, ((site, letters), ...)).  With p > 0 this
    is the exact value under per-site depolarizing noise of strength p,
    since every non-identity site operator of a monomial is traceless.
    """
    total = 0.0
    for coeff, factors in terms:
        ops = {site: monomial_operator(word, site in pair_sites)
               for site, word in factors}
        value = np.vdot(psi, apply_local(ops, psi, n)).real
        total += coeff * (1.0 - noise_p)**len(factors) * value
    return float(total)


def classical_max(terms, n: int) -> float:
    """Maximum over all 2^(2n) deterministic +-1 strategies.

    A deterministic strategy fixes a sign a_(site, setting); a monomial then
    evaluates to the product of its letters' signs, i.e. to the character
    (-1)^(mask . s) of the bits with odd letter count.  Summing characters
    over all strategies at once is a Walsh-Hadamard transform of the
    coefficient vector indexed by mask.
    """
    f = np.zeros(1 << (2 * n))
    for coeff, factors in terms:
        mask = 0
        for site, word in factors:
            for setting in (0, 1):
                if word.count(setting) % 2:
                    mask ^= 1 << ((site - 1) * 2 + setting)
        f[mask] += coeff
    h = 1
    while h < f.size:
        f = f.reshape(-1, 2, h)
        f = np.stack([f[:, 0] + f[:, 1], f[:, 0] - f[:, 1]], axis=1)
        f = f.reshape(-1)
        h *= 2
    return float(f.max())


def pauli_word_operator(runs, q: int = 2) -> np.ndarray:
    """Product of (sym, power) runs on one site, left to right."""
    out = np.eye(q, dtype=complex)
    for sym, power in runs:
        base = shift(q) if sym == "X" else clock(q)
        out = out @ np.linalg.matrix_power(base, power % q)
    return out


def word_phase_error(word, phase: int, basis: np.ndarray, n: int) -> float:
    """max |W B - (-1)^phase B| for a qubit deduction fact W psi = (-1)^phase psi."""
    ops = {site: pauli_word_operator(runs) for site, runs in word}
    return float(np.abs(apply_local(ops, basis, n) - (-1.0)**phase * basis).max())


def pair_comm_error(site: int, exponent: int, basis: np.ndarray, n: int) -> float:
    """max |Z X B - (-1)^e X Z B| at one site."""
    zx = apply_local({site: Z @ X}, basis, n)
    xz = apply_local({site: X @ Z}, basis, n)
    return float(np.abs(zx - (-1.0)**exponent * xz).max())


def self_check() -> list[str]:
    """Known facts this module must reproduce; returns the failures."""
    failures = []

    def expect(ok: bool, what: str):
        if not ok:
            failures.append(what)

    for name, dim in (("five_qubit", 2), ("steane", 2), ("shor", 2), ("chsh", 1)):
        doc = qubit_code(name)
        expect(doc["basis"].shape[1] == dim, f"{name} codespace dimension {dim}")
        for g in doc["generators"]:
            err = np.abs(apply_local(g, doc["basis"], doc["n"]) - doc["basis"]).max()
            expect(err < 1e-10, f"{name} basis fixed by its generators")
        if "logical" in doc:
            v0, v1 = doc["logical"]
            n = doc["n"]
            z0 = np.vdot(v0, apply_local({s: Z for s in range(1, n + 1)}, v0, n))
            expect(abs(z0 - 1) < 1e-10 and abs(np.vdot(v0, v1)) < 1e-10,
                   f"{name} logical codewords")

    five = qubit_code("five_qubit")
    dense = kron(X, Z, Z, X, I2)
    expect(np.abs(dense @ five["basis"] - five["basis"]).max() < 1e-10,
           "dense XZZXI fixes the five-qubit codespace")
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 2, 2)) + 0j
    v = rng.normal(size=8) + 0j
    expect(np.allclose(kron(a, I2, b) @ v, apply_local({1: a, 3: b}, v, 3)),
           "kron and site-local application agree")

    for q in (2, 3, 5):
        xs, zs = shift(q), clock(q)
        omega = np.exp(2j * math.pi / q)
        expect(np.allclose(zs @ xs, omega * xs @ zs), f"Z X = omega X Z for q={q}")
    basis = codespace(qudit_generators(3), 5, 3, probes=7)
    expect(basis.shape[1] == 3, "five-site qutrit codespace dimension 3")

    chsh = [(1.0, ((1, (0,)), (2, (0,)))), (1.0, ((1, (0,)), (2, (1,)))),
            (1.0, ((1, (1,)), (2, (0,)))), (-1.0, ((1, (1,)), (2, (1,))))]
    expect(abs(classical_max(chsh, 2) - 2.0) < 1e-12, "CHSH classical bound 2")
    brute = max(sum(c * math.prod(s[(site - 1) * 2 + w[0]] for site, w in f)
                    for c, f in chsh)
                for s in itertools.product((1, -1), repeat=4))
    expect(brute == 2.0, "CHSH enumeration gives 2")
    bell = qubit_code("chsh")["basis"][:, 0]
    expect(abs(expectation(chsh, 2, {1}, bell) - 2 * SQRT2) < 1e-12,
           "CHSH quantum value 2 sqrt 2 on the XX/ZZ state")
    expect(abs(expectation(chsh, 2, {1}, bell, noise_p=0.5) - SQRT2 / 2) < 1e-12,
           "depolarized CHSH scales by (1 - p)^2")
    return failures


if __name__ == "__main__":
    problems = self_check()
    for p in problems:
        print(f"FAIL: {p}")
    print("reference self-check:", "ok" if not problems else f"{len(problems)} failed")
    sys.exit(1 if problems else 0)
