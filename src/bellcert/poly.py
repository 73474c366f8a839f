"""Data model for multipartite Bell polynomials.

A monomial assigns each site an ordered word over the two local settings
A0/A1; words at different sites commute, words within a site do not.
Site words are kept reduced under (A_x)^2 = 1, i.e. no two adjacent equal
letters survive.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

COEFF_TOL = 1e-12

A0, A1 = 0, 1
_LETTER_NAMES = ("A0", "A1")


def _reduce_word(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent equal letters (free product of two Z2's)."""
    stack: list[int] = []
    for letter in letters:
        if letter not in (A0, A1):
            raise ValueError(f"letter must be 0 (A0) or 1 (A1), got {letter!r}")
        if stack and stack[-1] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class Monomial:
    """Map site -> reduced setting word, canonically ordered by site."""

    factors: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @classmethod
    def from_dict(cls, site_words: Mapping[int, Iterable[int]]) -> "Monomial":
        items = []
        for site in sorted(site_words):
            if site < 1:
                raise ValueError(f"sites are 1-indexed, got {site}")
            word = _reduce_word(site_words[site])
            if word:
                items.append((int(site), word))
        return cls(tuple(items))

    @classmethod
    def identity(cls) -> "Monomial":
        return cls(())

    @classmethod
    def single(cls, site: int, letter: int) -> "Monomial":
        return cls.from_dict({site: (letter,)})

    def word_at(self, site: int) -> tuple[int, ...]:
        for s, w in self.factors:
            if s == site:
                return w
        return ()

    @property
    def is_identity(self) -> bool:
        return not self.factors

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged: dict[int, tuple[int, ...]] = dict(self.factors)
        for site, word in other.factors:
            merged[site] = merged.get(site, ()) + word
        return Monomial.from_dict(merged)

    def max_site(self) -> int:
        return self.factors[-1][0] if self.factors else 0

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for site, word in self.factors:
            parts.extend(f"{_LETTER_NAMES[letter]}^{site}" for letter in word)
        return " ".join(parts)


class BellPolynomial:
    """Real linear combination of monomials with structural tolerance 1e-12."""

    __slots__ = ("coeffs", "meta")

    def __init__(self, coeffs: Mapping[Monomial, float] | None = None,
                 meta: dict | None = None):
        self.coeffs: dict[Monomial, float] = {}
        self.meta: dict = dict(meta or {})
        if coeffs:
            for mono, c in coeffs.items():
                self._add(mono, float(c))
        self._prune()

    # -- construction helpers --------------------------------------------

    @classmethod
    def zero(cls) -> "BellPolynomial":
        return cls()

    @classmethod
    def constant(cls, value: float) -> "BellPolynomial":
        return cls({Monomial.identity(): value})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: float = 1.0) -> "BellPolynomial":
        return cls({mono: coeff})

    def _add(self, mono: Monomial, coeff: float):
        self.coeffs[mono] = self.coeffs.get(mono, 0.0) + coeff

    def _prune(self):
        dead = [m for m, c in self.coeffs.items() if abs(c) <= COEFF_TOL]
        for m in dead:
            del self.coeffs[m]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BellPolynomial") -> "BellPolynomial":
        out = BellPolynomial(self.coeffs, self.meta)
        for mono, c in other.coeffs.items():
            out._add(mono, c)
        out._prune()
        return out

    def __sub__(self, other: "BellPolynomial") -> "BellPolynomial":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "BellPolynomial":
        return BellPolynomial({m: c * factor for m, c in self.coeffs.items()},
                              self.meta)

    def __mul__(self, other: "BellPolynomial") -> "BellPolynomial":
        out = BellPolynomial()
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                out._add(m1 * m2, c1 * c2)
        out._prune()
        return out

    def square(self) -> "BellPolynomial":
        return self * self

    # -- queries -------------------------------------------------------------

    def coeff(self, mono: Monomial) -> float:
        return self.coeffs.get(mono, 0.0)

    def terms(self) -> list[tuple[Monomial, float]]:
        """Deterministic term order: by site/word structure."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].factors)

    def __len__(self) -> int:
        return len(self.coeffs)

    def max_site(self) -> int:
        return max((m.max_site() for m in self.coeffs), default=0)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_zero(self, tol: float = COEFF_TOL) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    def allclose(self, other: "BellPolynomial", tol: float = COEFF_TOL) -> bool:
        return (self - other).is_zero(tol)

    def __repr__(self) -> str:
        n = len(self.coeffs)
        return f"BellPolynomial({n} term{'s' if n != 1 else ''})"


# ---------------------------------------------------------------------------
# Measurement assignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementAssignment:
    """Sites 1..n; a pair site measures X and Z through the tilted pair at
    angle mu (X -> (A0+A1)/(2 cos mu), Z -> (A0-A1)/(2 sin mu)), every
    other site directly (X -> A0, Z -> A1)."""

    n: int
    pair_sites: frozenset[int]
    mu: float = math.pi / 4

    def __post_init__(self):
        object.__setattr__(self, "pair_sites", frozenset(self.pair_sites))
        for s in self.pair_sites:
            if not 1 <= operator.index(s) <= self.n:
                raise ValueError(f"pair site {s} out of range 1..{self.n}")
        if not 0.0 < self.mu < math.pi / 2:
            raise ValueError(f"pair angle mu={self.mu} outside (0, pi/2)")
