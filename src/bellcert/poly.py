"""Data model for multipartite Bell polynomials.

A monomial assigns each site an ordered word over the two local settings
A0/A1; words at different sites commute, words within a site do not.
Site words are kept reduced under (A_x)^2 = 1, i.e. no two adjacent equal
letters survive.

A reduced word over two involutions alternates, so it is fixed by its first
letter and its length.  Multiplying two of them at one site therefore has a
closed form: when the last letter of the left word equals the first letter
of the right word, min(len1, len2) letters cancel pairwise and the rest of
the longer word survives; otherwise the words simply concatenate.  A
monomial product is one merge of the two site-sorted factor tuples.

A polynomial product codes the same rule.  Each operand's monomials are
packed once into integers with one byte per site that either operand
touches, in site order, each byte holding the site code 2 * len + first
letter (0 for the empty word).  Codes of words up to 7 letters fit in four
bits, so ``a << 4 | b`` puts both codes of every site into one byte, and
``_PAIR_TABLE`` translates each such byte into the code of the reduced
product word: one ``to_bytes`` and one ``bytes.translate`` give a pair's
product key.  Coefficients are summed per key in the same left-major pair
order, with the same running sum, as a loop over ``Monomial.__mul__``
would sum them per monomial, and codes map one-to-one to words, so every
coefficient and the term order are bit-identical to that loop.  Only the
keys that survive pruning become ``Monomial``s.  An operand holding a
longer word is multiplied by that loop instead.

Pruning has one rule, in ``BellPolynomial.add_scaled``, which every sum,
scaling and construction goes through: a coefficient at or below
``COEFF_TOL`` is dropped.  The coded product tests each key's sum alike.

``Monomial(factors)`` takes canonical factors only: (site, word) pairs with
integer sites >= 1 in strictly increasing order, each word a nonempty
reduced tuple of letters 0 (A0) and 1 (A1).  ``from_dict`` and ``parse``
reduce arbitrary letter lists into that form.
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


def _canonical_factors(factors: Iterable) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The factors as a tuple, or ValueError unless they are canonical."""
    out = []
    last = 0
    for site, word in factors:
        site, word = operator.index(site), tuple(word)
        if site <= last:
            raise ValueError(f"sites must be >= 1 and strictly increasing, "
                             f"got {site} after {last}")
        if not word or _reduce_word(word) != word:
            raise ValueError(f"word {word!r} at site {site} is empty or not reduced")
        out.append((site, word))
        last = site
    return tuple(out)


class Monomial:
    """Map site -> reduced setting word, canonically ordered by site.

    Immutable; the hash is computed once, when the monomial is built.
    """

    __slots__ = ("factors", "_hash")

    factors: tuple[tuple[int, tuple[int, ...]], ...]

    def __init__(self, factors: Iterable = ()):
        factors = _canonical_factors(factors)
        _set_factors(self, factors)
        _set_hash(self, hash(factors))

    @classmethod
    def _trusted(cls, factors: tuple) -> "Monomial":
        """Build from factors already in canonical form, unchecked."""
        mono = object.__new__(cls)
        _set_factors(mono, factors)
        _set_hash(mono, hash(factors))
        return mono

    @classmethod
    def from_dict(cls, site_words: Mapping[int, Iterable[int]]) -> "Monomial":
        items = []
        for site in sorted(site_words):
            index = operator.index(site)
            if index < 1:
                raise ValueError(f"sites are 1-indexed, got {site}")
            word = _reduce_word(site_words[site])
            if word:
                items.append((index, word))
        return cls._trusted(tuple(items))

    @classmethod
    def identity(cls) -> "Monomial":
        return cls._trusted(())

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
        left, right = self.factors, other.factors
        if not left:
            return other
        if not right:
            return self
        out = []
        append = out.append
        i, n_left = 0, len(left)
        for factor in right:
            site = factor[0]
            while i < n_left and left[i][0] < site:
                append(left[i])
                i += 1
            if i == n_left or left[i][0] != site:
                append(factor)
                continue
            word, other_word = left[i][1], factor[1]
            i += 1
            if word[-1] != other_word[0]:
                append((site, word + other_word))
                continue
            # the inner letters match: min(len1, len2) letter pairs cancel
            excess = len(word) - len(other_word)
            if excess > 0:
                append((site, word[:excess]))
            elif excess < 0:
                append((site, other_word[len(word):]))
        out.extend(left[i:])
        return Monomial._trusted(tuple(out))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Monomial:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"Monomial is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Monomial is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Monomial, (self.factors,)

    def __repr__(self) -> str:
        return f"Monomial(factors={self.factors!r})"

    def max_site(self) -> int:
        return self.factors[-1][0] if self.factors else 0

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for site, word in self.factors:
            parts.extend(f"{_LETTER_NAMES[letter]}^{site}" for letter in word)
        return " ".join(parts)


# Slot setters past Monomial.__setattr__, which refuses every assignment.
_set_factors = Monomial.factors.__set__
_set_hash = Monomial._hash.__set__


# Site codes (module docstring): a word of at most _CODED_LETTERS letters
# codes below 16, and a product of two such words below 32.
_CODED_LETTERS = 7


def _code_word(code: int) -> tuple[int, ...]:
    """The reduced word with site code ``code``; codes 0 and 1 are empty."""
    return tuple((code + i) & 1 for i in range(code >> 1))


_WORDS = tuple(_code_word(code) for code in range(32))


def _pair_code(pair: int) -> int:
    word = _reduce_word(_WORDS[pair >> 4] + _WORDS[pair & 15])
    return 2 * len(word) + word[0] if word else 0


_PAIR_TABLE = bytes(_pair_code(pair) for pair in range(256))


def _encode(coeffs: Mapping[Monomial, float], shifts: Mapping[int, int]
            ) -> list[tuple[int, float]] | None:
    """(packed site codes, coefficient) per monomial, site s at bit
    shifts[s], or None when some word is longer than _CODED_LETTERS."""
    packed = []
    for mono, c in coeffs.items():
        code = 0
        for site, word in mono.factors:
            if len(word) > _CODED_LETTERS:
                return None
            code |= (2 * len(word) + word[0]) << shifts[site]
        packed.append((code, c))
    return packed


class BellPolynomial:
    """Real linear combination of monomials with structural tolerance 1e-12."""

    __slots__ = ("coeffs", "meta")

    def __init__(self, coeffs: Mapping[Monomial, float] | None = None,
                 meta: dict | None = None):
        self.coeffs: dict[Monomial, float] = {}
        self.meta: dict = dict(meta or {})
        self.add_scaled(coeffs or {})

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

    # -- ring operations ---------------------------------------------------

    def add_scaled(self, other: "BellPolynomial | Mapping[Monomial, float]",
                   weight: float = 1.0) -> "BellPolynomial":
        """Add weight * other (a polynomial, self too, or a mapping) in place
        and return self, dropping each scaled term, then each sum it touched,
        at or below COEFF_TOL: the same floats and key order as scale-and-add."""
        terms = other.coeffs if isinstance(other, BellPolynomial) else other
        acc = self.coeffs
        for mono, c in list(terms.items()) if terms is acc else terms.items():
            c = float(c) * weight
            if abs(c) > COEFF_TOL:
                acc[mono] = total = acc.get(mono, 0.0) + c
                if abs(total) <= COEFF_TOL:
                    del acc[mono]
        return self

    def __add__(self, other: "BellPolynomial") -> "BellPolynomial":
        return BellPolynomial(self.coeffs, self.meta).add_scaled(other)

    def __sub__(self, other: "BellPolynomial") -> "BellPolynomial":
        return BellPolynomial(self.coeffs, self.meta).add_scaled(other, -1.0)

    def scale(self, factor: float) -> "BellPolynomial":
        return BellPolynomial(meta=self.meta).add_scaled(self, factor)

    def __mul__(self, other: "BellPolynomial") -> "BellPolynomial":
        sites = sorted({site for poly in (self, other) for mono in poly.coeffs
                        for site, _ in mono.factors})
        shifts = {site: 8 * i for i, site in enumerate(sites)}
        left = _encode(self.coeffs, shifts)
        right = left if other is self else _encode(other.coeffs, shifts)
        acc = {}
        get = acc.get
        if left is None or right is None:
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    mono = m1 * m2
                    acc[mono] = get(mono, 0.0) + c1 * c2
            return BellPolynomial(acc)
        width = len(sites)
        for a, c1 in left:
            a <<= 4
            for b, c2 in right:
                key = (a | b).to_bytes(width, "little").translate(_PAIR_TABLE)
                acc[key] = get(key, 0.0) + c1 * c2
        out = BellPolynomial()
        for key, c in acc.items():
            if abs(c) <= COEFF_TOL:
                continue
            factors = tuple((sites[i], _WORDS[code])
                            for i, code in enumerate(key) if code)
            out.coeffs[Monomial._trusted(factors)] = c
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
