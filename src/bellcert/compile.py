"""Compile a stabilizer code and certificate into a Bell polynomial.

The substitution rules map site-local X/Z symbols to the two measurement
settings: direct sites use X -> A0, Z -> A1; tilted-pair sites use
X -> (A0+A1)/(2 cos mu) and Z -> (A0-A1)/(2 sin mu).  The compiled
inequality comes with an operator upper bound certified by expanding
alpha0 (P - 1)^2 + sum_i alpha_i (S_i - 1)^2 >= 0 as an exact
noncommutative polynomial identity.  ``build_bell`` expands each S_i once
and every check reads it from the ``CompiledInequality``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .pauli import InputError, PauliWord, StabilizerCode, preset_data
from .poly import A0, A1, BellPolynomial, MeasurementAssignment, Monomial

SOS_TOL = 1e-10


class CertificateError(InputError):
    """Raised for invalid certificate parameters."""


@dataclass(frozen=True)
class SOSCertificate:
    """Weights and operator list for a sum-of-squares Bell certificate."""

    n: int
    theta: float
    alpha0: float
    alphas: tuple[float, ...]
    operators: tuple[PauliWord, ...]
    pair_sites: frozenset[int]
    mu: float = math.pi / 4
    code_name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "pair_sites", frozenset(self.pair_sites))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.operators:
            raise CertificateError("operator list must be nonempty")
        if len(self.alphas) != len(self.operators):
            raise CertificateError("need one alpha per operator")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise CertificateError(f"theta={self.theta} outside [0, pi/2]")
        # written so that NaN fails each comparison
        if not 0 <= self.alpha0 < math.inf:
            raise CertificateError(f"alpha0 = {self.alpha0} must be finite and >= 0")
        for i, a in enumerate(self.alphas):
            if not 0 < a < math.inf:
                raise CertificateError(
                    f"alpha_{i + 1} = {a} must be finite and positive")
        if not 0.0 < self.mu < math.pi / 2:
            raise CertificateError(f"mu={self.mu} outside (0, pi/2)")
        for word in self.operators:
            if word.n != self.n:
                raise CertificateError(
                    f"operator {word} acts on {word.n} sites, not {self.n}")

    def assignment(self) -> MeasurementAssignment:
        return MeasurementAssignment(self.n, self.pair_sites, self.mu)

    def alpha_sum(self) -> float:
        return sum(self.alphas)


def default_certificate(code: StabilizerCode, theta: float = 0.0,
                        alpha0: float = 0.0,
                        alphas: Sequence[float] | None = None,
                        mu: float = math.pi / 4,
                        extras: bool = True) -> SOSCertificate:
    """Certificate over the code's generators; a preset also brings its
    extra operators (unless ``extras`` is false) and published weights."""
    if code.q != 2:
        raise CertificateError("Bell compilation is defined for qubit codes only")
    data = preset_data(code)
    operators = list(code.generators)
    if extras and data:
        for position, word in data.extras:
            operators.insert(position - 1, word)
    if alphas is None:
        alphas = (data.alphas if data and data.alphas
                  else (1.0,) * len(operators))
    return SOSCertificate(
        n=code.n, theta=theta, alpha0=alpha0, alphas=tuple(alphas),
        operators=tuple(operators), pair_sites=code.pair_sites, mu=mu,
        code_name=code.name,
    )


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(word: PauliWord, asg: MeasurementAssignment) -> BellPolynomial:
    """Expand a phase-free qubit word, X before Z at each site, into a
    polynomial in the settings, pruning after each factor."""
    if word.q != 2:
        raise ValueError("only q=2 words translate to measurement settings")
    if word.phase != 0:
        raise CertificateError("operator words must be phase-free")
    poly = BellPolynomial.constant(1.0)
    for site, sym, _ in word.factors():
        if site > asg.n:
            raise ValueError(f"site {site} out of range 1..{asg.n}")
        if site not in asg.pair_sites:
            factor = ((Monomial.single(site, A0 if sym == "X" else A1), 1.0),)
        elif sym == "X":
            c = 1.0 / (2.0 * math.cos(asg.mu))
            factor = ((Monomial.single(site, A0), c), (Monomial.single(site, A1), c))
        else:
            c = 1.0 / (2.0 * math.sin(asg.mu))
            factor = ((Monomial.single(site, A0), c), (Monomial.single(site, A1), -c))
        acc: dict[Monomial, float] = {}
        for m1, c1 in poly.coeffs.items():
            for m2, c2 in factor:
                mono = m1 * m2
                acc[mono] = acc.get(mono, 0.0) + c1 * c2
        poly = BellPolynomial(acc)
    return poly


def build_tilted(theta: float, code: StabilizerCode,
                 asg: MeasurementAssignment) -> BellPolynomial:
    """The tilted logical operator cos(2 theta) Z-bar + sin(2 theta) X-bar."""
    if not 0.0 <= theta <= math.pi / 2:
        raise CertificateError(f"theta={theta} outside [0, pi/2]")
    return (substitute(code.logical_z, asg).scale(math.cos(2 * theta))
            .add_scaled(substitute(code.logical_x, asg), math.sin(2 * theta)))


@dataclass(frozen=True)
class CompiledInequality:
    poly: BellPolynomial
    bound: float
    reduced_form: bool
    tilted: BellPolynomial
    certificate: SOSCertificate
    assignment: MeasurementAssignment
    operators: tuple[BellPolynomial, ...]  # each S_i at the assignment
    cancellation: BellPolynomial  # sum alpha_i S_i^2 - sum alpha_i


def _sos_tol(cert: SOSCertificate) -> float:
    """SOS_TOL times the largest weight, so verdicts ignore overall scale."""
    return SOS_TOL * max(cert.alpha0, *cert.alphas)


def build_bell(cert: SOSCertificate,
               code: StabilizerCode | None = None) -> CompiledInequality:
    """Compile the certificate into its Bell polynomial and bound.

    When the squared operators cancel to a constant the reduced form
    -alpha0 P^2 + 2 alpha0 P + 2 sum alpha_i S_i is emitted with bound
    alpha0 + 2 sum alpha_i; otherwise the general form
    2 alpha0 P + 2 sum alpha_i S_i - sum alpha_i S_i^2 - alpha0 P^2 with
    bound alpha0 + sum alpha_i.  Each S_i is substituted and squared once.
    CertificateError if the bound or a coefficient of any part is not
    finite; parts are checked, since ``add_scaled`` drops a NaN term.
    """
    asg = cert.assignment()
    subs = tuple(substitute(w, asg) for w in cert.operators)
    squares = [s.square() for s in subs]

    if cert.alpha0 > 0:
        if code is None:
            raise CertificateError("alpha0 > 0 requires a code (for the logicals)")
        tilted = build_tilted(cert.theta, code, asg)
    else:
        tilted = BellPolynomial.zero()

    cancellation = BellPolynomial()
    for a, sq in zip(cert.alphas, squares):
        cancellation.add_scaled(sq, a)
    cancellation.add_scaled(BellPolynomial.constant(cert.alpha_sum()), -1.0)
    reduced = cancellation.is_zero(_sos_tol(cert))

    poly = BellPolynomial()
    for a, s in zip(cert.alphas, subs):
        poly.add_scaled(s, 2.0 * a)
    if reduced:
        bound = cert.alpha0 + 2.0 * cert.alpha_sum()
    else:
        for a, sq in zip(cert.alphas, squares):
            poly.add_scaled(sq, -a)
        bound = cert.alpha0 + cert.alpha_sum()
    parts = [*subs, *squares, tilted, poly]
    if cert.alpha0 > 0:
        parts.append(tilted.square())
        poly.add_scaled(tilted, 2.0 * cert.alpha0)
        poly.add_scaled(parts[-1], -cert.alpha0)
    if not all(map(math.isfinite, [bound, *(
            c for part in parts for c in part.coeffs.values())])):
        raise CertificateError("the bound or a coefficient is not finite: "
                               "weights or mu out of range")

    poly.meta.update({
        "code": cert.code_name,
        "n": cert.n,
        "theta": cert.theta,
        "alpha0": cert.alpha0,
        "alpha": list(cert.alphas),
        "mu": cert.mu,
        "pair_sites": sorted(cert.pair_sites),
        "bound": bound,
        "reduced_form": reduced,
    })
    return CompiledInequality(poly, bound, reduced, tilted, cert, asg, subs,
                              cancellation)


def verify_sos(compiled: CompiledInequality) -> tuple[bool, BellPolynomial]:
    """Check bound - I == alpha0 (P-1)^2 + sum alpha_i (S_i-1)^2 exactly.

    A zero residual certifies <I> <= bound for every realization whose
    settings square to the identity.
    """
    cert = compiled.certificate
    one = BellPolynomial.constant(1.0)
    sos = BellPolynomial()
    if cert.alpha0 > 0:
        sos.add_scaled((compiled.tilted - one).square(), cert.alpha0)
    for a, s in zip(cert.alphas, compiled.operators):
        sos.add_scaled((s - one).square(), a)
    residual = (BellPolynomial.constant(compiled.bound)
                .add_scaled(compiled.poly, -1.0).add_scaled(sos, -1.0))
    return residual.is_zero(_sos_tol(cert)), residual


# ---------------------------------------------------------------------------
# CHSH fixture
# ---------------------------------------------------------------------------

def chsh_certificate() -> SOSCertificate:
    """Two-site certificate whose compiled form is sqrt(2) times CHSH."""
    return SOSCertificate(
        n=2, theta=0.0, alpha0=0.0, alphas=(1.0, 1.0),
        operators=(PauliWord(2, 2, (1, 1), (0, 0)), PauliWord(2, 2, (0, 0), (1, 1))),
        pair_sites=frozenset({1}), code_name="chsh",
    )


def chsh_polynomial() -> BellPolynomial:
    """A0 B0 + A0 B1 + A1 B0 - A1 B1 with site 1 = Alice, site 2 = Bob."""
    poly = BellPolynomial({
        Monomial.from_dict({1: (A0,), 2: (A0,)}): 1.0,
        Monomial.from_dict({1: (A0,), 2: (A1,)}): 1.0,
        Monomial.from_dict({1: (A1,), 2: (A0,)}): 1.0,
        Monomial.from_dict({1: (A1,), 2: (A1,)}): -1.0,
    })
    poly.meta.update({"code": "chsh", "n": 2, "pair_sites": [1],
                      "bound": 2 * math.sqrt(2)})
    return poly


# ---------------------------------------------------------------------------
# Emission / parsing
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _emit_human(poly: BellPolynomial) -> str:
    if not poly.coeffs:
        return "0"
    pair_sites = poly.meta.get("pair_sites") or []
    if len(pair_sites) == 1:
        lines = _grouped_lines(poly, pair_sites[0])
    else:
        lines = [_term_line(c, mono) for mono, c in poly.terms()]
    return "\n".join(lines)


def _term_line(coeff: float, mono: Monomial) -> str:
    return _fmt(coeff) if mono.is_identity else f"{_fmt(coeff)} {mono}"


def _grouped_lines(poly: BellPolynomial, pair_site: int) -> list[str]:
    buckets: dict[tuple, dict[tuple, float]] = {}
    for mono, c in poly.terms():
        rest = tuple(f for f in mono.factors if f[0] != pair_site)
        buckets.setdefault(rest, {})[mono.word_at(pair_site)] = c
    lines = []
    for rest in sorted(buckets):
        words = buckets[rest]
        plus, minus = words.get((A0,)), words.get((A1,))
        simple = set(words) <= {(), (A0,), (A1,)}
        if simple and plus is not None and minus is not None \
                and () not in words and abs(abs(plus) - abs(minus)) <= 1e-12:
            sign = "+" if plus * minus > 0 else "-"
            head = f"{_fmt(plus)} (A0^{pair_site} {sign} A1^{pair_site})"
            lines.append(f"{head} {Monomial(rest)}" if rest else head)
        else:
            for word in sorted(words):
                mono = Monomial(tuple(sorted(rest + ((pair_site, word),)))
                                if word else rest)
                lines.append(_term_line(words[word], mono))
    return lines


def emit(poly: BellPolynomial, format: str = "human") -> str:
    """Render a polynomial; JSON output round-trips through parse()."""
    if format == "human":
        return _emit_human(poly)
    if format == "json":
        doc = {
            "meta": dict(sorted(poly.meta.items())),
            "terms": [
                {
                    "coeff": c,
                    "factors": [
                        {"site": site, "word": [f"A{letter}" for letter in word]}
                        for site, word in mono.factors
                    ],
                }
                for mono, c in poly.terms()
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=False)
    raise ValueError(f"unknown format {format!r} (expected 'human' or 'json')")


def parse(document: str | dict) -> BellPolynomial:
    """Inverse of emit(..., 'json')."""
    if isinstance(document, str):
        document = json.loads(document)
    coeffs: dict[Monomial, float] = {}
    for term in document.get("terms", ()):
        site_words = {}
        for factor in term.get("factors", ()):
            letters = []
            for name in factor["word"]:
                if name not in ("A0", "A1"):
                    raise ValueError(f"bad letter {name!r}")
                letters.append(A0 if name == "A0" else A1)
            site = factor["site"]
            try:
                site = operator.index(site)
            except TypeError:
                raise ValueError(f"site {site!r} is not an integer") from None
            if site in site_words:
                raise ValueError(f"site {site} appears twice in one term")
            site_words[site] = letters
        mono = Monomial.from_dict(site_words)
        coeffs[mono] = coeff = coeffs.get(mono, 0.0) + float(term["coeff"])
        if not math.isfinite(coeff):
            raise ValueError(f"coefficient {coeff} of {mono} is not finite")
    return BellPolynomial(coeffs, meta=document.get("meta"))
