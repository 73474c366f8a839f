"""Saturation-based deduction engine for the self-testing decision problem.

Hypotheses: a set of operator words fixing the state (S psi = psi), an
anticommuting-pair site subset A where Z X = omega X Z holds as an operator
identity, and operator q-th-power identities X^q = Z^q = 1 at the remaining
sites.  The engine derives on-state facts (word psi = omega^e psi) and
per-site commutation-phase facts, and decides whether the goal (squared
identities plus commutation phase 1 at every site) follows.

The calculus is sound for q = 2.  For q > 2 the per-site commutation
exponent is recorded pattern-blind (a relation derived for daggered powers
is not re-normalized), which is exactly the bookkeeping that makes the
qudit generalization fail: two derivations can assign one site exponents
e and -e, a contradiction unless omega = omega^-1.

Site words at non-pair sites are free products of X/Z runs (no commutation
is assumed inside a site); pair-site words normalize to the Weyl order
X^a Z^b, with a and b the summed X and Z powers, using the hypothesis
identity.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .pauli import InputError, StabilizerCode, preset_data

PROVED = "proved"
CONTRADICTION = "contradiction"
UNKNOWN = "unknown"

# site word: tuple of (sym, power) runs; word: tuple of (site, site_word)
SiteRuns = tuple[tuple[str, int], ...]
Word = tuple[tuple[int, SiteRuns], ...]


class ProblemError(InputError):
    """Raised for malformed deduction problems."""


@dataclass(frozen=True)
class Problem:
    """Operators fixing the state plus the candidate pair-site subset."""

    n: int
    q: int
    pair_sites: frozenset[int]
    operators: tuple[tuple[tuple[int, str, int], ...], ...]
    name: str = ""

    def __post_init__(self):
        # integers as operator.index reads them: 2.7 is refused, not truncated
        index = operator.index
        try:
            coerced = dict(
                n=index(self.n), q=index(self.q),
                pair_sites=frozenset(map(index, self.pair_sites)),
                operators=tuple(tuple((index(site), sym, index(power))
                                      for site, sym, power in op)
                                for op in self.operators))
        except (TypeError, ValueError) as exc:
            raise ProblemError(f"malformed problem: {type(exc).__name__}: "
                               f"{exc}") from exc
        for name, value in coerced.items():
            object.__setattr__(self, name, value)
        if self.n < 1:
            raise ProblemError(f"n = {self.n} must be >= 1")
        if self.q < 2:
            raise ProblemError("q must be >= 2")
        for s in self.pair_sites:
            if not 1 <= s <= self.n:
                raise ProblemError(f"pair site {s} out of range")
        for op in self.operators:
            for site, sym, power in op:
                if not 1 <= site <= self.n:
                    raise ProblemError(f"operator site {site} out of range")
                if sym not in ("X", "Z"):
                    raise ProblemError(f"bad symbol {sym!r}")
                if self.q == 2 and power < 0 and site in self.pair_sites:
                    raise ProblemError(
                        "negative powers at pair sites are ill-formed for q=2 "
                        "(pair-site symbols are Hermitian but not unitary)")

    def is_pair(self, site: int) -> bool:
        return site in self.pair_sites

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "q": self.q,
            "pair_sites": sorted(self.pair_sites),
            "operators": [[[s, sym, p] for s, sym, p in op]
                          for op in self.operators],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Problem":
        """The problem ``to_json`` wrote; ProblemError for any other document."""
        index = operator.index
        try:
            fields = dict(
                n=index(doc["n"]), q=index(doc.get("q", 2)),
                pair_sites=frozenset(map(index, doc.get("pair_sites", ()))),
                operators=tuple(tuple((index(s), str(sym), index(p))
                                      for s, sym, p in op)
                                for op in doc["operators"]),
                name=str(doc.get("name", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemError(f"malformed problem document: "
                               f"{type(exc).__name__}: {exc}") from exc
        return cls(**fields)


@dataclass(frozen=True)
class Budget:
    """Search limits; results are monotone in every field.

    ``combine`` selects which fact pairs the product rule tries: ``"even"``
    (default) pairs only facts whose run powers are all even, the family
    the squared-identity derivations live in; ``"all"`` lifts the policy.
    """

    max_facts: int = 5000
    max_word_letters: int = 16
    max_products: int = 100_000
    max_rounds: int = 64
    combine: str = "even"

    def __post_init__(self):
        if self.combine not in ("even", "all"):
            raise ProblemError(
                f"combine must be 'even' or 'all', not {self.combine!r}")
        for name in ("max_facts", "max_word_letters", "max_products",
                     "max_rounds"):
            if getattr(self, name) < 0:
                raise ProblemError(f"{name} must be >= 0")


# ---------------------------------------------------------------------------
# Word normalization
#
# normalize(factors) returns (word, ph) with
#     operator(factors) == omega^ph * operator(word).
# ---------------------------------------------------------------------------

def word_product(a: Word, b: Word, problem: Problem) -> tuple[Word, int]:
    """Normal form of a * b for words a and b already in normal form.

    One merge of the two site-sorted words.  At a site both touch, a pair
    site keeps the Weyl order: Z X = omega X Z gives X^a Z^b X^c Z^d =
    omega^{bc} X^{a+c} Z^{b+d}.  Off the pair set X^q = Z^q = 1 holds as
    operators and runs stay in order, so they join only at the junction:
    equal symbols add their powers mod q, and a run that cancels exposes
    the next two, which again share a symbol.
    """
    q, pair_sites = problem.q, problem.pair_sites
    out = []
    phase = i = j = 0
    while i < len(a) and j < len(b):
        (site, ra), (site_b, rb) = a[i], b[j]
        if site != site_b:
            if site < site_b:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
            continue
        i += 1
        j += 1
        if site in pair_sites:
            xa = ra[0][1] if ra[0][0] == "X" else 0
            za = ra[-1][1] if ra[-1][0] == "Z" else 0
            xb = rb[0][1] if rb[0][0] == "X" else 0
            zb = rb[-1][1] if rb[-1][0] == "Z" else 0
            phase += za * xb
            x, z = xa + xb, za + zb
            runs = (("X", x),) * (x != 0) + (("Z", z),) * (z != 0)
        else:
            k, m = len(ra), 0
            while k and m < len(rb) and ra[k - 1][0] == rb[m][0]:
                power = (ra[k - 1][1] + rb[m][1]) % q
                if power:
                    runs = ra[:k - 1] + ((rb[m][0], power),) + rb[m + 1:]
                    break
                k, m = k - 1, m + 1
            else:
                runs = ra[:k] + rb[m:]
        if runs:
            out.append((site, runs))
    return tuple(out) + a[i:] + b[j:], phase % q


def normalize(factors: Iterable[tuple[int, str, int]],
              problem: Problem) -> tuple[Word, int]:
    """The product of the factors, one at a time, by `word_product`."""
    word, phase = (), 0
    for site, sym, power in factors:
        power = int(power)
        if not problem.is_pair(site):
            power %= problem.q
        if power:
            word, ph = word_product(word, ((site, ((sym, power),)),), problem)
            phase += ph
    return word, phase % problem.q


def word_dagger(a: Word, problem: Problem) -> tuple[Word, int]:
    """Adjoint word (q > 2 only; relies on the unitarity axiom)."""
    factors = []
    for site, runs in a:
        for sym, power in reversed(runs):
            factors.append((site, sym, -power))
    return normalize(factors, problem)


def word_letters(a: Word) -> int:
    return sum(abs(p) for _, runs in a for _, p in runs)


def render_word(a: Word) -> str:
    if not a:
        return "1"
    parts = []
    for site, runs in a:
        for sym, power in runs:
            parts.append(f"{sym}{site}" if power == 1 else f"{sym}{site}^{power}")
    return " ".join(parts)


def _site_suffix_split(runs: SiteRuns, suffix: SiteRuns) -> SiteRuns | None:
    """Strip `suffix` off the right end of `runs`; None if it does not fit.

    Every suffix run but the first must equal a run of `runs`: a partial
    run left behind would block the next suffix run, which carries the
    other symbol.  The first suffix run may take part of a run with the
    same symbol and power sign.
    """
    head = len(runs) - len(suffix)
    if head < 0 or runs[head + 1:] != suffix[1:]:
        return None
    (sym_w, pow_w), (sym_s, pow_s) = runs[head], suffix[0]
    if sym_w != sym_s or pow_w * pow_s <= 0 or abs(pow_w) < abs(pow_s):
        return None
    leftover = pow_w - pow_s
    return runs[:head] + ((sym_w, leftover),) if leftover else runs[:head]


def _suffix_split(word: Word, suffix: Word) -> Word | None:
    """word = rest * suffix with per-site suffix matching, else None."""
    sdict = dict(suffix)
    out = []
    for site, runs in word:
        fruns = sdict.pop(site, None)
        if fruns is None:
            out.append((site, runs))
            continue
        rest = _site_suffix_split(runs, fruns)
        if rest is None:
            return None
        if rest:
            out.append((site, rest))
    if sdict:
        return None
    return tuple(out)


def _single_transposed_site(a: Word, b: Word) -> tuple[int, int] | None:
    """If a and b differ only by transposing one two-run site, return it.

    Returns (site, orientation); orientation is +1 when `a` carries the
    Z-then-X order at that site, so that a known site commutation fact
    Z X psi = omega^e X Z psi maps a-applied-to-psi onto omega^e b psi.
    Only single positive powers qualify.
    """
    if len(a) != len(b):
        return None
    found: tuple[int, int] | None = None
    for (sa, ra), (sb, rb) in zip(a, b):
        if sa != sb:
            return None
        if ra == rb:
            continue
        if found is not None:
            return None
        if len(ra) != 2 or len(rb) != 2 or ra[0] != rb[1] or ra[1] != rb[0]:
            return None
        (sym1, p1), (sym2, p2) = ra
        if sym1 == sym2 or p1 != 1 or p2 != 1:
            return None
        found = (sa, 1 if sym1 == "Z" else -1)
    return found


# ---------------------------------------------------------------------------
# Deduction state
# ---------------------------------------------------------------------------

@dataclass
class Fact:
    idx: int
    word: Word
    phase: int  # omega exponent: word |psi> = omega^phase |psi>
    rule: str
    premises: tuple[int, ...] = ()
    sites: int = 0  # bit s set for each site s the word touches
    letters: int = 0
    even: bool = False  # every run power is even

    def __post_init__(self):
        self.sites = sum(1 << site for site, _ in self.word)
        self.letters = word_letters(self.word)
        self.even = all(p % 2 == 0 for _, runs in self.word for _, p in runs)


def _facts_in(mask: int, facts: list[Fact]) -> Iterator[Fact]:
    """The facts whose bits are set in `mask`, in ascending index."""
    while mask:
        low = mask & -mask
        yield facts[low.bit_length() - 1]
        mask ^= low


@dataclass
class Step:
    rule: str
    premises: tuple[int, ...]
    text: str


@dataclass
class Transcript:
    steps: list[Step] = field(default_factory=list)
    status_line: str = ""

    def add(self, rule: str, premises: tuple[int, ...], text: str):
        self.steps.append(Step(rule, premises, text))

    def rule_applications(self) -> int:
        return sum(1 for s in self.steps if s.rule not in ("seed", "hypothesis"))

    def to_json(self) -> dict:
        return {
            "steps": [{"rule": s.rule, "premises": list(s.premises),
                       "text": s.text} for s in self.steps],
            "status": self.status_line,
        }


def transcript_render(transcript: Transcript) -> str:
    lines = [step.text for step in transcript.steps]
    if transcript.status_line:
        lines.append(transcript.status_line)
    return "\n".join(lines)


@dataclass
class DeduceResult:
    status: str
    transcript: Transcript
    facts: list[Fact]
    pair_comm: dict[int, int]
    rounds: int
    reason: str = ""
    products_used: int = 0  # r3_combine products counted against the budget
    dropped_by_letters: int = 0  # words refused for max_word_letters
    dropped_by_max_facts: int = 0  # words refused for max_facts


class _Engine:
    def __init__(self, problem: Problem, budget: Budget):
        self.problem = problem
        self.budget = budget
        self.q = problem.q
        self.facts: list[Fact] = []
        self.by_word: dict[Word, Fact] = {}
        self.pair_comm: dict[int, int] = {}
        self.transcript = Transcript()
        self.contradiction: str | None = None
        self.products_used = 0
        # (a.idx, b.idx) whose combine product can add nothing, see r3_combine
        self.settled: set[tuple[int, int]] = set()
        self.r4_done: set[tuple[int, int, int]] = set()
        # raw (uv, phase, vu, phase) of the solve-transfer pairs that wait on
        # an unknown site commutation
        self.r4_blocked: dict[tuple[int, int, int],
                              tuple[Word, int, Word, int]] = {}
        # Candidate index, bit i standing for self.facts[i]: the facts that
        # touch a site, and those whose last run there has a given symbol
        # and power sign.  A fact can be a per-site suffix of a word only if
        # its last run matches the word's at every site the fact touches.
        self.touching: dict[int, int] = {}
        self.ending: dict[tuple[int, str, bool], int] = {}
        # word -> (reduced word, phase delta, fact count when reduced)
        self.rewritten: dict[Word, tuple[Word, int, int]] = {}
        # site -> sym -> solved forms of self.facts[:self.solved]
        self.solves: dict[int, dict[str, list[tuple[int, Fact, Word]]]] = {}
        self.solved = 0
        self.dropped_by_letters = self.dropped_by_max_facts = 0

    # -- fact bookkeeping -------------------------------------------------

    def _rewrite(self, word: Word, phase: int) -> tuple[Word, int]:
        """Cancel fact words appearing as per-site suffixes (valid adjacent
        to the state, which every stored fact is).

        Each pass tries the facts that lie on the word's sites and end like
        it on each of theirs, in ascending index, and takes the first that
        splits the word: every other fact fails `_suffix_split`, so this is
        the first match of a scan over all facts.

        Each word's result is kept with the fact count it saw.  A word seen
        before resumes from its stored reduction, and the first pass tries
        only the facts added since.  This equals a fresh rewrite: every pass
        takes the lowest-index fact that splits the word and new facts get
        higher indices, so a fresh run repeats the stored steps, after which
        no older fact splits the word; and the phase deltas of the steps add
        up mod q.  The memo lives and dies with the engine.
        """
        start = word
        word, delta, seen = self.rewritten.get(start, (start, 0, 0))
        total = len(self.facts)
        while word and seen < total:
            candidates = (1 << total) - (1 << seen)
            runs_at = dict(word)
            for site, touching in self.touching.items():
                runs = runs_at.get(site)
                if runs is None:
                    candidates &= ~touching
                else:
                    sym, power = runs[-1]
                    candidates &= ~touching | self.ending.get(
                        (site, sym, power > 0), 0)
            for fact in _facts_in(candidates, self.facts):
                split = _suffix_split(word, fact.word)
                if split is not None:
                    word = split
                    delta = (delta - fact.phase) % self.q
                    break
            else:
                break
            seen = 0
        self.rewritten[start] = (word, delta, total)
        return word, (phase + delta) % self.q

    def add_fact(self, word: Word, phase: int, rule: str,
                 premises: tuple[int, ...] = ()) -> Fact | None:
        """Record a normalized on-state equation; flags contradictions."""
        if self.contradiction:
            return None
        phase %= self.q
        word, phase = self._rewrite(word, phase)
        if not word:
            if phase != 0:
                self._flag_contradiction(
                    f"scalar equation omega^{phase} psi = psi with "
                    f"{phase} != 0", rule, premises)
            return None
        if word_letters(word) > self.budget.max_word_letters:
            self.dropped_by_letters += 1
            return None
        if len(self.facts) >= self.budget.max_facts:
            self.dropped_by_max_facts += 1
            return None
        fact = Fact(len(self.facts), word, phase, rule, premises)
        self.facts.append(fact)
        self.by_word[word] = fact
        bit = 1 << fact.idx
        for site, runs in word:
            self.touching[site] = self.touching.get(site, 0) | bit
            sym, power = runs[-1]
            key = (site, sym, power > 0)
            self.ending[key] = self.ending.get(key, 0) | bit
        prem = f"({','.join(map(str, premises))})" if premises else ""
        rhs = "psi" if phase == 0 else f"omega^{phase} psi"
        self.transcript.add(rule, premises,
                            f"[{fact.idx}] {rule}{prem}: "
                            f"{render_word(word)} psi = {rhs}")
        return fact

    def _flag_contradiction(self, text: str, rule: str,
                            premises: tuple[int, ...]):
        self.contradiction = text
        self.transcript.add(rule, premises, f"contradiction ({rule}): {text}")

    def add_pair_comm(self, site: int, exponent: int, rule: str,
                      premises: tuple[int, ...], detail: str = ""):
        if self.contradiction:
            return
        exponent %= self.q
        known = self.pair_comm.get(site)
        prem = f"({','.join(map(str, premises))})" if premises else ""
        if known is None:
            self.pair_comm[site] = exponent
            note = f" [{detail}]" if detail else ""
            self.transcript.add(rule, premises,
                                f"{rule}{prem}: site {site} commutation "
                                f"Z X psi = omega^{exponent} X Z psi{note}")
        elif known != exponent:
            self._flag_contradiction(
                f"site {site} pair exponents clash: omega^{known} vs "
                f"omega^{exponent}", rule, premises)

    # -- goal ---------------------------------------------------------------

    def _square_known(self, site: int, sym: str) -> bool:
        if self.q == 2 and not self.problem.is_pair(site):
            return True  # operator hypothesis off the pair set
        fact = self.by_word.get(((site, ((sym, 2),)),))
        return fact is not None and fact.phase == 0

    def goal_met(self) -> bool:
        for site in range(1, self.problem.n + 1):
            if self.pair_comm.get(site) != 1 % self.q:
                return False
            if not (self._square_known(site, "X") and self._square_known(site, "Z")):
                return False
        return True

    # -- rules --------------------------------------------------------------

    def seed(self):
        for site in sorted(self.problem.pair_sites):
            self.add_pair_comm(site, 1, "hypothesis", (),
                               detail="anticommuting-pair site")
        for op in self.problem.operators:
            word, ph = normalize(op, self.problem)
            fact = self.add_fact(word, -ph, "seed")
            if self.contradiction:
                return
            if self.q > 2 and fact is not None:
                dag, dph = word_dagger(fact.word, self.problem)
                self.add_fact(dag, -fact.phase - dph, "adjoint", (fact.idx,))

    def r2_powers(self, fact: Fact):
        """Powers W^t for t = 2..q of a state equation."""
        word, phase = fact.word, fact.phase
        for _t in range(2, self.q + 1):
            word, ph = word_product(word, fact.word, self.problem)
            phase = (phase + fact.phase - ph) % self.q
            self.add_fact(word, phase, "power", (fact.idx,))
            if self.contradiction or not word:
                return

    def r5_hermitian_root(self, fact: Fact):
        """A Hermitian with A^4 psi = psi forces A^2 psi = psi (q = 2 only)."""
        if self.q != 2 or fact.phase != 0 or len(fact.word) != 1:
            return
        site, runs = fact.word[0]
        if len(runs) == 1 and runs[0][1] == 4:
            sym = runs[0][0]
            self.add_fact(((site, ((sym, 2),)),), 0, "hermitian-root",
                          (fact.idx,))

    def reduce_phase(self, start: int):
        """Propagate facts added this round through the existing base.

        Suffix rewriting at insertion only reduces the new word by old
        facts; a fresh squared identity must also shorten the older facts
        it appears in (X7^2 psi = psi turns X1^2 X7^2 psi = psi into
        X1^2 psi = psi), so reductions of old-by-new are emitted as facts.

        For each new fact the old facts tried are those stored when its
        turn comes that end like it on every site it touches, in ascending
        index: any other fact fails `_suffix_split` against it, so this is
        the scan over a snapshot of all facts.
        """
        queue = list(range(start, len(self.facts)))
        qi = 0
        while qi < len(queue):
            if self.contradiction:
                return
            new = self.facts[queue[qi]]
            qi += 1
            candidates = (1 << len(self.facts)) - 1
            for site, runs in new.word:
                sym, power = runs[-1]
                candidates &= self.ending[(site, sym, power > 0)]
            for old in _facts_in(candidates, self.facts):
                if old.idx == new.idx or old.letters <= new.letters:
                    continue
                split = _suffix_split(old.word, new.word)
                if split is None:
                    continue
                added = self.add_fact(split, old.phase - new.phase, "reduce",
                                      (old.idx, new.idx))
                if self.contradiction:
                    return
                if added is not None:
                    queue.append(added.idx)

    def _drops(self) -> int:
        return self.dropped_by_letters + self.dropped_by_max_facts

    def r3_combine(self, a: Fact, b: Fact):
        """Store a * b, counting the product against `max_products`.

        Once a product of (a, b) stored a fact or rewrote to the empty word,
        the pair is settled: a later try would resume the rewrite memo at
        that fact, or at the empty word, and reach the empty word with phase
        0, which adds nothing.  A settled pair still counts, so the budget
        runs out where it always did, but skips the work.  A try refused for
        a budget limit leaves the pair open: newer facts may shorten it.
        """
        if self.contradiction or self.products_used >= self.budget.max_products:
            return
        self.products_used += 1
        key = (a.idx, b.idx)
        if key in self.settled:
            return
        drops = self._drops()
        word, ph = word_product(a.word, b.word, self.problem)
        self.add_fact(word, a.phase + b.phase - ph, "combine", key)
        if self._drops() == drops:
            self.settled.add(key)

    def _extend_solves(self):
        """Add the facts stored since the last call to `self.solves`,
        site -> sym -> [(solved power +-1, fact, rest word)] in fact order.

        A fact whose site-m part is a single X^a run isolates
        X_m^{-a} psi = omega^{-phase} * rest psi.  Off the pair set the
        operator identity X^q = 1 folds -a mod q (for q = 2 every power is
        1); on pair sites (q > 2) only literal powers +-1 qualify since no
        power identity is known, and q = 2 pair sites never qualify, their
        symbols being Hermitian but not unitary.
        """
        for fact in self.facts[self.solved:]:
            for pos, (site, runs) in enumerate(fact.word):
                if len(runs) != 1:
                    continue
                sym, power = runs[0]
                if self.problem.is_pair(site):
                    if self.q == 2 or power not in (1, -1):
                        continue
                    solved = -power
                else:
                    residue = (-power) % self.q
                    if residue == 1:
                        solved = 1
                    elif residue == self.q - 1:
                        solved = -1
                    else:
                        continue
                rest = fact.word[:pos] + fact.word[pos + 1:]
                self.solves.setdefault(site, {}).setdefault(sym, []).append(
                    (solved, fact, rest))
        self.solved = len(self.facts)

    def r4_transfer(self):
        """Derive site commutation phases from paired solved forms.

        With X_m^{px} psi = omega^{cu} U psi and Z_m^{pz} psi =
        omega^{cv} V psi, comparing U V psi against V U psi yields
        Z^{pz} X^{px} psi = omega^e X^{px} Z^{pz} psi whenever the two
        products normalize to the same word, or differ at one site whose
        commutation fact is already known (that site's factors commute to
        the state side).  The exponent is recorded per site.

        A pair is settled once it records a phase or proves unusable.  A
        pair blocked on a site whose commutation is still unknown is tried
        again each round, from its stored products, since the rests never
        change; only rewriting by newer facts can move it.
        """
        self._extend_solves()
        for site in sorted(self.solves):
            entry = self.solves[site]
            for (px, fx, u_rest), (pz, fz, v_rest) in itertools.product(
                    entry.get("X", ()), entry.get("Z", ())):
                key = (fx.idx, fz.idx, site)
                if key in self.r4_done:
                    continue
                raw = self.r4_blocked.pop(key, None) or (
                    *word_product(u_rest, v_rest, self.problem),
                    *word_product(v_rest, u_rest, self.problem))
                uv, ph1, vu, ph2 = raw
                if uv != vu:  # equal words rewrite alike, phase gap and all
                    uv, ph1 = self._rewrite(uv, ph1)
                    vu, ph2 = self._rewrite(vu, ph2)
                if uv == vu:
                    self.r4_done.add(key)
                    self.add_pair_comm(site, ph1 - ph2, "solve-transfer",
                                       (fx.idx, fz.idx),
                                       detail=f"powers ({px},{pz})")
                else:
                    blocked = _single_transposed_site(uv, vu)
                    if blocked is None:
                        self.r4_done.add(key)  # structurally unusable
                        continue
                    bsite, orientation = blocked
                    known = self.pair_comm.get(bsite)
                    if known is None:
                        # retry once a commutation fact lands there
                        self.r4_blocked[key] = raw
                        continue
                    self.r4_done.add(key)
                    self.add_pair_comm(site, ph1 + orientation * known - ph2,
                                       "solve-transfer", (fx.idx, fz.idx),
                                       detail=f"via site {bsite} commutation")
                if self.contradiction:
                    return

    # -- main loop -----------------------------------------------------------

    def _budget_hit(self) -> bool:
        return (len(self.facts) >= self.budget.max_facts
                or self.products_used >= self.budget.max_products)

    def _combine_round(self, frontier: list[Fact], known: list[Fact]):
        """Try r3_combine on both orders of every frontier x known pair.

        The frontier lies inside known, so each pair of frontier facts comes
        up twice; the second time both orders are settled unless a budget
        refused them (see r3_combine).  The round ends early once the
        product budget or a contradiction turns every later try away.
        """
        if self.budget.combine == "even":
            frontier = [f for f in frontier if f.even]
            known = [f for f in known if f.even]
        letters = self.budget.max_word_letters
        for a in frontier:
            for b in known:
                # disjoint products never feed the goal rules, and
                # normalization and rewriting only shrink words
                if a.sites & b.sites and a.letters + b.letters <= letters:
                    self.r3_combine(a, b)
                    self.r3_combine(b, a)
                    if (self.contradiction or self.products_used
                            >= self.budget.max_products):
                        return

    def run(self) -> DeduceResult:
        """Saturate round by round until the goal, a contradiction or a limit.

        A round applies the power and Hermitian-root rules to the frontier
        (the facts the last round added), then solve-transfer, then the
        product rule over frontier x known.  A combine pair whose product
        once stored a fact or rewrote to nothing is settled: the rewrite
        memo takes its product to the empty word with phase 0 again, so
        `r3_combine` counts it and skips it.
        """
        self.seed()
        starved = self._drops() > 0  # a seed was refused for a budget limit
        frontier = list(self.facts)
        rounds = 0
        status = reason = None
        while True:
            if self.contradiction:
                status, reason = CONTRADICTION, self.contradiction
                break
            if self.goal_met():
                status, reason = PROVED, ""
                break
            if not frontier and not starved:
                status, reason = UNKNOWN, "saturated without reaching the goal"
                break
            if (not frontier or rounds >= self.budget.max_rounds
                    or self._budget_hit()):
                status, reason = UNKNOWN, "budget exhausted"
                break
            rounds += 1
            mark = len(self.facts)
            for fact in frontier:
                self.r2_powers(fact)
                self.r5_hermitian_root(fact)
            self.r4_transfer()
            if not self.goal_met():
                self._combine_round(frontier, self.facts[:mark])
            self.reduce_phase(mark)
            frontier = self.facts[mark:]

        apps = self.transcript.rule_applications()
        if status == PROVED:
            self.transcript.status_line = (
                f"proved: goal reached after {apps} rule applications")
        elif status == CONTRADICTION:
            self.transcript.status_line = f"contradiction: {reason}"
        else:
            self.transcript.status_line = f"unknown: {reason}"
        return DeduceResult(status, self.transcript, self.facts,
                            dict(self.pair_comm), rounds, reason,
                            self.products_used, self.dropped_by_letters,
                            self.dropped_by_max_facts)


def deduce(problem: Problem, budget: Budget | None = None) -> DeduceResult:
    """Run the saturation search; returns proved/contradiction/unknown."""
    return _Engine(problem, budget or Budget()).run()


# ---------------------------------------------------------------------------
# Problems from codes
# ---------------------------------------------------------------------------

def problem_for_code(code: StabilizerCode,
                     pair_sites: Iterable[int] | None = None,
                     extras: bool = True) -> Problem:
    """Deduction problem for a code's generators, followed by the extra
    operators of the preset the code equals (unless ``extras`` is false)."""
    words = list(code.generators)
    data = preset_data(code) if extras else None
    if data:
        words += [word for _, word in data.extras]
    if any(word.phase for word in words):
        raise ProblemError("operator words must be phase-free")
    subset = code.pair_sites if pair_sites is None else frozenset(pair_sites)
    return Problem(n=code.n, q=code.q, pair_sites=subset,
                   operators=tuple(word.factors() for word in words),
                   name=code.name)


@dataclass
class SubsetResult:
    subset: tuple[int, ...]
    status: str
    transcript: Transcript


# search_subsets runs one deduction per subset, 2^n in all; it refuses
# codes on more sites than this
EXHAUSTIVE_LIMIT = 12


def search_subsets(code: StabilizerCode, budget: Budget | None = None,
                   extras: bool = True) -> list[SubsetResult]:
    """Try every pair-site subset in size-then-lexicographic order."""
    if code.n > EXHAUSTIVE_LIMIT:
        raise ProblemError(
            f"exhaustive subset scan refused for n = {code.n} > {EXHAUSTIVE_LIMIT}")
    results = []
    for size in range(code.n + 1):
        for subset in itertools.combinations(range(1, code.n + 1), size):
            problem = problem_for_code(code, pair_sites=subset, extras=extras)
            res = deduce(problem, budget)
            results.append(SubsetResult(subset, res.status, res.transcript))
    return results
