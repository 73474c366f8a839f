import hashlib
import itertools
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellcert.engine import (CONTRADICTION, PROVED, UNKNOWN, Budget, Problem,
                             ProblemError, _Engine, _single_transposed_site,
                             _site_suffix_split, _suffix_split, deduce,
                             normalize, problem_for_code, search_subsets,
                             transcript_render, word_product)
from bellcert.pauli import code_preset, load_code
from bellcert.verify import model_check_deduction


class TestDeducePresets:
    def test_five_qubit_proves(self, five_qubit):
        res = deduce(problem_for_code(five_qubit))
        assert res.status == PROVED
        assert all(res.pair_comm[s] == 1 for s in range(1, 6))
        text = transcript_render(res.transcript)
        # site-2 anticommutation comes from the pair of seeds isolating
        # X2 and Z2 (operators 4 and 1)
        assert "site 2 commutation" in text

    def test_five_qubit_site2_premises(self, five_qubit):
        res = deduce(problem_for_code(five_qubit))
        step = next(s for s in res.transcript.steps
                    if "site 2 commutation" in s.text)
        assert set(step.premises) == {0, 3}  # seed facts S1 and S4

    def test_five_qubit_all_four_anticommutators_derived(self, five_qubit):
        res = deduce(problem_for_code(five_qubit))
        text = transcript_render(res.transcript)
        for site in (2, 3, 4, 5):
            assert f"site {site} commutation Z X psi = omega^1" in text

    def test_steane_with_extras_proves(self, steane):
        res = deduce(problem_for_code(steane))
        assert res.status == PROVED

    def test_steane_without_extras_does_not_prove(self, steane):
        res = deduce(problem_for_code(steane, extras=False))
        assert res.status == UNKNOWN

    def test_shor_with_ninth_proves_via_fourth_power(self, shor):
        res = deduce(problem_for_code(shor))
        assert res.status == PROVED
        assert any(s.rule == "hermitian-root" for s in res.transcript.steps)

    def test_shor_without_ninth_unknown(self, shor):
        res = deduce(problem_for_code(shor, extras=False))
        assert res.status == UNKNOWN

    def test_qudit_contradiction(self):
        for q in (3, 5):
            res = deduce(problem_for_code(code_preset("five_qudit", q=q)))
            assert res.status == CONTRADICTION
            last = transcript_render(res.transcript).splitlines()[-1]
            assert "omega^1" in last and f"omega^{q - 1}" in last

    def test_qudit_q2_reduces_to_five_qubit(self, five_qubit):
        res2 = deduce(problem_for_code(code_preset("five_qudit", q=2)))
        res5 = deduce(problem_for_code(five_qubit))
        assert res2.status == res5.status == PROVED
        assert res2.pair_comm == res5.pair_comm


class TestSoundness:
    @pytest.mark.parametrize("name", ["five_qubit", "steane", "shor"])
    def test_derived_facts_hold_in_pauli_model(self, name):
        code = code_preset(name)
        res = deduce(problem_for_code(code))
        assert model_check_deduction(res, code) <= 1e-9

    def test_facts_hold_for_other_subsets(self, five_qubit):
        for subset in [(2,), (1, 2), (3, 5)]:
            res = deduce(problem_for_code(five_qubit, pair_sites=subset))
            model_check_deduction(res, five_qubit)

    def test_monotone_facts(self, five_qubit):
        res = deduce(problem_for_code(five_qubit))
        assert [f.idx for f in res.facts] == list(range(len(res.facts)))


class TestBudgets:
    def test_proved_stable_under_larger_budget(self, five_qubit, shor):
        for code in (five_qubit, shor):
            problem = problem_for_code(code)
            small = deduce(problem, Budget())
            large = deduce(problem, Budget(max_facts=20000,
                                           max_word_letters=32,
                                           max_products=500_000,
                                           combine="all"))
            assert small.status == large.status == PROVED

    def test_deterministic(self, steane):
        r1 = deduce(problem_for_code(steane))
        r2 = deduce(problem_for_code(steane))
        assert transcript_render(r1.transcript) == transcript_render(r2.transcript)

    def test_tiny_budget_returns_unknown(self, shor):
        res = deduce(problem_for_code(shor), Budget(max_facts=10))
        assert res.status in (UNKNOWN, PROVED)  # never crashes; shor needs >10
        assert res.status == UNKNOWN

    @pytest.mark.parametrize("limit", ["max_facts", "max_word_letters"])
    def test_refused_seeds_report_the_budget(self, shor, limit):
        problem = problem_for_code(shor)
        res = deduce(problem, Budget(**{limit: 0}))
        assert (res.status, res.reason, res.facts) == (
            UNKNOWN, "budget exhausted", [])
        assert res.transcript.status_line == "unknown: budget exhausted"
        # every seed is refused, each counted under its own limit
        refused = len(problem.operators)
        assert (res.dropped_by_max_facts, res.dropped_by_letters) == (
            (refused, 0) if limit == "max_facts" else (0, refused))
        assert res.products_used == 0

    def test_product_budget_is_spent_exactly(self, steane):
        problem = problem_for_code(steane)
        free = deduce(problem)
        assert free.status == PROVED
        assert 0 < free.products_used < Budget().max_products
        capped = deduce(problem, Budget(max_products=free.products_used // 2))
        assert (capped.status, capped.reason) == (UNKNOWN, "budget exhausted")
        assert capped.products_used == free.products_used // 2

    def test_no_operators_still_saturate(self):
        problem = Problem(n=1, q=2, pair_sites=frozenset(), operators=())
        res = deduce(problem, Budget(max_facts=0))
        assert res.reason == "saturated without reaching the goal"

    @pytest.mark.parametrize("field, value", [
        ("combine", "evne"), ("combine", "All"), ("max_facts", -1),
        ("max_word_letters", -1), ("max_products", -1), ("max_rounds", -1)])
    def test_bad_budget_rejected(self, field, value):
        with pytest.raises(ProblemError, match=field):
            Budget(**{field: value})

    def test_zero_limits_accepted(self):
        problem = Problem(n=1, q=2, pair_sites=frozenset({1}),
                          operators=(((1, "X", 2),), ((1, "Z", 2),)))
        assert deduce(problem, Budget(max_products=0, max_rounds=0)).status == PROVED


class TestProblems:
    def test_zero_step_proof(self):
        problem = Problem(n=1, q=2, pair_sites=frozenset({1}),
                          operators=(((1, "X", 2),), ((1, "Z", 2),)))
        res = deduce(problem)
        assert res.status == PROVED
        assert res.transcript.rule_applications() == 0
        assert "0 rule applications" in transcript_render(res.transcript)

    def test_phase_clash_contradiction(self):
        # Z1 X1 Z2 and X1 Z1 Z2 both fixing the state contradicts the
        # pair-site anticommutation: adding them gives {X1, Z1} Z2 psi =
        # 2 psi, but the hypothesis says the anticommutator vanishes.
        problem = Problem(n=2, q=2, pair_sites=frozenset({1}),
                          operators=(((1, "Z", 1), (1, "X", 1), (2, "Z", 1)),
                                     ((1, "X", 1), (1, "Z", 1), (2, "Z", 1))))
        res = deduce(problem)
        assert res.status == CONTRADICTION
        assert "omega^1" in res.reason

    def test_malformed_problem_rejected(self):
        with pytest.raises(Exception):
            Problem(n=2, q=2, pair_sites=frozenset({3}), operators=())
        with pytest.raises(Exception):
            Problem(n=2, q=2, pair_sites=frozenset({1}),
                    operators=(((1, "X", -1),),))

    @pytest.mark.parametrize("doc, message", [
        ({"n": 5}, "KeyError: 'operators'"),
        ({"n": 2, "operators": [[[1, "X"]]]},
         "ValueError: not enough values to unpack"),
        ({"n": 2, "operators": [[[1, "X", 1.5]]]},
         "TypeError: 'float' object cannot be interpreted as an integer"),
        ({"n": 2, "operators": [[[1, "X", "two"]]]},
         "TypeError: 'str' object cannot be interpreted as an integer"),
        ([], "TypeError: list indices must be integers"),
    ], ids=["no-operators", "two-field-factor", "float-power", "str-power",
            "not-a-mapping"])
    def test_malformed_json_refused(self, doc, message):
        with pytest.raises(ProblemError) as info:
            Problem.from_json(doc)
        assert str(info.value).startswith(
            f"malformed problem document: {message}")

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_sites_refused(self, n):
        with pytest.raises(ProblemError, match=f"^n = {n} must be >= 1$"):
            Problem(n=n, q=2, pair_sites=frozenset(), operators=())
        with pytest.raises(ProblemError, match=f"^n = {n} must be >= 1$"):
            Problem.from_json({"n": n, "operators": []})

    def test_json_roundtrip(self, five_qubit):
        problem = problem_for_code(five_qubit)
        again = Problem.from_json(problem.to_json())
        assert again == problem


class TestSearch:
    def test_five_qubit_scan_contains_pair_site_one(self, five_qubit):
        results = search_subsets(five_qubit)
        assert len(results) == 32
        proved = {r.subset for r in results if r.status == PROVED}
        assert (1,) in proved

    def test_steane_scan_contains_paper_subset(self, steane):
        results = search_subsets(steane)
        proved = {r.subset for r in results
                  if len(r.subset) == 4 and r.status == PROVED}
        assert (2, 3, 5, 7) in proved

    def test_empty_operator_list_proves_nothing(self):
        code = code_preset("five_qubit")
        problem_ops = ()
        from bellcert.engine import Problem as P
        for subset in [(), (1,), (1, 2, 3, 4, 5)]:
            res = deduce(P(n=5, q=2, pair_sites=frozenset(subset),
                           operators=problem_ops))
            assert res.status != PROVED

    def test_size_guard(self):
        qrm15 = load_code((Path(__file__).parent / "fixtures" / "qrm15.json")
                          .read_text())
        with pytest.raises(ProblemError, match="n = 15 > 12"):
            search_subsets(qrm15)


def _draw_problem(draw):
    """A problem on 1-3 sites with random q and pair sites, no operators."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    pair = draw(st.sets(st.integers(1, n)))
    return Problem(n=n, q=q, pair_sites=frozenset(pair), operators=())


def _draw_factors(draw, problem, most):
    """Up to `most` random factors on the problem's sites."""
    factors = []
    for _ in range(draw(st.integers(0, most))):
        site = draw(st.integers(1, problem.n))
        # as Problem requires
        low = 1 if problem.q == 2 and problem.is_pair(site) else -3
        factors.append((site, draw(st.sampled_from("XZ")),
                        draw(st.integers(low, 3))))
    return factors


@st.composite
def _factor_lists(draw):
    """A problem with random pair sites and one random factor list on it."""
    problem = _draw_problem(draw)
    return problem, tuple(_draw_factors(draw, problem, 8))


def _flat(word):
    return [(site, sym, power) for site, runs in word for sym, power in runs]


def _operator(factors, n, q):
    """Factors as a matrix with q-dimensional shift X and clock Z, which
    satisfy Z X = omega X Z and X^q = Z^q = 1."""
    omega = np.exp(2j * np.pi / q)
    base = {"X": np.roll(np.eye(q), 1, axis=0),
            "Z": np.diag(omega ** np.arange(q))}
    sites = [np.eye(q, dtype=complex) for _ in range(n)]
    for site, sym, power in factors:
        sites[site - 1] = sites[site - 1] @ np.linalg.matrix_power(
            base[sym], power % q)
    return reduce(np.kron, sites)


def _normalize_loop(factors, problem):
    """Run-by-run reference for `normalize`: each site's runs in order,
    X runs moved left past Z runs at a pair site (Weyl order X^a Z^b),
    equal neighbours merged mod q off the pair set."""
    per_site = {}
    for site, sym, power in factors:
        per_site.setdefault(site, []).append((sym, power))
    word, phase = [], 0
    for site in sorted(per_site):
        if problem.is_pair(site):
            x = z = 0
            for sym, power in per_site[site]:
                if sym == "X":
                    x += power
                    phase += z * power
                else:
                    z += power
            runs = tuple(r for r in (("X", x), ("Z", z)) if r[1])
        else:
            merged = []
            for sym, power in per_site[site]:
                if merged and merged[-1][0] == sym:
                    power += merged.pop()[1]
                if power % problem.q:
                    merged.append((sym, power % problem.q))
            runs = tuple(merged)
        if runs:
            word.append((site, runs))
    return tuple(word), phase % problem.q


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_factor_lists())
def test_normalize_matches_shift_and_clock(case):
    problem, factors = case
    word, ph = normalize(factors, problem)
    assert (word, ph) == _normalize_loop(factors, problem)
    for site, runs in word:
        if problem.is_pair(site):  # Weyl order X^a Z^b
            assert [sym for sym, _ in runs] in (["X"], ["Z"], ["X", "Z"])
    q = problem.q
    omega = np.exp(2j * np.pi / q)
    assert np.allclose(_operator(factors, problem.n, q),
                       omega**ph * _operator(_flat(word), problem.n, q),
                       atol=1e-12)


@st.composite
def _fact_bases(draw):
    """A problem and a sequence of engine steps: facts added from random
    factor lists, interleaved with queries.  A query is a random word
    multiplied on the right by up to two added words, stored or still to
    come, or a word queried before, so that remembered rewrites come back
    after new facts land."""
    problem = _draw_problem(draw)
    adds = [normalize(_draw_factors(draw, problem, 4), problem)
            for _ in range(draw(st.integers(0, 12)))]
    words = [word for word, _ in adds]
    steps, queried = [], []
    for word, ph in adds:
        steps.append(("add", word, draw(st.integers(0, problem.q - 1)) - ph))
        for _ in range(draw(st.integers(0, 3))):
            if queried and draw(st.booleans()):
                query = draw(st.sampled_from(queried))
            else:
                factors = _draw_factors(draw, problem, 6)
                for suffix in draw(st.lists(st.sampled_from(words), max_size=2)):
                    factors += _flat(suffix)
                query = normalize(factors, problem)
                queried.append(query)
            steps.append(("query", *query))
    steps += [("query", *query) for query in queried]
    return problem, steps


def _linear_rewrite(engine, word, phase):
    """Cancel the first fact, in list order, that splits the word."""
    while word:
        for fact in engine.facts:
            split = _suffix_split(word, fact.word)
            if split is not None:
                word, phase = split, (phase - fact.phase) % engine.q
                break
        else:
            break
    return word, phase


_X1, _Z1 = ((1, (("X", 1),)),), ((1, (("Z", 1),)),)
_X1Z1 = ((1, (("X", 1), ("Z", 1))),)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_fact_bases())
# X1 Z1 is remembered irreducible; once Z1 lands it drops Z1, then the
# older X1, which its first resumed pass does not try
@example((Problem(n=1, q=2, pair_sites=frozenset(), operators=()),
          [("add", _X1, 0), ("query", _X1Z1, 0), ("add", _Z1, 0),
           ("query", _X1Z1, 0)]))
def test_rewrite_matches_linear_scan(case):
    problem, steps = case
    engine = _Engine(problem, Budget())
    for kind, word, phase in steps:
        if kind == "add":
            engine.add_fact(word, phase, "seed")
        else:
            assert (engine._rewrite(word, phase)
                    == _linear_rewrite(engine, word, phase))


@st.composite
def _normal_word_pairs(draw):
    problem = _draw_problem(draw)
    a, _ = normalize(_draw_factors(draw, problem, 8), problem)
    b, _ = normalize(_draw_factors(draw, problem, 8), problem)
    return problem, a, b


def _one_site(q, pair, *words):
    """A one-site problem and words on its site, each given as its runs."""
    problem = Problem(n=1, q=q, pair_sites=frozenset({1} if pair else ()),
                      operators=())
    return (problem, *(((1, tuple(runs)),) for runs in words))


_XZX = [("X", 1), ("Z", 1), ("X", 1)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_normal_word_pairs())
# X Z X * X Z X cancels one run after another down to the identity
@example(_one_site(2, False, _XZX, _XZX))
# Z X * X Z at q = 3 merges the junction into X^2 and stops there
@example(_one_site(3, False, [("Z", 1), ("X", 1)], [("X", 1), ("Z", 1)]))
# X^-2 Z^3 * X^-1 Z^-4 at a q = 5 pair site: omega^{3 * -1} X^-3 Z^-1
@example(_one_site(5, True, [("X", -2), ("Z", 3)], [("X", -1), ("Z", -4)]))
def test_word_product_matches_normalize(case):
    problem, a, b = case
    assert (word_product(a, b, problem)
            == _normalize_loop(_flat(a) + _flat(b), problem))


def _site_suffix_split_loop(runs, suffix):
    """Run-by-run reference for `_site_suffix_split`."""
    runs_l = list(runs)
    for si in range(len(suffix) - 1, -1, -1):
        if not runs_l:
            return None
        sym_s, pow_s = suffix[si]
        sym_w, pow_w = runs_l[-1]
        if sym_w != sym_s or pow_w * pow_s <= 0 or abs(pow_w) < abs(pow_s):
            return None
        leftover = pow_w - pow_s
        if leftover:
            if si > 0:
                return None
            runs_l[-1] = (sym_w, leftover)
        else:
            runs_l.pop()
    return tuple(runs_l)


_runs = st.lists(st.tuples(st.sampled_from("XZ"),
                           st.sampled_from([-3, -2, -1, 1, 2, 3])),
                 max_size=4).map(tuple)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_runs, _runs.filter(bool), st.booleans())
def test_site_suffix_split_matches_loop(runs, suffix, own_tail):
    if own_tail and runs:
        suffix = runs[-len(suffix):]  # a suffix that fits, up to its head run
    assert _site_suffix_split(runs, suffix) == _site_suffix_split_loop(runs, suffix)


def _product(a, b, problem):
    return _normalize_loop(_flat(a) + _flat(b), problem)


class _EveryPairEngine(_Engine):
    """The product and solve-transfer rules computing every pair afresh:
    no settled combine pairs, no stop at the product budget, no kept
    transfer products, products by the run-by-run normalization."""

    def r3_combine(self, a, b):
        if self.contradiction or self.products_used >= self.budget.max_products:
            return
        self.products_used += 1
        word, ph = _product(a.word, b.word, self.problem)
        self.add_fact(word, a.phase + b.phase - ph, "combine", (a.idx, b.idx))

    def _combine_round(self, frontier, known):
        def even(f):
            return all(p % 2 == 0 for _, runs in f.word for _, p in runs)

        if self.budget.combine == "even":
            frontier = [f for f in frontier if even(f)]
            known = [f for f in known if even(f)]
        for a in frontier:
            for b in known:
                if ({s for s, _ in a.word} & {s for s, _ in b.word}
                        and a.letters + b.letters <= self.budget.max_word_letters):
                    self.r3_combine(a, b)
                    self.r3_combine(b, a)

    def r4_transfer(self):
        self._extend_solves()
        for site in sorted(self.solves):
            entry = self.solves[site]
            for (px, fx, u_rest), (pz, fz, v_rest) in itertools.product(
                    entry.get("X", ()), entry.get("Z", ())):
                key = (fx.idx, fz.idx, site)
                if key in self.r4_done:
                    continue
                uv, ph1 = self._rewrite(*_product(u_rest, v_rest, self.problem))
                vu, ph2 = self._rewrite(*_product(v_rest, u_rest, self.problem))
                if uv == vu:
                    self.r4_done.add(key)
                    self.add_pair_comm(site, ph1 - ph2, "solve-transfer",
                                       (fx.idx, fz.idx),
                                       detail=f"powers ({px},{pz})")
                else:
                    blocked = _single_transposed_site(uv, vu)
                    if blocked is None:
                        self.r4_done.add(key)
                        continue
                    bsite, orientation = blocked
                    known = self.pair_comm.get(bsite)
                    if known is None:
                        continue
                    self.r4_done.add(key)
                    self.add_pair_comm(site, ph1 + orientation * known - ph2,
                                       "solve-transfer", (fx.idx, fz.idx),
                                       detail=f"via site {bsite} commutation")
                if self.contradiction:
                    return


@st.composite
def _tight_runs(draw):
    """A preset's operators on a random pair-site subset, or one to six
    random operators, under a tight budget."""
    name = draw(st.sampled_from(["five_qubit", "steane", "shor", "five_qudit:3",
                                 None, None, None]))
    if name:
        code = code_preset(name)
        problem = problem_for_code(code, pair_sites=draw(
            st.sets(st.integers(1, code.n))))
    else:
        problem = _draw_problem(draw)
        ops = tuple(tuple(_draw_factors(draw, problem, 4))
                    for _ in range(draw(st.integers(1, 6))))
        problem = Problem(n=problem.n, q=problem.q,
                          pair_sites=problem.pair_sites, operators=ops)
    # sampled_from leans to its first entries: busy budgets first
    budget = Budget(max_products=draw(st.sampled_from(range(40, -1, -1))),
                    max_word_letters=draw(st.sampled_from(range(8, -1, -1))),
                    max_facts=draw(st.sampled_from(range(24, -1, -1))),
                    combine=draw(st.sampled_from(["all", "even"])))
    return problem, budget


def _outcome(res):
    return (res.status, [(f.word, f.phase, f.rule, f.premises) for f in res.facts],
            res.pair_comm, transcript_render(res.transcript), res.rounds,
            res.products_used, res.dropped_by_letters, res.dropped_by_max_facts)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_tight_runs())
# max_facts refuses first tries of frontier pairs, which come up again
@example((problem_for_code(code_preset("five_qubit"), pair_sites=(1, 2)),
          Budget(max_facts=8, max_products=40, max_word_letters=8,
                 combine="all")))
def test_engine_matches_every_pair_reference(case):
    problem, budget = case
    assert (_outcome(_Engine(problem, budget).run())
            == _outcome(_EveryPairEngine(problem, budget).run()))


# SHA-256 of these runs' status, facts (word, phase, rule, premises),
# pair_comm and transcript text, as the scan-based engine produced them.
GOLDEN_DEDUCE_DIGEST = (
    "598ee133a90e844ca8faa831c6794c7ec69752a8fbf9a8c781c12c36304e1063")


def test_golden_deduce_digest(five_qubit, steane, shor):
    runs = [(five_qubit, subset, True, Budget())
            for size in range(6)
            for subset in itertools.combinations(range(1, 6), size)]
    runs += [(steane, None, True, Budget()), (shor, None, True, Budget()),
             (shor, None, False, Budget())]
    runs += [(code_preset("five_qudit", q=q), None, True, Budget())
             for q in (2, 3, 5)]
    wide = Budget(combine="all", max_products=2000)
    runs += [(five_qubit, subset, True, wide)
             for subset in [(), (1,), (1, 5), (1, 2, 3), (1, 2, 3, 5),
                            (1, 2, 3, 4, 5)]]
    digest = hashlib.sha256()
    for code, subset, extras, budget in runs:
        res = deduce(problem_for_code(code, pair_sites=subset, extras=extras),
                     budget)
        digest.update(repr((
            res.status,
            [(f.word, f.phase, f.rule, f.premises) for f in res.facts],
            sorted(res.pair_comm.items()),
            transcript_render(res.transcript))).encode())
    assert digest.hexdigest() == GOLDEN_DEDUCE_DIGEST


# The same fields plus the products counted, over tight budgets, as the
# engine produced them before it skipped settled combine pairs.
GOLDEN_TIGHT_DIGEST = (
    "d2547cfd58ea9e9d67c1ec09ce1daf665be45f658c3d78e8988b935e86844a09")


def test_golden_tight_budget_digest(five_qubit, steane, shor):
    digest = hashlib.sha256()
    for code in (five_qubit, steane, shor, code_preset("five_qudit", q=3)):
        problem = problem_for_code(code)
        for products, letters, facts, combine in itertools.product(
                (0, 1, 3, 17, 60, 250), (2, 4, 8, 16), (5, 40, 5000),
                ("even", "all")):
            res = deduce(problem, Budget(max_products=products,
                                         max_word_letters=letters,
                                         max_facts=facts, combine=combine))
            digest.update(repr((
                res.status,
                [(f.word, f.phase, f.rule, f.premises) for f in res.facts],
                sorted(res.pair_comm.items()),
                transcript_render(res.transcript),
                res.products_used)).encode())
    assert digest.hexdigest() == GOLDEN_TIGHT_DIGEST
