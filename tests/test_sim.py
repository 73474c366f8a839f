import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellcert import sim
from bellcert.compile import build_bell, chsh_polynomial, default_certificate
from bellcert.poly import A0, A1, BellPolynomial, MeasurementAssignment, Monomial
from bellcert.pauli import InputError, SizeLimitError
from bellcert.sim import (MAX_SHOTS, EstimationError, Strategy, _allocate,
                          _expectation, estimate_bell, noise_sweep)
from bellcert.verify import (Realization, canonical_realization,
                             logical_basis, materialize)

from realizations import random_realization

SQRT2 = math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def direct_realization(n):
    return Realization(tuple((X.copy(), Z.copy()) for _ in range(n)))


def bell_pair_strategy(seed=0):
    state = np.zeros(4, dtype=complex)
    state[0] = state[3] = 1 / SQRT2
    asg = MeasurementAssignment(2, {1})
    return Strategy(state, canonical_realization(asg), seed=seed)


@st.composite
def _states_and_monomials(draw):
    """A random dimension-2 realization, a random normalized state and a
    monomial with one letter on each of a nonempty set of sites."""
    n = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = random_realization(n, gen, dims=(2,))
    state = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    state /= np.linalg.norm(state)
    sites = draw(st.lists(st.integers(1, n), min_size=1, unique=True))
    mono = Monomial.from_dict({s: (draw(st.sampled_from([A0, A1])),)
                               for s in sites})
    return Strategy(state, real), mono


class TestEstimate:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_states_and_monomials())
    def test_expectation_matches_materialized_monomial(self, case):
        strat, mono = case
        h = materialize(BellPolynomial({mono: 1.0}), strat.realization)
        exact = np.vdot(strat.state, h @ strat.state).real
        assert abs(_expectation(strat, mono) - exact) <= 1e-12

    def test_chsh_converges(self):
        strat = bell_pair_strategy(seed=5)
        report = estimate_bell(strat, chsh_polynomial(), 100_000)
        assert abs(report.estimate - 2 * SQRT2) <= 5 * report.stderr
        assert report.shots == 100_000
        assert sum(p["shots"] for p in report.per_setting) == 100_000

    def test_five_qubit_violation(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        strat = Strategy.from_code(five_qubit, seed=9)
        report = estimate_bell(strat, compiled.poly, 200_000)
        assert abs(report.estimate - compiled.bound) <= 5 * report.stderr

    def test_zero_polynomial(self, five_qubit):
        strat = Strategy.from_code(five_qubit, seed=1)
        report = estimate_bell(strat, BellPolynomial(), 100)
        assert report.estimate == 0.0 and report.stderr == 0.0

    def test_deterministic_given_seed(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        r1 = estimate_bell(Strategy.from_code(five_qubit, seed=4),
                           compiled.poly, 5000)
        r2 = estimate_bell(Strategy.from_code(five_qubit, seed=4),
                           compiled.poly, 5000)
        assert r1.to_json() == r2.to_json()

    def test_sequential_monomials_rejected(self, five_qubit):
        cert = default_certificate(five_qubit, theta=math.pi / 8, alpha0=1.0)
        compiled = build_bell(cert, five_qubit)
        strat = Strategy.from_code(five_qubit, seed=2)
        with pytest.raises(EstimationError, match="sequential"):
            estimate_bell(strat, compiled.poly, 1000)

    def test_uniform_allocation(self):
        strat = bell_pair_strategy(seed=6)
        report = estimate_bell(strat, chsh_polynomial(), 4000,
                               allocation="uniform")
        shots = {tuple(p["settings"]): p["shots"] for p in report.per_setting}
        assert all(m == 1000 for m in shots.values())

    def test_allocation_honours_shot_budget(self):
        assert _allocate([5, 1, 1, 1], 5) == [2, 1, 1, 1]
        assert _allocate([2, 1, 1], 8) == [4, 2, 2]
        with pytest.raises(ValueError, match="sampled monomials"):
            _allocate([1, 1, 1], 2)
        skewed = BellPolynomial({
            Monomial.from_dict({1: (A0,), 2: (A0,)}): 5.0,
            Monomial.from_dict({1: (A0,), 2: (A1,)}): 1.0,
            Monomial.from_dict({1: (A1,), 2: (A0,)}): 1.0,
            Monomial.from_dict({1: (A1,), 2: (A1,)}): 1.0})
        report = estimate_bell(bell_pair_strategy(seed=2), skewed, 5)
        assert report.shots == 5
        assert sum(p["shots"] for p in report.per_setting) == 5
        with pytest.raises(ValueError, match="sampled monomials"):
            estimate_bell(bell_pair_strategy(seed=2), skewed, 3)

    def test_shot_cap_refused_before_drawing(self):
        strat = bell_pair_strategy(seed=1)
        for shots in (MAX_SHOTS + 1, 2_000_000_000):
            tracemalloc.start()
            try:
                with pytest.raises(SizeLimitError, match="exceed the cap"):
                    estimate_bell(strat, chsh_polynomial(), shots, noise_p=0.1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_consistency_over_seeds(self):
        # the estimate stays within 5 standard errors across repetitions
        exact = 2 * SQRT2
        hits = 0
        for seed in range(40):
            report = estimate_bell(bell_pair_strategy(seed=seed),
                                   chsh_polynomial(), 20_000)
            hits += abs(report.estimate - exact) <= 5 * report.stderr
        assert hits == 40


class TestNoise:
    def test_endpoints(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        strat = Strategy.from_code(five_qubit, seed=17)
        rows = noise_sweep(strat, compiled.poly, [0.0, 1.0], 50_000)
        clean, dead = rows
        assert abs(clean.estimate - compiled.bound) <= 5 * clean.stderr
        assert abs(dead.estimate) <= 5 * dead.stderr

    def test_zero_noise_row_matches_estimate(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        strat = Strategy.from_code(five_qubit, seed=8)
        row = noise_sweep(strat, compiled.poly, [0.0], 20_000)[0]
        direct = estimate_bell(Strategy.from_code(five_qubit, seed=8),
                               compiled.poly, 20_000)
        assert row.estimate == direct.estimate
        assert row.stderr == direct.stderr

    def test_monotone_decrease_at_small_noise(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        strat = Strategy.from_code(five_qubit, seed=23)
        rows = noise_sweep(strat, compiled.poly, [0.0, 0.05], 100_000)
        drop = rows[0].estimate - rows[1].estimate
        sigma = math.hypot(rows[0].stderr, rows[1].stderr)
        assert drop > 5 * sigma

    def test_rows_match_exact_depolarized_value(self, five_qubit):
        # per-site depolarizing noise scales each monomial by (1 - p)^|supp|
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        strat = Strategy.from_code(five_qubit, seed=31)
        state = logical_basis(five_qubit)[0]
        real = canonical_realization(compiled.assignment)
        clean = [(coeff, len(mono.factors),
                  np.vdot(state, materialize(BellPolynomial({mono: 1.0}),
                                             real) @ state).real)
                 for mono, coeff in compiled.poly.terms()]
        grid = [0.05, 0.1, 0.5]
        for row in noise_sweep(strat, compiled.poly, grid, 20_000):
            exact = sum(c * (1 - row.p)**k * v for c, k, v in clean)
            assert abs(row.estimate - exact) <= 5 * row.stderr

    def test_rows_equal_lone_estimates_from_one_draw(self, five_qubit,
                                                     monkeypatch):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        grid = [0.1, 0.0, 0.05, 1.0]
        state = logical_basis(five_qubit)[0]
        real = canonical_realization(compiled.assignment)
        routes = {  # the codeword's algebra, and the same state given
            "codeword_expectations": lambda: Strategy.from_code(five_qubit,
                                                                seed=5),
            "_expectation": lambda: Strategy(state, real, seed=5)}
        for name, make in routes.items():
            seen = []
            compute = getattr(sim, name)

            def counting(*args, compute=compute):
                seen.append(args)
                return compute(*args)

            monkeypatch.setattr(sim, name, counting)
            rows = noise_sweep(make(), compiled.poly, grid, 20_000)
            monkeypatch.undo()
            # one pass for the codeword; else one expectation per sampled
            # monomial; never one per row
            assert len(seen) == (1 if name == "codeword_expectations" else 7)
            for row, p in zip(rows, grid):
                lone = estimate_bell(make(), compiled.poly, 20_000, noise_p=p)
                assert (row.p, row.shots, row.estimate, row.stderr) == (
                    p, lone.shots, lone.estimate, lone.stderr)

    def test_grid_checked_before_drawing(self, five_qubit, monkeypatch):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)

        def no_draw(*args):
            raise AssertionError("drew before checking every p")

        monkeypatch.setattr(sim, "_draw_products", no_draw)
        with pytest.raises(ValueError, match="outside"):
            noise_sweep(Strategy.from_code(five_qubit, seed=1), compiled.poly,
                        [0.0, 1.5], 100)

    def test_invalid_p_rejected(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        strat = Strategy.from_code(five_qubit, seed=1)
        with pytest.raises(ValueError):
            noise_sweep(strat, compiled.poly, [1.5], 100)


@pytest.mark.parametrize("refused", [
    lambda: estimate_bell(bell_pair_strategy(), chsh_polynomial(), 0),
    lambda: estimate_bell(bell_pair_strategy(), chsh_polynomial(), 3),
    lambda: estimate_bell(bell_pair_strategy(), chsh_polynomial(), 100,
                          noise_p=-0.1),
    lambda: estimate_bell(bell_pair_strategy(), chsh_polynomial(), 100,
                          allocation="bogus"),
    lambda: Strategy(np.array([1.0, 1.0, 0, 0]), direct_realization(2)),
    lambda: Strategy(np.array([1.0, 0, 0, 0]), direct_realization(3)),
], ids=["shots-zero", "shots-below-monomials", "noise-negative", "allocation",
        "norm", "dimension"])
def test_refusals_are_input_errors(refused):
    with pytest.raises(InputError):
        refused()


class TestStrategy:
    def test_norm_checked(self):
        with pytest.raises(ValueError):
            Strategy(np.array([1.0, 1.0, 0, 0]), direct_realization(2))

    def test_nan_state_refused(self):
        with pytest.raises(ValueError, match="state norm nan"):
            Strategy(np.array([math.nan, 0, 0, 0]), direct_realization(2))

    def test_nan_observable_refused(self):
        nan = np.full((2, 2), math.nan, dtype=complex)
        with pytest.raises(InputError, match="site 2 setting 0"):
            Strategy(np.array([1.0, 0, 0, 0]),
                     Realization(((X, Z), (nan, Z))))

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            Strategy(np.array([1.0, 0, 0, 0]), direct_realization(3))

    @pytest.mark.parametrize("theta, message", [
        (math.nan, "nan is not finite"), (math.inf, "inf is not finite"),
        (-math.inf, "-inf is not finite"), (1e308, "1e+308 doubles to inf"),
        (-1e308, "-1e+308 doubles to -inf")])
    def test_tilt_with_non_finite_double_refused(self, five_qubit, theta,
                                                 message):
        # an estimate reads sin 2 theta and cos 2 theta
        with pytest.raises(InputError) as exc:
            Strategy.from_code(five_qubit, theta=theta)
        assert str(exc.value) == f"--state-theta {message}"

    def test_largest_doubling_tilt_estimates(self, five_qubit):
        theta = 8e307
        assert math.isfinite(2 * theta)
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        report = estimate_bell(Strategy.from_code(five_qubit, theta=theta,
                                                  seed=1), compiled.poly, 1000)
        assert math.isfinite(report.estimate)
        assert math.isfinite(report.stderr)
