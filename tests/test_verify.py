import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellcert import pauli, verify
from bellcert.compile import (CertificateError, SOSCertificate, build_bell,
                              chsh_certificate, chsh_polynomial,
                              default_certificate, substitute)
from bellcert.engine import (DeduceResult, Fact, Transcript, deduce,
                             problem_for_code)
from bellcert.pauli import (CodeValidationError, InputError, PauliWord,
                            SizeLimitError, StabilizerCode, apply_word,
                            code_preset, load_code, mul)
from bellcert.poly import (A0, A1, COEFF_TOL, BellPolynomial,
                          MeasurementAssignment, Monomial)
from bellcert.sim import Strategy, _expectation
from bellcert.verify import (Realization, RealizationError,
                             canonical_realization,
                             canonicalize_pair,
                             check_selftest, classical_bound, codespace_basis,
                             codeword_expectations,
                             logical_basis, materialize, max_eig,
                             model_check_deduction, principal_angle_sin,
                             qudit_codespace, sector_spectrum, tilt_sweep)

from realizations import random_realization

SQRT2 = math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def asg(n, pairs):
    return MeasurementAssignment(n, pairs)


class TestRealization:
    def test_nan_setting_refused(self):
        # NaN passes every "> tol" test, and an infinite entry makes the
        # Hermitian check warn; both are refused before any arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (math.nan, np.inf):
                with pytest.raises(RealizationError, match="site 1 setting 1"):
                    Realization(((X, np.full((2, 2), bad, dtype=complex)),))


class TestCanonicalRealization:
    def test_direct_site_squares(self):
        real = canonical_realization(asg(1, set()))
        assert np.allclose(real.obs(1, 0) @ real.obs(1, 0), np.eye(2))

    def test_pair_site_combinations_anticommute(self):
        real = canonical_realization(asg(1, {1}))
        a0, a1 = real.obs(1, 0), real.obs(1, 1)
        xc = (a0 + a1) / SQRT2
        zc = (a0 - a1) / SQRT2
        assert np.abs(xc @ zc + zc @ xc).max() <= 1e-12
        assert np.allclose(xc, X) and np.allclose(zc, Z)

    def test_pair_site_eigenvalues(self):
        real = canonical_realization(asg(1, {1}))
        vals = np.linalg.eigvalsh(real.obs(1, 0))
        assert np.allclose(sorted(vals), [-1.0, 1.0])

    def test_inverts_substitute_at_every_mu(self):
        # the settings turn substitute(X) and substitute(Z) back into X, Z
        for mu in (0.3, 0.7, 1.2):
            pair = MeasurementAssignment(1, {1}, mu=mu)
            real = canonical_realization(pair)
            for sym, pauli in (("X", X), ("Z", Z)):
                word = PauliWord.from_factors(1, [(1, sym, 1)])
                h = materialize(substitute(word, pair), real)
                assert np.abs(h - pauli).max() <= 1e-12, (mu, sym)


class TestMaterialize:
    def test_chsh_matrix_max(self):
        h = materialize(chsh_polynomial(), canonical_realization(asg(2, {1})))
        assert np.abs(h - h.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(h)[-1] == pytest.approx(2 * SQRT2, abs=1e-9)

    def test_zero_polynomial(self):
        h = materialize(BellPolynomial(), canonical_realization(asg(2, set())))
        assert np.abs(h).max() == 0.0

    def test_linear(self, rng):
        real = random_realization(3, rng, dims=(2,))
        m1 = Monomial.from_dict({1: (A0,), 2: (A1,)})
        m2 = Monomial.from_dict({3: (A1,)})
        p = BellPolynomial({m1: 1.5})
        q = BellPolynomial({m2: -0.5})
        assert np.abs(materialize(p + q, real)
                      - materialize(p, real) - materialize(q, real)).max() <= 1e-12

    def test_dimension_guard(self):
        # refused before the dim x dim matrix is allocated
        for n in (14, 15, 64):
            big = canonical_realization(MeasurementAssignment(n, set()))
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="exceeds"):
                    materialize(BellPolynomial(), big)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


class TestMaxEig:
    def test_diag(self):
        rep = max_eig(np.diag([3.0, 1.0, 1.0]).astype(complex))
        assert rep.max_eigenvalue == pytest.approx(3.0)
        assert rep.multiplicity == 1
        assert rep.gap == pytest.approx(2.0)

    def test_i5_multiplicity_two(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        h = materialize(compiled.poly,
                        canonical_realization(compiled.assignment))
        rep = max_eig(h)
        assert rep.max_eigenvalue == pytest.approx(2 + 8 * SQRT2, abs=1e-8)
        assert rep.multiplicity == 2
        resid = h @ rep.eigenbasis - rep.max_eigenvalue * rep.eigenbasis
        assert np.abs(resid).max() <= 1e-9

    def test_tilted_multiplicity_one(self, five_qubit):
        cert = default_certificate(five_qubit, theta=math.pi / 8, alpha0=1.0)
        compiled = build_bell(cert, five_qubit)
        h = materialize(compiled.poly,
                        canonical_realization(compiled.assignment))
        assert max_eig(h).multiplicity == 1

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            max_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCodespace:
    def test_five_qubit_dimension(self, five_qubit):
        basis = codespace_basis(five_qubit)
        assert basis.shape == (32, 2)
        assert np.abs(basis.conj().T @ basis - np.eye(2)).max() <= 1e-10

    def test_shor_dimension(self, shor):
        assert codespace_basis(shor).shape == (512, 2)

    def test_repetition_code(self):
        from bellcert.pauli import load_code
        doc = {
            "name": "rep2", "n": 2, "k": 1, "q": 2,
            "generators": [{"x": [0, 0], "z": [1, 1], "phase": 0}],
            "logical_x": {"x": [1, 1], "z": [0, 0], "phase": 0},
            "logical_z": {"x": [0, 0], "z": [1, 0], "phase": 0},
            "pair_sites": [],
        }
        basis = codespace_basis(load_code(doc))
        assert basis.shape == (4, 2)
        # spanned by |00> and |11>
        weights = np.abs(basis)**2
        assert weights[1].sum() + weights[2].sum() <= 1e-20

    def test_qudit_codespace_dimensions(self):
        assert qudit_codespace(2).shape == (32, 2)
        assert qudit_codespace(3).shape == (243, 3)
        with pytest.raises(Exception):
            qudit_codespace(4)

    @pytest.mark.parametrize("q", [7, 11])
    def test_qudit_codespace_above_dense_cap_refused(self, q):
        with pytest.raises(SizeLimitError, match="exceeds dense cap 16384"):
            qudit_codespace(q)

    def test_qudit_q2_matches_five_qubit(self, five_qubit):
        b2 = qudit_codespace(2)
        assert principal_angle_sin(b2, codespace_basis(five_qubit)) <= 1e-9

    def test_logical_basis_conventions(self, five_qubit):
        from bellcert.pauli import apply_word
        v0, v1 = logical_basis(five_qubit)
        zb = five_qubit.logical_z
        assert np.abs(apply_word(zb, v0) - v0).max() <= 1e-10
        assert np.abs(apply_word(zb, v1) + v1).max() <= 1e-10
        first = v0[np.argmax(np.abs(v0) > 1e-8)]
        assert abs(first.imag) <= 1e-12 and first.real > 0


class TestSelftestChecks:
    def test_codespace_certification(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        report = check_selftest(compiled, five_qubit)
        assert report.passed
        assert report.multiplicity == 2
        assert report.subspace_distance <= 1e-8

    def test_tilted_certification_shor(self, shor):
        cert = default_certificate(shor, theta=math.pi / 8, alpha0=1.0)
        report = check_selftest(build_bell(cert, shor), shor)
        assert report.passed and report.fidelity >= 1 - 1e-8

    def test_theta_zero_top_state_is_logical_zero(self, steane):
        cert = default_certificate(steane, theta=0.0, alpha0=1.0)
        compiled = build_bell(cert, steane)
        h = materialize(compiled.poly,
                        canonical_realization(compiled.assignment))
        rep = max_eig(h)
        v0, _ = logical_basis(steane)
        assert abs(np.vdot(rep.eigenbasis[:, 0], v0))**2 >= 1 - 1e-8

    def test_tilt_sweep_rows(self, five_qubit):
        cert = default_certificate(five_qubit, alpha0=1.0)
        rows = tilt_sweep(cert, five_qubit, [math.pi / 12, math.pi / 6])
        assert len(rows) == 2
        for row in rows:
            assert row["fidelity"] >= 1 - 1e-8


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


def _word(v: int, n: int) -> PauliWord:
    """Phase-free word of the symplectic vector v = x | z << n."""
    return PauliWord(n, 2, tuple(v >> k & 1 for k in range(n)),
                     tuple(v >> (n + k) & 1 for k in range(n)))


def _transvected(draw, frame: list[int], n: int) -> list[int]:
    """frame moved by transvections u -> u + <u, v> v along drawn v with an
    odd number of Y sites."""
    for v in draw(st.lists(st.integers(1, 4**n - 1), max_size=12)):
        if _parity(v & v >> n):
            frame = [u ^ v if _parity((u & v >> n) ^ (v & u >> n)) else u
                     for u in frame]
    return frame


@st.composite
def _random_codes(draw):
    """A valid [[n, 1]] qubit code, n <= 6, its pair sites and weights.

    The standard frame (generators Z_2..Z_n, logicals X_1 and Z_1) is moved
    by transvections u -> u + <u, v> v along random v with an odd number of
    Y sites.  Each preserves the symplectic form and the parity of every
    word's Y count, so the result is a random symplectic basis whose words
    stay phase-free Hermitian involutions, as compiled certificates need.
    """
    n = draw(st.integers(2, 6))
    frame = _transvected(draw, [1 << (n + k) for k in range(1, n)]
                         + [1, 1 << n], n)
    code = StabilizerCode(
        "random", n, 1, 2, tuple(_word(u, n) for u in frame[:-2]),
        logical_x=_word(frame[-2], n), logical_z=_word(frame[-1], n),
        pair_sites=draw(st.frozensets(st.integers(1, n))))
    alphas = draw(st.lists(st.floats(0.25, 4.0), min_size=n - 1,
                           max_size=n - 1))
    return load_code(code.to_json()), alphas


CODE422 = load_code((Path(__file__).parent / "fixtures" / "code422.json")
                    .read_text())
STEANE2 = load_code((Path(__file__).parent / "fixtures" / "steane2.json")
                    .read_text())
_DENSE_NAMES = ("materialize", "max_eig", "codespace_basis", "logical_basis",
                "principal_angle_sin")


def _forbid_dense(monkeypatch):
    """Make every dense-route name in verify fail the test if called."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense route taken")
    for name in _DENSE_NAMES:
        monkeypatch.setattr(verify, name, refuse)


@st.composite
def _random_codes_not_k1(draw):
    """A valid [[n, k]] qubit code with k in {0, 2, 3}, k < n <= 8, and one
    weight per generator.

    As in ``_random_codes``, transvections move a standard frame: the
    generators Z_(k+1)..Z_n and the logicals X_1 and Z_1 (the identity for
    k = 0).
    """
    k = draw(st.sampled_from([0, 2, 3]))
    n = draw(st.integers(k + 1, 8))
    frame = _transvected(draw, [1 << (n + i) for i in range(k, n)]
                         + ([1, 1 << n] if k else []), n)
    logicals = frame[n - k:] or [0, 0]
    code = StabilizerCode(
        "random", n, k, 2, tuple(_word(u, n) for u in frame[:n - k]),
        logical_x=_word(logicals[0], n), logical_z=_word(logicals[1], n),
        pair_sites=draw(st.frozensets(st.integers(1, n))))
    alphas = draw(st.lists(st.floats(0.25, 4.0), min_size=n - k,
                           max_size=n - k))
    return load_code(code.to_json()), alphas


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_random_codes())
@example((CODE422, None))
@example((code_preset("five_qudit:3"), None))
@example((code_preset("five_qudit:5"), None))
def test_codespace_basis_has_q_k_columns_fixed_by_every_generator(case):
    # the q^k dimension that construction implies, with no dense probe
    code, _ = case
    basis = codespace_basis(code)
    assert basis.shape == (code.q**code.n, code.q**code.k)
    assert np.abs(basis.conj().T @ basis
                  - np.eye(basis.shape[1])).max() <= 1e-10
    for g in code.generators:
        assert np.abs(apply_word(g, basis) - basis).max() <= 1e-9


class TestSectorRoute:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(_random_codes(), st.integers(0, 2**12 - 1), st.integers(0, 6),
           st.integers(0, 3))
    def test_involution_check_matches_word_square(self, case, s_sites, row,
                                                  phase):
        # S gates on the s_sites bits (X -> Y) put Y letters into the rows;
        # every row gets a phase that squares it to I, then one row
        # gets the drawn phase, so the code passes the other checks and is
        # refused at construction exactly when that row's square is not I
        code, _ = case
        n = code.n
        rows = []
        for word in code.generators + (code.logical_x, code.logical_z):
            z = tuple(zk ^ (xk & s_sites >> k) for k, (xk, zk)
                      in enumerate(zip(word.x_exp, word.z_exp)))
            words = [PauliWord(n, 2, word.x_exp, z, p) for p in range(4)]
            rows.append(next(w for w in words if w.power(2).is_identity))
        row %= len(rows)
        rows[row] = replace(rows[row], phase=phase)

        def changed():
            return replace(code, generators=tuple(rows[:-2]),
                           logical_x=rows[-2], logical_z=rows[-1])

        if rows[row].power(2).is_identity:
            assert verify._normalizer_coords(changed(), []) == []
        else:
            with pytest.raises(CodeValidationError, match="= I exactly"):
                changed()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_random_codes(), st.floats(0.0, math.pi / 2))
    def test_matches_dense_route(self, case, theta):
        code, alphas = case
        for alpha0 in (0.0, 1.0):
            cert = default_certificate(code, theta=theta, alpha0=alpha0,
                                       alphas=alphas)
            compiled = build_bell(cert, code)
            real = canonical_realization(compiled.assignment)
            assert sector_spectrum(compiled.poly, compiled.assignment,
                                   code) is not None
            report = check_selftest(compiled, code)
            spec = max_eig(materialize(compiled.poly, real))
            assert report.multiplicity == spec.multiplicity
            assert report.max_eigenvalue == pytest.approx(
                spec.max_eigenvalue, abs=1e-10)
            assert report.gap == pytest.approx(spec.gap, abs=1e-10)
            if alpha0 == 0:
                dist = principal_angle_sin(spec.eigenbasis,
                                           codespace_basis(code))
                assert report.subspace_distance == pytest.approx(dist, abs=1e-10)
            else:
                v0, v1 = logical_basis(code)
                target = math.cos(theta) * v0 + math.sin(theta) * v1
                fid = abs(np.vdot(spec.eigenbasis[:, 0], target))**2
                assert report.fidelity == pytest.approx(fid, abs=1e-10)

    def test_top_eigenspace_in_another_sector(self, five_qubit):
        # with -S_1 as generator the certificate's +S_1 term favours the
        # sector orthogonal to the codespace
        s1 = five_qubit.generators[0]
        flipped = StabilizerCode(
            "flipped", 5, 1, 2,
            (PauliWord(5, 2, s1.x_exp, s1.z_exp, 2),)
            + five_qubit.generators[1:],
            five_qubit.logical_x, five_qubit.logical_z,
            five_qubit.pair_sites)
        for alpha0 in (0.0, 1.0):
            cert = default_certificate(five_qubit, theta=0.4, alpha0=alpha0)
            compiled = build_bell(cert, flipped)
            real = canonical_realization(compiled.assignment)
            assert sector_spectrum(compiled.poly, compiled.assignment,
                                   flipped) is not None
            report = check_selftest(compiled, flipped)
            spec = max_eig(materialize(compiled.poly, real))
            assert report.multiplicity == spec.multiplicity
            if alpha0 == 0:
                dist = principal_angle_sin(spec.eigenbasis,
                                           codespace_basis(flipped))
                assert report.subspace_distance == 1.0
                assert dist == pytest.approx(1.0, abs=1e-10)
            else:
                v0, v1 = logical_basis(flipped)
                target = math.cos(0.4) * v0 + math.sin(0.4) * v1
                assert report.fidelity == 0.0
                assert abs(np.vdot(spec.eigenbasis[:, 0], target)) <= 1e-10
            assert not report.passed

    @staticmethod
    def _with_z1(code, theta=0.0, alpha0=0.0):
        """code's certificate plus Z_1, which anticommutes with
        S_1 = X Z Z X I, so the polynomial leaves the normalizer and no
        sector block exists."""
        operators = default_certificate(code).operators
        cert = SOSCertificate(
            n=5, theta=theta, alpha0=alpha0, alphas=(1.0,) * 5,
            operators=operators + (PauliWord.from_factors(5, [(1, "Z", 1)]),),
            pair_sites=code.pair_sites, code_name="five_qubit")
        compiled = build_bell(cert, code)
        assert sector_spectrum(compiled.poly, compiled.assignment,
                               code) is None
        return compiled

    def test_anticommuting_operator_is_refused(self, five_qubit,
                                               monkeypatch):
        # <Z_1> = 0 on the codespace, so it cannot attain the bound; the
        # refusal names the operator and the generator, with no dense report
        _forbid_dense(monkeypatch)
        with pytest.raises(CertificateError, match="^operator Z1 anticommutes "
                           "with generator S_1 = X1 Z2 Z3 X4$"):
            check_selftest(self._with_z1(five_qubit), five_qubit)

    def test_anticommuting_operator_is_refused_when_tilted(self, five_qubit,
                                                           monkeypatch):
        _forbid_dense(monkeypatch)
        with pytest.raises(CertificateError, match="^operator Z1 anticommutes "
                           "with generator S_1 = X1 Z2 Z3 X4$"):
            check_selftest(self._with_z1(five_qubit, theta=0.4, alpha0=1.0),
                           five_qubit)

    @pytest.mark.parametrize("case, error, message", [
        ("qudit", CertificateError,
         "certificate on 5 qubits; code five_qudit:3 has n = 5, q = 3"),
        ("sites", CertificateError,
         "certificate on 5 qubits; code steane has n = 7, q = 2"),
        ("logical_word", CertificateError,
         "a certificate word lies outside the span of code code422's "
         "generators (and logicals, for k = 1)"),
        ("tilted_k2", InputError,
         "logical basis defined for k=1 codes, not k=2"),
    ], ids=["qudit", "sites", "logical_word", "tilted_k2"])
    def test_certificates_the_sectors_cannot_carry_are_refused(
            self, case, error, message, five_qubit, monkeypatch):
        if case in ("qudit", "sites"):
            compiled = build_bell(default_certificate(five_qubit), five_qubit)
            code = code_preset({"qudit": "five_qudit:3",
                                "sites": "steane"}[case])
        elif case == "logical_word":
            # Xbar commutes with both generators but is not their product
            cert = default_certificate(CODE422)
            cert = replace(cert, alphas=(1.0,) * 3, operators=(
                cert.operators + (CODE422.logical_x,)))
            compiled, code = build_bell(cert, CODE422), CODE422
        else:
            cert = default_certificate(CODE422, theta=0.3, alpha0=1.0)
            compiled, code = build_bell(cert, CODE422), CODE422
        _forbid_dense(monkeypatch)
        with pytest.raises(error) as info:
            check_selftest(compiled, code)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", [
        "five_qubit", "steane", "shor", "qrm15", "code422", "steane2"])
    def test_one_route_for_every_code(self, name, monkeypatch):
        code = {"qrm15": QRM15, "code422": CODE422,
                "steane2": STEANE2}.get(name) or code_preset(name)
        _forbid_dense(monkeypatch)
        for alpha0 in (0.0, 1.0) if code.k == 1 else (0.0,):
            cert = default_certificate(code, theta=0.3, alpha0=alpha0)
            report = check_selftest(build_bell(cert, code), code)
            assert report.passed, (name, alpha0)
            assert report.multiplicity == (1 if alpha0 else 2**code.k)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_random_codes_not_k1())
    @example((CODE422, None))
    def test_k_not_1_matches_dense_route(self, case):
        # each sector of a k != 1 code carries one value 2^k times
        code, alphas = case
        compiled = build_bell(default_certificate(code, alphas=alphas), code)
        report = check_selftest(compiled, code)
        spec = max_eig(materialize(compiled.poly,
                                   canonical_realization(compiled.assignment)))
        dist = principal_angle_sin(spec.eigenbasis, codespace_basis(code))
        assert report.multiplicity == spec.multiplicity
        assert report.max_eigenvalue == pytest.approx(spec.max_eigenvalue,
                                                      abs=1e-10)
        assert report.gap == pytest.approx(spec.gap, abs=1e-10)
        assert report.subspace_distance == pytest.approx(dist, abs=1e-10)
        assert report.passed == (
            abs(spec.max_eigenvalue - compiled.bound) <= verify.SELFTEST_TOL
            and spec.multiplicity == 2**code.k and dist <= verify.SELFTEST_TOL)

    @pytest.mark.parametrize("variant, refusal", [
        ("five_qudit:3", None),
        ("i_times_s1", "generator S_1 does not satisfy S\\^q = I"),
        ("commuting_logicals", "must anticommute"),
    ], ids=["five_qudit:3", "i_times_s1", "commuting_logicals"])
    def test_codes_outside_the_sector_form_return_none(self, five_qubit,
                                                       variant, refusal):
        # a qudit code has no syndrome sectors; a generator that squares to
        # -I and logicals that commute are refused when the code is built
        s1 = five_qubit.generators[0]
        build = {
            "five_qudit:3": lambda: code_preset("five_qudit:3"),
            "i_times_s1": lambda: replace(five_qubit, generators=(
                PauliWord(5, 2, s1.x_exp, s1.z_exp, 1),)
                + five_qubit.generators[1:]),
            "commuting_logicals": lambda: replace(
                five_qubit, logical_x=five_qubit.logical_z),
        }[variant]
        if refusal is not None:
            with pytest.raises(CodeValidationError, match=refusal):
                build()
            return
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        assert sector_spectrum(compiled.poly, compiled.assignment,
                               build()) is None


QRM15 = load_code((Path(__file__).parent / "fixtures" / "qrm15.json")
                  .read_text())
_QUBIT_PRESETS = {name: code_preset(name)
                  for name in ("five_qubit", "steane", "shor")}
_LOGICAL_BASES = {name: logical_basis(code)
                  for name, code in _QUBIT_PRESETS.items()}


@st.composite
def _codeword_cases(draw):
    """A qubit preset, a tilt, a pair-site angle, and single-letter
    monomials: the compiled polynomial's, which lie in the normalizer, and
    random ones, which mostly do not."""
    name = draw(st.sampled_from(sorted(_QUBIT_PRESETS)))
    code = _QUBIT_PRESETS[name]
    theta = draw(st.floats(0.0, math.pi / 2))
    mu = draw(st.floats(0.1, 1.4, exclude_min=True, exclude_max=True))
    compiled = build_bell(default_certificate(code, mu=mu), code)
    monos = [mono for mono, _ in compiled.poly.terms()
             if all(len(word) == 1 for _, word in mono.factors)]
    letters = st.dictionaries(st.integers(1, code.n), st.sampled_from([A0, A1]),
                              min_size=1)
    monos += [Monomial.from_dict({s: (x,) for s, x in d.items()})
              for d in draw(st.lists(letters, min_size=1, max_size=4))]
    return name, theta, compiled, monos


class TestCodewordExpectations:
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(_codeword_cases())
    def test_matches_dense_expectation(self, case):
        name, theta, compiled, monos = case
        code, a = _QUBIT_PRESETS[name], compiled.assignment
        v0, v1 = _LOGICAL_BASES[name]
        dense = Strategy(math.cos(theta) * v0 + math.sin(theta) * v1,
                         canonical_realization(a))
        exact = codeword_expectations(
            BellPolynomial({mono: 1.0 for mono in monos}), a, code, theta)
        for mono in monos:
            assert abs(exact[mono] - _expectation(dense, mono)) <= 1e-12
            if len(mono.factors) == 1:  # weight 1: outside the normalizer
                assert exact[mono] == 0.0
        # the untilted certificate is attained on every codeword
        whole = codeword_expectations(compiled.poly, a, code, theta)
        value = sum(c * whole[mono] for mono, c in compiled.poly.terms())
        assert value == pytest.approx(compiled.bound, abs=1e-9)

    def test_refuses_codes_outside_the_algebra(self, five_qubit):
        poly = build_bell(default_certificate(five_qubit), five_qubit).poly
        with pytest.raises(CodeValidationError, match="must anticommute"):
            replace(five_qubit, logical_x=five_qubit.logical_z)
        poly422 = build_bell(default_certificate(CODE422), CODE422).poly
        with pytest.raises(InputError, match="code code422 is not a k = 1"):
            codeword_expectations(poly422, MeasurementAssignment(4, set()),
                                  CODE422, 0.3)
        with pytest.raises(InputError, match="code five_qubit has n = 5"):
            codeword_expectations(poly, MeasurementAssignment(6, set()),
                                  five_qubit, 0.3)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_random_codes(), st.lists(st.integers(0, 4**6 - 1), max_size=8))
def test_span_phases_match_word_products(case, strays):
    # every product of a code's rows, generators then logicals, gets the
    # phase pauli.mul computes for it; any other key gets None
    code, _ = case
    n, rows = code.n, code.generators + (code.logical_x, code.logical_z)
    products = [reduce(mul, (r for i, r in enumerate(rows) if mix >> i & 1),
                       PauliWord.identity(n))
                for mix in range(1 << len(rows))]
    assert verify._span_phases(n, rows, map(verify._xz_masks, products)) == [
        (mix, w.phase) for mix, w in enumerate(products)]
    spanned = {verify._xz_masks(w) for w in products}
    keys = [(v % 2**n, v % 4**n >> n) for v in strays]
    assert [span is None for span in verify._span_phases(n, rows, keys)] == [
        key not in spanned for key in keys]


def _dense_model_check(result, code) -> bool:
    """The dense reference: apply every fact's word to a codespace basis,
    and compare Z X with (-1)^e X Z there at every pair_comm site."""
    basis = codespace_basis(code)

    def act(factors):
        return apply_word(PauliWord.from_factors(code.n, factors), basis)

    for fact in result.facts:
        factors = [(site, *run) for site, runs in fact.word for run in runs]
        if np.abs(act(factors) - (-1.0)**fact.phase * basis).max() > 1e-9:
            return False
    return all(np.abs(act([(site, "Z", 1), (site, "X", 1)]) - (-1.0)**e
                      * act([(site, "X", 1), (site, "Z", 1)])).max() <= 1e-9
               for site, e in result.pair_comm.items())


def _model_check(result, code) -> bool:
    try:
        return model_check_deduction(result, code) == 0.0
    except AssertionError:
        return False


def _fact(idx, word, phase):
    """The fact X^x Z^z psi = (-1)^phase psi for a qubit word's masks."""
    runs = {}
    for site, sym, power in word.factors():
        runs.setdefault(site, []).append((sym, power))
    return Fact(idx, tuple((site, tuple(r)) for site, r in runs.items()),
                phase, "drawn")


def _result(facts, pair_comm=None):
    return DeduceResult("unknown", Transcript(), facts, pair_comm or {}, 0)


def _shor25():
    """The Shor-family [[25, 1, 5]] code: Z Z on neighbours inside each of
    five blocks of five qubits, X on each two adjacent blocks."""
    def word(xs=(), zs=()):
        return PauliWord(25, 2, [int(k in xs) for k in range(25)],
                         [int(k in zs) for k in range(25)])

    gens = [word(zs=(5 * b + i, 5 * b + i + 1))
            for b in range(5) for i in range(4)]
    gens += [word(xs=range(5 * b, 5 * b + 10)) for b in range(4)]
    return StabilizerCode("shor25", 25, 1, 2, tuple(gens), word(xs=range(25)),
                          word(zs=range(25)), pair_sites={1})


@st.composite
def _model_check_cases(draw):
    """A qubit code and a result whose facts are generator products with
    the sign they have on the codespace or the flipped one, or random Pauli
    words, and whose commutation exponents are random."""
    code = draw(st.sampled_from([*_QUBIT_PRESETS.values(), CODE422])
                | _random_codes().map(lambda case: case[0]))
    n, gens = code.n, code.generators
    facts = []
    for idx in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)):
            a = draw(st.integers(0, 2**len(gens) - 1))
            word = reduce(mul, (g for i, g in enumerate(gens) if a >> i & 1),
                          PauliWord.identity(n))
            # i^p X^x Z^z is 1 on the codespace, so X^x Z^z = (-1)^(p/2)
            # there when p is even (and no sign holds when it is odd)
            phase = word.phase // 2 ^ draw(st.integers(0, 1))
        else:
            word = _word(draw(st.integers(0, 4**n - 1)), n)
            phase = draw(st.integers(0, 1))
        facts.append(_fact(idx, word, phase))
    pair_comm = draw(st.dictionaries(st.integers(1, n), st.integers(0, 3),
                                     max_size=1))
    return code, _result(facts, pair_comm)


class TestModelCheck:
    def test_five_qubit_subsets_agree_with_dense(self, five_qubit):
        for size in range(6):
            for subset in itertools.combinations(range(1, 6), size):
                res = deduce(problem_for_code(five_qubit, pair_sites=subset))
                assert _model_check(res, five_qubit), subset
                assert _dense_model_check(res, five_qubit), subset

    @pytest.mark.parametrize("name", ["steane", "shor"])
    def test_default_runs_agree_with_dense(self, name):
        code = _QUBIT_PRESETS[name]
        res = deduce(problem_for_code(code))
        assert model_check_deduction(res, code) == 0.0
        assert _dense_model_check(res, code)

    def test_flipped_phase_fails(self, steane):
        res = deduce(problem_for_code(steane))
        res.facts[7].phase ^= 1
        assert not _dense_model_check(res, steane)
        with pytest.raises(AssertionError, match=r"^derived fact 7 \("):
            model_check_deduction(res, steane)

    @pytest.mark.parametrize("word", ["logical_x", "Z1"])
    def test_logical_and_anticommuting_words_fail(self, five_qubit, word):
        # Xbar commutes with every generator but is not a scalar on the
        # codespace; Z1 anticommutes with the generator XZZXI
        w = (five_qubit.logical_x if word == "logical_x"
             else PauliWord.from_factors(5, [(1, "Z", 1)]))
        for phase in (0, 1):
            res = _result([_fact(0, five_qubit.generators[0], 0),
                           _fact(1, w, phase)])
            assert not _dense_model_check(res, five_qubit)
            with pytest.raises(AssertionError, match="^derived fact 1 "):
                model_check_deduction(res, five_qubit)

    @pytest.mark.parametrize("exponent", [0, 2])
    def test_even_commutation_exponent_fails(self, five_qubit, exponent):
        res = _result([], {1: 1, 3: exponent})
        assert not _dense_model_check(res, five_qubit)
        with pytest.raises(AssertionError,
                           match=f"^site 3 commutation exponent {exponent} "):
            model_check_deduction(res, five_qubit)

    @pytest.mark.parametrize("code", [QRM15, _shor25(), CODE422],
                             ids=["qrm15", "shor25", "code422"])
    def test_checks_codes_beyond_the_dense_cap_and_k_not_1(self, code):
        res = deduce(problem_for_code(code))
        assert res.facts
        assert model_check_deduction(res, code) == 0.0
        res.facts[-1].phase ^= 1
        with pytest.raises(AssertionError):
            model_check_deduction(res, code)
        if code.n > 14:  # the dense reference cannot hold this codespace
            with pytest.raises(SizeLimitError):
                codespace_basis(code)

    def test_qudit_codes_refused(self):
        res = deduce(problem_for_code(code_preset("five_qudit:3")))
        with pytest.raises(ValueError, match="defined for qubit codes"):
            model_check_deduction(res, code_preset("five_qudit:3"))

    def test_builds_no_dense_state(self, monkeypatch, steane):
        results = [(deduce(problem_for_code(code)), code)
                   for code in (steane, QRM15)]

        def refuse(*args):
            raise AssertionError("dense work in the model check")

        for module in (verify, pauli):
            for name in ("codespace_basis", "apply_word"):
                monkeypatch.setattr(module, name, refuse)
        for res, code in results:
            assert model_check_deduction(res, code) == 0.0
        res = _result([_fact(0, steane.logical_z, 0)])
        with pytest.raises(AssertionError, match="^derived fact 0 "):
            model_check_deduction(res, steane)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(_model_check_cases())
    def test_random_results_agree_with_dense(self, case):
        code, res = case
        assert _model_check(res, code) == _dense_model_check(res, code)


def _dict_pauli_sum(poly, a):
    """The Pauli sum as one dict comprehension per site, the reference for
    ``verify._pauli_sum``'s term lists."""
    site_words = {}
    total = {}
    for mono, coeff in poly.terms():
        acc = {(0, 0): complex(coeff)}
        for site, word in mono.factors:
            if (site, word) not in site_words:
                settings_ = verify._setting_paulis(a, site)
                local = {(0, 0): 1.0}
                for letter in word:
                    nxt = {}
                    for (x, z), c in local.items():
                        for lx, lz, lc in settings_[letter]:
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


@pytest.mark.parametrize("code", [*_QUBIT_PRESETS.values(), QRM15],
                         ids=[*_QUBIT_PRESETS, "qrm15"])
@pytest.mark.parametrize("tilt", [{}, {"theta": 0.3, "alpha0": 1.0, "mu": 0.7}],
                         ids=["untilted", "tilted"])
def test_pauli_sum_bit_identical_to_dict_version(code, tilt):
    compiled = build_bell(default_certificate(code, **tilt), code)
    got = verify._pauli_sum(compiled.poly, compiled.assignment)
    want = _dict_pauli_sum(compiled.poly, compiled.assignment)
    assert repr(list(got.items())) == repr(list(want.items()))


def _brute_classical(poly):
    """Max over every +-1 assignment to the 2n settings, term by term."""
    return max(
        sum(c * math.prod(signs[2 * (site - 1) + x]
                          for site, word in mono.factors for x in word)
            for mono, c in poly.terms())
        for signs in itertools.product((1, -1), repeat=2 * poly.max_site()))


class TestClassicalBound:
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_matches_brute_force(self, data, n):
        # words up to three letters, e.g. (A0, A1, A0); an empty site map is
        # a constant term
        words = st.lists(st.sampled_from((A0, A1)), min_size=1, max_size=3)
        terms = data.draw(st.lists(st.tuples(
            st.dictionaries(st.integers(1, n), words, max_size=n),
            st.floats(0.01, 3.0), st.sampled_from((1, -1))), max_size=12))
        poly = BellPolynomial({Monomial.from_dict(sites): sign * c
                               for sites, c, sign in terms})
        bound = classical_bound(poly)
        assert bound == pytest.approx(_brute_classical(poly), abs=1e-9)
        for s in (1e-9, 1e6):
            assert classical_bound(poly.scale(s)) == pytest.approx(
                s * bound, rel=1e-9, abs=s * 1e-9)

    def test_chsh_exact(self):
        assert classical_bound(chsh_polynomial()) == 2.0

    def test_single_term(self):
        poly = BellPolynomial({Monomial.from_dict({1: (A0,)}): 2.0})
        assert classical_bound(poly) == 2.0

    def test_five_qubit_strict_violation(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        classical = classical_bound(compiled.poly)
        assert classical < compiled.bound - 0.1

    def test_no_site_cap(self):
        # one term at site 11 spans rank 1, however many sites precede it
        poly = BellPolynomial({Monomial.from_dict({11: (A0,)}): 1.0})
        assert classical_bound(poly) == 1.0

    def test_size_guard(self):
        poly = BellPolynomial({Monomial.from_dict({site: (A0,)}): 1.0
                               for site in range(1, 26)})
        with pytest.raises(SizeLimitError, match="rank-25"):
            classical_bound(poly)

    def test_word_parity_evaluation(self):
        # A0 A1 A0 at one site evaluates to a1, so the bound is 1
        poly = BellPolynomial({Monomial.from_dict({1: (A0, A1, A0)}): 1.0})
        assert classical_bound(poly) == 1.0


class TestCanonicalizePair:
    def test_exact_paulis(self):
        u, res = canonicalize_pair(X.copy(), Z.copy())
        assert res["x"] <= 1e-12 and res["z"] <= 1e-12

    def test_conjugated_pair_recovered(self, rng):
        for d in (4, 8):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            u, _ = np.linalg.qr(g)
            xb = u @ np.kron(X, np.eye(d // 2)) @ u.conj().T
            zb = u @ np.kron(Z, np.eye(d // 2)) @ u.conj().T
            _, res = canonicalize_pair(xb, zb)
            assert res["x"] <= 1e-7 and res["z"] <= 1e-7

    def test_commuting_pair_rejected(self):
        with pytest.raises(ValueError, match="anticommutator"):
            canonicalize_pair(Z.copy(), Z.copy())

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            canonicalize_pair(np.eye(3), np.eye(3))


class TestRandomRealizationEnvelope:
    def test_expectations_below_bound(self, five_qubit, rng):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        for _ in range(100):
            real = random_realization(5, rng, dims=(2, 4))
            h = materialize(compiled.poly, real)
            dim = real.total_dim()
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            assert np.vdot(psi, h @ psi).real <= compiled.bound + 1e-8
