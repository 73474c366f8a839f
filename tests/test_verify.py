import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellcert import verify
from bellcert.compile import (SOSCertificate, build_bell, chsh_certificate,
                              chsh_polynomial, default_certificate,
                              default_operators)
from bellcert.pauli import PauliWord, StabilizerCode, code_preset, load_code
from bellcert.poly import A0, A1, BellPolynomial, MeasurementAssignment, Monomial
from bellcert.verify import (Realization, RealizationError,
                             canonical_realization, canonicalize_pair,
                             check_selftest, classical_bound, codespace_basis,
                             logical_basis, materialize, max_eig,
                             principal_angle_sin, qudit_codespace,
                             random_realization, sector_spectrum, tilt_sweep)

SQRT2 = math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def asg(n, pairs):
    return MeasurementAssignment.build(n, pairs)


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

    def test_other_mu_rejected(self):
        bad = MeasurementAssignment.build(1, {1}, mu=math.pi / 3)
        with pytest.raises(RealizationError):
            canonical_realization(bad)


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
            big = canonical_realization(MeasurementAssignment.build(n, set()))
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
        report = check_selftest(default_certificate(five_qubit), five_qubit)
        assert report.passed
        assert report.multiplicity == 2
        assert report.subspace_distance <= 1e-8

    def test_tilted_certification_shor(self, shor):
        cert = default_certificate(shor, theta=math.pi / 8, alpha0=1.0)
        report = check_selftest(cert, shor)
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
        rows = tilt_sweep(five_qubit, [math.pi / 12, math.pi / 6])
        assert len(rows) == 2
        for row in rows:
            assert row["fidelity"] >= 1 - 1e-8


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


def _word(v: int, n: int) -> PauliWord:
    """Phase-free word of the symplectic vector v = x | z << n."""
    return PauliWord(n, 2, tuple(v >> k & 1 for k in range(n)),
                     tuple(v >> (n + k) & 1 for k in range(n)))


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
    frame = [1 << (n + k) for k in range(1, n)] + [1, 1 << n]
    for v in draw(st.lists(st.integers(1, 4**n - 1), max_size=12)):
        if _parity(v & v >> n):
            frame = [u ^ v if _parity((u & v >> n) ^ (v & u >> n)) else u
                     for u in frame]
    code = StabilizerCode(
        "random", n, 1, 2, tuple(_word(u, n) for u in frame[:-2]),
        logical_x=_word(frame[-2], n), logical_z=_word(frame[-1], n),
        pair_sites=draw(st.frozensets(st.integers(1, n))))
    alphas = draw(st.lists(st.floats(0.25, 4.0), min_size=n - 1,
                           max_size=n - 1))
    return load_code(code.to_json()), alphas


class TestSectorRoute:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_random_codes(), st.floats(0.0, math.pi / 2))
    def test_matches_dense_route(self, case, theta):
        code, alphas = case
        for alpha0 in (0.0, 1.0):
            cert = default_certificate(code, theta=theta, alpha0=alpha0,
                                       alphas=alphas)
            compiled = build_bell(cert, code)
            real = canonical_realization(compiled.assignment)
            assert sector_spectrum(compiled.poly, real, code) is not None
            report = check_selftest(cert, code, compiled=compiled)
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
            assert sector_spectrum(compiled.poly, real, flipped) is not None
            report = check_selftest(cert, flipped, compiled=compiled)
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

    def test_anticommuting_operator_takes_dense_route(self, five_qubit,
                                                      monkeypatch):
        # Z_1 anticommutes with S_1 = X Z Z X I, so the polynomial leaves the
        # normalizer and no sector block exists
        operators, _ = default_operators(five_qubit)
        cert = SOSCertificate(
            n=5, theta=0.0, alpha0=0.0, alphas=(1.0,) * 5,
            operators=operators + (((1, "Z"),),),
            pair_sites=five_qubit.pair_sites, code_name="five_qubit")
        compiled = build_bell(cert, five_qubit)
        real = canonical_realization(compiled.assignment)
        assert sector_spectrum(compiled.poly, real, five_qubit) is None
        calls = []
        monkeypatch.setattr(verify, "materialize",
                            lambda *a: calls.append(1) or materialize(*a))
        report = check_selftest(cert, five_qubit, compiled=compiled)
        assert calls == [1]
        spec = max_eig(materialize(compiled.poly, real))
        dist = principal_angle_sin(spec.eigenbasis, codespace_basis(five_qubit))
        assert (report.max_eigenvalue, report.multiplicity, report.gap,
                report.subspace_distance) == (spec.max_eigenvalue,
                                              spec.multiplicity, spec.gap,
                                              dist)
        assert not report.passed


class TestClassicalBound:
    def test_chsh_exact(self):
        assert classical_bound(chsh_polynomial()) == 2.0

    def test_single_term(self):
        poly = BellPolynomial({Monomial.from_dict({1: (A0,)}): 2.0})
        assert classical_bound(poly) == 2.0

    def test_five_qubit_strict_violation(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        classical = classical_bound(compiled.poly)
        assert classical < compiled.bound - 0.1

    def test_size_guard(self):
        poly = BellPolynomial({Monomial.from_dict({11: (A0,)}): 1.0})
        with pytest.raises(ValueError):
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
