import math
import tracemalloc

import numpy as np
import pytest

from bellcert.compile import (build_bell, chsh_certificate, chsh_polynomial,
                              default_certificate)
from bellcert.pauli import code_preset
from bellcert.poly import A0, A1, BellPolynomial, MeasurementAssignment, Monomial
from bellcert.verify import (Realization, RealizationError,
                             canonical_realization, canonicalize_pair,
                             check_selftest, classical_bound, codespace_basis,
                             logical_basis, materialize, max_eig,
                             principal_angle_sin, qudit_codespace,
                             random_realization, tilt_sweep)

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
