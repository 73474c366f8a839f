import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellcert.compile import (CertificateError, SOSCertificate, build_bell,
                              build_tilted, chsh_certificate, chsh_polynomial,
                              default_certificate, emit, parse, substitute,
                              verify_sos)
from bellcert.pauli import PauliWord, code_preset, load_code
from bellcert.poly import A0, A1, BellPolynomial, MeasurementAssignment, Monomial
from bellcert.verify import materialize

from realizations import random_realization

SQRT2 = math.sqrt(2)


def asg_for(n, pairs, mu=math.pi / 4):
    return MeasurementAssignment(n, pairs, mu)


def word(n, *letters):
    return PauliWord.from_factors(n, [(site, sym, 1) for site, sym in letters])


class TestSubstitute:
    def test_direct_site(self):
        poly = substitute(word(2, (2, "Z")), asg_for(2, set()))
        assert poly.coeff(Monomial.from_dict({2: (A1,)})) == pytest.approx(1.0)
        assert len(poly) == 1

    def test_pair_site_x(self):
        poly = substitute(word(1, (1, "X")), asg_for(1, {1}))
        c = 1 / SQRT2
        assert poly.coeff(Monomial.from_dict({1: (A0,)})) == pytest.approx(c)
        assert poly.coeff(Monomial.from_dict({1: (A1,)})) == pytest.approx(c)

    def test_pair_site_xz_product(self):
        # (A0+A1)(A0-A1)/2 reduces to (A1 A0 - A0 A1)/2
        poly = substitute(word(1, (1, "X"), (1, "Z")), asg_for(1, {1}))
        assert poly.coeff(Monomial.from_dict({1: (A1, A0)})) == pytest.approx(0.5)
        assert poly.coeff(Monomial.from_dict({1: (A0, A1)})) == pytest.approx(-0.5)
        assert len(poly) == 2

    def test_pair_site_xz_materializes_to_xz(self):
        # cross-check the sign convention against the canonical matrices
        from bellcert.verify import canonical_realization, materialize
        poly = substitute(word(1, (1, "X"), (1, "Z")), asg_for(1, {1}))
        h = materialize(poly, canonical_realization(asg_for(1, {1})))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(h, x @ z, atol=1e-12)

    def test_multiplicative(self, rng, five_qubit):
        asg = asg_for(5, {1})
        w1 = word(5, (1, "X"), (2, "Z"))
        w2 = word(5, (1, "Z"), (3, "X"))
        combined = substitute(w1 * w2, asg)
        assert combined.allclose(substitute(w1, asg) * substitute(w2, asg), 1e-12)

    def test_out_of_range_site(self):
        with pytest.raises(ValueError):
            substitute(word(3, (3, "X")), asg_for(2, set()))


def _chained_substitute(pauli_word, asg):
    """substitute as the chained product of one- and two-term factor
    polynomials, each product a loop over Monomial.__mul__ pruned after
    every factor."""
    out = {Monomial.identity(): 1.0}
    for site, sym, _ in pauli_word.factors():
        if site not in asg.pair_sites:
            factor = {Monomial.single(site, A0 if sym == "X" else A1): 1.0}
        elif sym == "X":
            c = 1.0 / (2.0 * math.cos(asg.mu))
            factor = {Monomial.single(site, A0): c, Monomial.single(site, A1): c}
        else:
            c = 1.0 / (2.0 * math.sin(asg.mu))
            factor = {Monomial.single(site, A0): c, Monomial.single(site, A1): -c}
        acc = {}
        for m1, c1 in out.items():
            for m2, c2 in factor.items():
                mono = m1 * m2
                acc[mono] = acc.get(mono, 0.0) + c1 * c2
        out = {m: c for m, c in acc.items() if abs(c) > 1e-12}
    return out


@pytest.mark.parametrize("mu", [math.pi / 4, 0.7])
@pytest.mark.parametrize("name", ["five_qubit", "steane", "shor"])
def test_substitute_matches_chained_product(name, mu):
    code = code_preset(name)
    n = code.n
    words = [*code.generators, code.logical_x, code.logical_z,
             word(n, (1, "X"), (1, "Z")),
             word(n, (1, "X"), (2, "Z"), (n, "X"), (n, "Z"))]
    for pairs in (code.pair_sites, {1}, set(), set(range(1, n + 1))):
        asg = asg_for(n, pairs, mu)
        for pauli_word in words:
            out = substitute(pauli_word, asg)
            reference = _chained_substitute(pauli_word, asg)
            assert list(out.coeffs.items()) == list(reference.items())


class TestBuildTilted:
    def test_theta_zero_is_logical_z(self, five_qubit):
        asg = asg_for(5, {1})
        tilted = build_tilted(0.0, five_qubit, asg)
        zbar = substitute(five_qubit.logical_z, asg)
        assert tilted.allclose(zbar, 1e-12)

    def test_theta_quarter_pi_is_logical_x(self, five_qubit):
        asg = asg_for(5, {1})
        tilted = build_tilted(math.pi / 4, five_qubit, asg)
        xbar = substitute(five_qubit.logical_x, asg)
        assert tilted.allclose(xbar, 1e-12)

    def test_term_count_at_intermediate_angle(self, five_qubit):
        tilted = build_tilted(math.pi / 8, five_qubit, asg_for(5, {1}))
        assert len(tilted) == 4  # each logical splits over the pair site

    def test_angle_range_enforced(self, five_qubit):
        with pytest.raises(CertificateError):
            build_tilted(0.9 * math.pi, five_qubit, asg_for(5, {1}))


GOLDEN_I5 = {
    Monomial.from_dict({1: (A0,), 2: (A1,), 3: (A1,), 4: (A0,)}): 2.0,
    Monomial.from_dict({1: (A1,), 2: (A1,), 3: (A1,), 4: (A0,)}): 2.0,
    Monomial.from_dict({2: (A0,), 3: (A1,), 4: (A1,), 5: (A0,)}): 2.0,
    Monomial.from_dict({1: (A0,), 3: (A0,), 4: (A1,), 5: (A1,)}): 2.0,
    Monomial.from_dict({1: (A1,), 3: (A0,), 4: (A1,), 5: (A1,)}): 2.0,
    Monomial.from_dict({1: (A0,), 2: (A0,), 4: (A0,), 5: (A1,)}): 4.0,
    Monomial.from_dict({1: (A1,), 2: (A0,), 4: (A0,), 5: (A1,)}): -4.0,
}


class TestBuildBell:
    def test_five_qubit_golden_polynomial(self, five_qubit):
        cert = default_certificate(five_qubit)
        compiled = build_bell(cert, five_qubit)
        assert compiled.reduced_form
        assert compiled.bound == pytest.approx(2 + 8 * SQRT2, abs=1e-12)
        golden = BellPolynomial(GOLDEN_I5)
        assert compiled.poly.allclose(golden, 1e-12)

    def test_steane_unit_weights_general_form(self, steane):
        cert = default_certificate(steane)
        compiled = build_bell(cert, steane)
        assert not compiled.reduced_form
        assert compiled.bound == pytest.approx(8.0)

    def test_single_direct_operator_reduced(self):
        cert = SOSCertificate(n=2, theta=0.0, alpha0=0.0, alphas=(1.0,),
                              operators=(word(2, (1, "X"), (2, "Z")),),
                              pair_sites=frozenset())
        compiled = build_bell(cert)
        # all-direct operators square to 1 identically, so the reduced
        # form 2 S applies with bound alpha0 + 2 sum(alpha)
        assert compiled.reduced_form
        assert compiled.bound == pytest.approx(2.0)
        assert compiled.poly.coeff(
            Monomial.from_dict({1: (A0,), 2: (A1,)})) == pytest.approx(2.0)

    def test_rejects_nonpositive_alpha(self, five_qubit):
        with pytest.raises(CertificateError):
            default_certificate(five_qubit, alphas=(1.0, 0.0, 1.0, 1.0))

    def test_rejects_theta_out_of_range(self, five_qubit):
        with pytest.raises(CertificateError):
            default_certificate(five_qubit, theta=0.9 * math.pi)


class TestCancellation:
    def test_paper_weights_cancel(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        assert compiled.reduced_form and compiled.cancellation.is_zero(1e-12)

    def test_unit_weights_leave_anticommutator(self, five_qubit):
        cert = default_certificate(five_qubit, alphas=(1, 1, 1, 1))
        compiled = build_bell(cert, five_qubit)
        residual = compiled.cancellation
        assert not compiled.reduced_form
        # residual is proportional to {A0^1, A1^1}
        assert residual.coeff(
            Monomial.from_dict({1: (A0, A1)})) == pytest.approx(0.5)
        assert residual.coeff(
            Monomial.from_dict({1: (A1, A0)})) == pytest.approx(0.5)

    def test_all_direct_always_cancels(self):
        cert = SOSCertificate(n=3, theta=0.0, alpha0=0.0, alphas=(2.0, 3.0),
                              operators=(word(3, (1, "X"), (2, "X")),
                                         word(3, (2, "Z"), (3, "Z"))),
                              pair_sites=frozenset())
        assert build_bell(cert).reduced_form


class TestVerifySOS:
    def test_chsh_fixture(self):
        cert = chsh_certificate()
        compiled = build_bell(cert)
        ok, residual = verify_sos(compiled)
        assert ok and residual.max_abs_coeff() <= 1e-12
        assert compiled.poly.allclose(chsh_polynomial().scale(SQRT2), 1e-12)

    def test_five_qubit_paper_certificate(self, five_qubit):
        cert = default_certificate(five_qubit)
        ok, residual = verify_sos(build_bell(cert, five_qubit))
        assert ok and residual.max_abs_coeff() <= 1e-10

    def test_shor_with_ninth_operator(self, shor):
        cert = default_certificate(shor)
        assert len(cert.operators) == 9
        compiled = build_bell(cert, shor)
        ok, residual = verify_sos(compiled)
        assert ok
        assert compiled.bound == pytest.approx(9.0)

    def test_tilted_certificates(self, five_qubit, steane):
        for code in (five_qubit, steane):
            cert = default_certificate(code, theta=math.pi / 8, alpha0=1.0)
            ok, residual = verify_sos(build_bell(cert, code))
            assert ok, residual.max_abs_coeff()

    def test_tampered_coefficient_fails(self, five_qubit):
        cert = default_certificate(five_qubit)
        compiled = build_bell(cert, five_qubit)
        tampered = compiled.poly + BellPolynomial(
            {Monomial.from_dict({1: (A0,)}): 0.01})
        bad = dataclasses.replace(compiled, poly=tampered)
        ok, residual = verify_sos(bad)
        assert not ok and residual.max_abs_coeff() > 1e-6

    @pytest.mark.parametrize("name", ["five_qubit", "steane", "shor"])
    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
    def test_verdicts_ignore_weight_scale(self, name, scale, request):
        # the SOS identity is linear in the weights, so scaling all of them
        # must keep both the identity and the choice of form
        code = request.getfixturevalue(name)
        base = default_certificate(code, theta=0.3, alpha0=1.0)
        cert = dataclasses.replace(
            base, alpha0=scale, alphas=tuple(scale * a for a in base.alphas))
        compiled = build_bell(cert, code)
        ok, residual = verify_sos(compiled)
        assert ok, residual.max_abs_coeff()
        assert compiled.reduced_form == build_bell(base, code).reduced_form


class TestRealizationSoundness:
    def test_sos_bound_holds_for_random_observables(self, five_qubit, rng):
        cert = default_certificate(five_qubit, theta=math.pi / 6, alpha0=1.0)
        compiled = build_bell(cert, five_qubit)
        for _ in range(20):
            real = random_realization(5, rng, dims=(2, 4))
            h = materialize(compiled.poly, real)
            top = np.linalg.eigvalsh(h)[-1]
            assert top <= compiled.bound + 1e-9

    def test_identity_materializes_for_random_observables(self, five_qubit, rng):
        # bound - I' - SOS terms is the zero polynomial; its materialization
        # must vanish for arbitrary +-1 observables
        cert = default_certificate(five_qubit)
        compiled = build_bell(cert, five_qubit)
        ok, residual = verify_sos(compiled)
        assert ok
        real = random_realization(5, rng, dims=(2,))
        assert np.abs(materialize(residual, real)).max() <= 1e-9


class TestEmit:
    def test_grouped_human_layout_for_five_qubit(self, five_qubit):
        compiled = build_bell(default_certificate(five_qubit), five_qubit)
        text = emit(compiled.poly, "human")
        lines = text.splitlines()
        assert len(lines) == 4
        assert any("(A0^1 + A1^1)" in line for line in lines)
        assert any("(A0^1 - A1^1)" in line for line in lines)

    def test_empty_polynomial(self):
        assert emit(BellPolynomial(), "human") == "0"

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_json_roundtrip_random(self, data, n):
        words = st.lists(st.sampled_from((A0, A1)), min_size=1, max_size=3)
        terms = data.draw(st.lists(st.tuples(
            st.dictionaries(st.integers(1, n), words, max_size=n),
            st.floats(-1e6, 1e6, allow_nan=False)), max_size=10))
        poly = BellPolynomial.zero()
        for site_words, coeff in terms:
            poly = poly + BellPolynomial.monomial(
                Monomial.from_dict(site_words), coeff)
        poly.meta.update({
            "n": n,
            "pair_sites": sorted(data.draw(st.sets(st.integers(1, n)))),
            "mu": data.draw(st.floats(0.0, math.pi / 2, exclude_min=True,
                                      exclude_max=True)),
        })
        again = parse(emit(poly, "json"))
        assert again.coeffs == poly.coeffs
        assert again.meta == poly.meta

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit(BellPolynomial(), "yaml")


# SHA-256 of emit(poly, "json"), the cancellation terms and the verify_sos
# residual terms of these certificates, as the dict-and-reduce monomial
# product compiled them.
GOLDEN_COMPILE_DIGEST = (
    "de57c31aa8d857663268ea201fcf388551d89ff1a4ec66216839588d3a8ee526")


def test_golden_compile_digest():
    certs = []
    for name in ("five_qubit", "steane", "shor"):
        code = code_preset(name)
        certs += [(default_certificate(code), code),
                  (default_certificate(code, theta=0.3, alpha0=1.0), code),
                  (default_certificate(code, theta=0.9, alpha0=2.0, mu=0.7), code),
                  (default_certificate(code, extras=False), code)]
    certs.append((chsh_certificate(), None))
    qrm15 = load_code((Path(__file__).parent / "fixtures" / "qrm15.json").read_text())
    certs.append((default_certificate(qrm15, theta=0.3, alpha0=1.0), qrm15))
    digest = hashlib.sha256()
    for cert, code in certs:
        compiled = build_bell(cert, code)
        _, residual = verify_sos(compiled)
        digest.update(emit(compiled.poly, "json").encode())
        for poly in (compiled.cancellation, residual):
            digest.update(repr([(m.factors, c) for m, c in poly.terms()]).encode())
    assert digest.hexdigest() == GOLDEN_COMPILE_DIGEST
