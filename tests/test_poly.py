import math

import pytest

from bellcert.poly import (A0, A1, BellPolynomial, MeasurementAssignment,
                           Monomial)


def test_site_word_reduction():
    m = Monomial.from_dict({1: (A0, A0)})
    assert m.is_identity
    m = Monomial.from_dict({1: (A0, A1, A1, A0)})
    assert m.is_identity
    m = Monomial.from_dict({1: (A0, A1, A0)})
    assert m.word_at(1) == (A0, A1, A0)


def test_monomial_product_commutes_across_sites():
    a = Monomial.from_dict({2: (A0,)})
    b = Monomial.from_dict({1: (A1,)})
    assert (a * b) == Monomial.from_dict({1: (A1,), 2: (A0,)})


def test_monomial_product_reduces_within_site():
    a = Monomial.from_dict({1: (A0,)})
    assert (a * a).is_identity
    b = Monomial.from_dict({1: (A1,)})
    ab = a * b
    assert ab.word_at(1) == (A0, A1)
    assert (ab * ab).word_at(1) == (A0, A1, A0, A1)


def test_polynomial_arithmetic_drops_zeros():
    m = Monomial.from_dict({1: (A0,)})
    p = BellPolynomial({m: 1.0})
    q = BellPolynomial({m: -1.0})
    assert len(p + q) == 0
    assert (p + q).is_zero()


def test_polynomial_product_distributes():
    m1 = Monomial.from_dict({1: (A0,)})
    m2 = Monomial.from_dict({2: (A1,)})
    p = BellPolynomial({m1: 2.0, m2: 3.0})
    sq = p * p
    # (2a + 3b)^2 with a^2 = b^2 = 1 and [a, b] = 0: 13 + 12 ab
    assert sq.coeff(Monomial.identity()) == pytest.approx(13.0)
    assert sq.coeff(m1 * m2) == pytest.approx(12.0)
    assert len(sq) == 2


def test_terms_order_deterministic():
    p = BellPolynomial({
        Monomial.from_dict({2: (A0,)}): 1.0,
        Monomial.from_dict({1: (A1,)}): 2.0,
        Monomial.from_dict({1: (A0,)}): 3.0,
    })
    sites = [mono.factors for mono, _ in p.terms()]
    assert sites == sorted(sites)


def test_assignment_fields_and_validation():
    asg = MeasurementAssignment(3, [2, 2], mu=0.7)
    assert asg.pair_sites == frozenset({2}) and asg.mu == 0.7
    assert MeasurementAssignment(3, ()).mu == math.pi / 4
    with pytest.raises(ValueError):
        MeasurementAssignment(3, {5})
    with pytest.raises(TypeError):
        MeasurementAssignment(3, {1.5})
    with pytest.raises(ValueError):
        MeasurementAssignment(2, {1}, mu=math.pi / 2)
