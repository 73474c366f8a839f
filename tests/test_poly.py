import math

import pytest
from hypothesis import example, given, settings, strategies as st

from bellcert.poly import (A0, A1, COEFF_TOL, BellPolynomial,
                           MeasurementAssignment, Monomial)


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


@pytest.mark.parametrize("factors", [
    ((2, (A0,)), (1, (A1,))),        # unsorted sites
    ((1, (A0,)), (1, (A1,))),        # repeated site
    ((0, (A0,)),),                   # sites are 1-indexed
    ((1, ()),),                      # empty word
    ((1, (A0, A0)),),                # unreduced word
    ((1, (A0, A1, A1)),),
    ((1, (2,)),),                    # not a letter
], ids=["unsorted", "repeated", "site-0", "empty", "unreduced", "unreduced-tail",
        "letter"])
def test_constructor_refuses_noncanonical_factors(factors):
    with pytest.raises(ValueError):
        Monomial(factors)


def test_constructor_accepts_canonical_factors():
    factors = ((1, (A1,)), (3, (A0, A1, A0)))
    m = Monomial(factors)
    assert m.factors == factors
    assert m == Monomial.from_dict({3: (A0, A1, A0), 1: (A1,)})
    assert hash(m) == hash(Monomial.from_dict({3: (A0, A1, A0), 1: (A1,)}))
    with pytest.raises(AttributeError):
        m.factors = ()


def test_sites_must_be_integers():
    with pytest.raises(TypeError):
        Monomial.from_dict({1.5: (A0,)})
    with pytest.raises(TypeError):
        Monomial(((1.5, (A0,)),))


def _product_by_reduction(m1, m2):
    """The product by concatenating the site words and reducing them again."""
    merged = dict(m1.factors)
    for site, word in m2.factors:
        merged[site] = merged.get(site, ()) + word
    return Monomial.from_dict(merged)


def _alternating(first, length):
    return tuple((first + i) % 2 for i in range(length))


# a reduced monomial over sites 1..6: each site gets an alternating word of
# length 0-5 (length 0 drops the site, so the identity is drawn too)
_monomials = st.dictionaries(
    st.integers(1, 6),
    st.builds(_alternating, st.sampled_from((A0, A1)), st.integers(0, 5)),
    max_size=6).map(Monomial.from_dict)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_monomials, _monomials, _monomials)
@example(Monomial.from_dict({1: (A0, A1, A0)}), Monomial.from_dict({1: (A0, A1, A0)}),
         Monomial.identity())
@example(Monomial.from_dict({2: (A1, A0)}), Monomial.from_dict({2: (A0, A1, A0)}),
         Monomial.from_dict({1: (A0,), 2: (A1,)}))
def test_monomial_product_matches_reduction(m1, m2, m3):
    product, reference = m1 * m2, _product_by_reduction(m1, m2)
    assert product == reference
    assert hash(product) == hash(reference)
    sites = [site for site, _ in product.factors]
    assert sites == sorted(set(sites))
    assert all(word for _, word in product.factors)
    assert (m1 * m2) * m3 == m1 * (m2 * m3)


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


def _nested_product(p, q):
    """p * q as one loop over Monomial.__mul__, summed per monomial in
    left-major pair order and pruned at the end."""
    acc = {}
    for m1, c1 in p.coeffs.items():
        for m2, c2 in q.coeffs.items():
            mono = m1 * m2
            acc[mono] = acc.get(mono, 0.0) + c1 * c2
    return {m: c for m, c in acc.items() if abs(c) > COEFF_TOL}


@st.composite
def _polynomials(draw):
    """A sum of drawn terms over sites 1, 2, 3 and 9 (repeats summed, so
    some cancel); in about half the draws words run to 9 letters, past
    the 7 the coded product takes."""
    max_letters = draw(st.sampled_from((7, 9)))
    monomials = st.dictionaries(
        st.sampled_from((1, 2, 3, 9)),
        st.builds(_alternating, st.sampled_from((A0, A1)),
                  st.integers(0, max_letters)),
        max_size=3).map(Monomial.from_dict)
    coeffs = st.sampled_from((1.0, -1.0, 0.5, -0.5, 1 / math.sqrt(2), 1e-13)) \
        | st.floats(-4.0, 4.0, allow_nan=False)
    poly = BellPolynomial()
    for mono, c in draw(st.lists(st.tuples(monomials, coeffs), max_size=8)):
        poly = poly + BellPolynomial.monomial(mono, c)
    return poly


_SINGLE_A0 = Monomial.single(1, A0)
_SINGLE_A1 = Monomial.single(1, A1)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_polynomials(), _polynomials())
@example(BellPolynomial(), BellPolynomial.constant(2.0))
@example(BellPolynomial.constant(1.0), BellPolynomial.constant(1.0))
@example(BellPolynomial({_SINGLE_A0: 0.5, _SINGLE_A1: 0.5}),
         BellPolynomial({_SINGLE_A0: 0.5, _SINGLE_A1: -0.5}))
@example(BellPolynomial({Monomial.from_dict({1: _alternating(A0, 9)}): 1.0,
                         _SINGLE_A1: 1.0}),
         BellPolynomial({Monomial.from_dict({1: _alternating(A1, 7)}): 2.0}))
@example(BellPolynomial({Monomial.single(10**9, A0): 1.0, _SINGLE_A1: -1.0}),
         BellPolynomial({Monomial.single(10**9, A1): 1.0, _SINGLE_A1: 1.0}))
def test_polynomial_product_matches_nested_loop(p, q):
    for left, right in ((p, q), (p, p), (q, p)):
        out, reference = left * right, _nested_product(left, right)
        assert list(out.coeffs) == list(reference)
        assert list(out.coeffs.values()) == list(reference.values())


def _old_scale(q, factor):
    """BellPolynomial.scale as a new polynomial per call: the scaled terms
    summed through the constructor, then pruned."""
    acc = {}
    for mono, c in q.items():
        acc[mono] = acc.get(mono, 0.0) + float(c * factor)
    return {m: c for m, c in acc.items() if abs(c) > COEFF_TOL}


def _old_add(p, q):
    """BellPolynomial.__add__ as a new polynomial per call: a copy of p
    with q's terms added, then every sum pruned."""
    acc = dict(p)
    for mono, c in q.items():
        acc[mono] = acc.get(mono, 0.0) + c
    return {m: c for m, c in acc.items() if abs(c) > COEFF_TOL}


def _same_floats(poly, reference):
    """Equal keys in equal order, and bit-equal coefficients."""
    return [(m, c.hex()) for m, c in poly.coeffs.items()] == \
        [(m, c.hex()) for m, c in reference.items()]


_weights = st.sampled_from((1.0, -1.0, 2.0, -0.5, 1e-12, -1e-12, 1e-13, 0.0)) \
    | st.floats(-4.0, 4.0, allow_nan=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.tuples(_polynomials(), _weights), max_size=5), _polynomials())
@example([(BellPolynomial.constant(1.0), 1.0), (BellPolynomial.constant(1.0), -1.0)],
         BellPolynomial({_SINGLE_A0: 1.0, _SINGLE_A1: -2.0}))
@example([(BellPolynomial({_SINGLE_A0: 0.5, _SINGLE_A1: 3.0}), 1e-12),
          (BellPolynomial({_SINGLE_A0: -1.0}), 0.5)], BellPolynomial())
def test_add_scaled_fold_matches_copy_per_term_fold(terms, p):
    total, reference = BellPolynomial(), {}
    for q, weight in terms:
        assert total.add_scaled(q, weight) is total
        reference = _old_add(reference, _old_scale(q.coeffs, weight))
        assert _same_floats(total, reference)
    for q, weight in terms:
        assert _same_floats(p + q, _old_add(p.coeffs, q.coeffs))
        assert _same_floats(p - q, _old_add(p.coeffs, _old_scale(q.coeffs, -1.0)))
        assert _same_floats(p.scale(weight), _old_scale(p.coeffs, weight))
    # other may be self: a sum it cancels is deleted without breaking the loop
    for weight in (-1.0, 1.0, 0.5, 1e-13):
        reference = _old_add(p.coeffs, _old_scale(p.coeffs, weight))
        q = BellPolynomial(p.coeffs)
        assert _same_floats(q.add_scaled(q, weight), reference)
        q = BellPolynomial(p.coeffs)
        assert _same_floats(q.add_scaled(q.coeffs, weight), reference)
    assert len(p.add_scaled(p, -1.0)) == 0


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
