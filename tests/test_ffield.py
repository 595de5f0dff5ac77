import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixitylab.errors import CapExceededError, PreconditionError
from fixitylab.ffield import (
    Field,
    is_prime,
    make_field,
    primitive_element,
    _poly_is_irreducible,
)

FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (5, 2), (2, 5)]


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@pytest.mark.parametrize("p,n", FIELDS)
def test_element_count_and_uniqueness(p, n):
    f = make_field(p, n)
    elems = f.elements()
    assert len(elems) == p ** n
    assert len(set(elems)) == p ** n


field_and_indices = st.sampled_from(FIELDS).flatmap(
    lambda pn: st.tuples(
        st.just(pn),
        st.integers(0, pn[0] ** pn[1] - 1),
        st.integers(0, pn[0] ** pn[1] - 1),
        st.integers(0, pn[0] ** pn[1] - 1),
    )
)


@given(field_and_indices)
def test_field_axioms(data):
    (p, n), i, j, k = data
    f = make_field(p, n)
    elems = f.elements()
    a, b, c = elems[i], elems[j], elems[k]
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + f.zero == a
    assert a * f.one == a
    assert a - a == f.zero
    assert a + (-a) == f.zero


@given(field_and_indices)
def test_inverse_and_fermat(data):
    (p, n), i, _, _ = data
    f = make_field(p, n)
    a = f.elements()[i]
    assert a ** f.q == a
    if not a.is_zero():
        assert a * a.inverse() == f.one
        assert a.multiplicative_order() == a.inverse().multiplicative_order()
        assert (f.q - 1) % a.multiplicative_order() == 0


@given(field_and_indices)
def test_frobenius_is_additive_automorphism(data):
    (p, n), i, j, _ = data
    f = make_field(p, n)
    elems = f.elements()
    a, b = elems[i], elems[j]
    assert (a + b).frobenius() == a.frobenius() + b.frobenius()
    assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    acc = a
    for _ in range(n):
        acc = acc.frobenius()
    assert acc == a


def test_zero_has_no_inverse():
    f = make_field(5, 1)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        f.zero.multiplicative_order()


def test_primitive_element_generates():
    for p, n in [(2, 3), (3, 2), (7, 1)]:
        f = make_field(p, n)
        w = primitive_element(f)
        assert w.multiplicative_order() == f.q - 1
        powers = {w ** k for k in range(f.q - 1)}
        assert len(powers) == f.q - 1


def test_moduli_are_the_documented_ones():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


@pytest.mark.parametrize("p,n", FIELDS)
def test_modulus_is_irreducible(p, n):
    f = make_field(p, n)
    if n > 1:
        assert _poly_is_irreducible(f.modulus, p)


def test_field_bounds_and_bad_prime():
    with pytest.raises(PreconditionError):
        make_field(4, 1)
    with pytest.raises(PreconditionError):
        make_field(3, 0)
    with pytest.raises(CapExceededError):
        make_field(2, 13)  # 8192 > MAX_Q
    assert make_field(101, 1).q == 101


def test_scalar_and_element_constructors():
    f = make_field(3, 2)
    assert f.scalar(5) == f.scalar(2)
    assert f.element((1, 2)).coeffs == (1, 2)
    with pytest.raises(ValueError):
        f.element((1, 2, 0))


def test_make_field_is_cached():
    assert make_field(3, 2) is make_field(3, 2)
