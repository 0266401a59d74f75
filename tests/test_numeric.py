"""The fixed-point Gaussian type `GaussianFixed` against mpc.

The oracle for every operation is mpmath at scale + 64 bits, where mpc(x)
reads the operands exactly: sums and differences must agree exactly,
products and quotients to the one rounding the type makes (2^-scale).
"""

import math
from fractions import Fraction

import pytest
from mpmath import mpc, mpf, workprec

from rsadyn import IntPolynomial, salem_polynomial
from rsadyn.errors import ValidationError
from rsadyn.numeric import GaussianFixed

SCALES = (80, 200)
VALUES = [mpc("0.75", "-1.25"), mpc("-3.5", "0.0625"), mpc("-0.3", "-0.7"),
          mpc("12.1", "5.9"), mpc("1e-9", "-2e-7")]


def fixed(v, scale):
    with workprec(scale + 64):
        return GaussianFixed.from_number(mpc(v), scale)


@pytest.mark.parametrize("scale", SCALES)
def test_arithmetic_matches_mpc(scale):
    one_rounding = mpf(2) ** -scale
    for u in VALUES:
        for v in VALUES:
            x, y = fixed(u, scale), fixed(v, scale)
            with workprec(scale + 64):
                a, b = mpc(x), mpc(y)
                assert mpc(x + y) == a + b
                assert mpc(x - y) == a - b
                assert mpc(-x) == -a
                assert abs(mpc(x * y) - a * b) < one_rounding
                assert abs(mpc(x / y) - a / b) < one_rounding
                assert (x * y).scale == (x / y).scale == scale


@pytest.mark.parametrize("scale", SCALES)
def test_int_operands(scale):
    x = fixed(VALUES[0], scale)
    with workprec(scale + 64):
        a = mpc(x)
        zero = 0 * x
        assert isinstance(zero, GaussianFixed) and zero.scale == scale
        assert not zero and zero == 0
        for c in (-3, 0, 1, 7):
            assert mpc(x + c) == mpc(c + x) == a + c
            assert mpc(x - c) == a - c and mpc(c - x) == c - a
            assert mpc(x * c) == mpc(c * x) == a * c
        assert abs(mpc(1 / x) - 1 / a) < mpf(2) ** -scale
        assert x == a and x != a + mpf(2) ** -scale


@pytest.mark.parametrize("scale", SCALES)
def test_abs_matches_mpc(scale):
    for v in VALUES:
        x = fixed(v, scale)
        with workprec(scale + 64):
            got = abs(x)
            assert isinstance(got, mpf)
            assert abs(got - abs(mpc(x))) <= abs(got) * mpf(2) ** -(scale + 62)


def test_mixed_scales_run_at_the_larger():
    x, y = fixed(VALUES[0], 80), fixed(VALUES[1], 200)
    with workprec(264):
        a, b = mpc(x), mpc(y)
        for got, want in ((x + y, a + b), (y - x, b - a), (x * y, a * b),
                          (y * x, a * b), (x / y, a / b), (y / x, b / a)):
            assert got.scale == 200
            assert abs(mpc(got) - want) < mpf(2) ** -200


def test_horner_matches_mpc():
    # IntPolynomial.__call__ runs unchanged on the type, from the int 0
    p = salem_polynomial(5, 2)
    for scale in SCALES:
        for v in (mpc("0.6", "0.7"), mpc("-1.1", "0.2"), mpc("1.7", "0")):
            x = fixed(v, scale)
            with workprec(scale + 64):
                got = p(x)
                assert isinstance(got, GaussianFixed) and got.scale == scale
                assert abs(mpc(got) - p(mpc(x))) < mpf(2) ** -(scale - 8)
    assert IntPolynomial([3])(fixed(VALUES[0], 80)) == 3


def test_non_arithmetic_operands_of_aberth():
    # the collision guard and the critical-point nudge of salem._aberth
    eps = GaussianFixed(1, 0, 120)
    with workprec(184):
        guard = (eps - eps) or 256 * eps
        assert mpc(guard) == mpf(2) ** -112
        # 1/3 is a float, so the cube root is good to about 2^-52
        nudge = eps ** (1 / 3) * (1 + 1j)
        assert abs(mpc(nudge) - mpf(2) ** -40 * mpc(1, 1)) < mpf(2) ** -88
    with pytest.raises(ZeroDivisionError):
        1 / (eps - eps)


@pytest.mark.parametrize("scale", SCALES)
def test_real_and_imag_parts(scale):
    for v in VALUES:
        x = fixed(v, scale)
        with workprec(scale + 64):
            for part, want in ((x.real, mpc(x).real), (x.imag, mpc(x).imag)):
                assert isinstance(part, GaussianFixed)
                assert part.scale == scale and part.im == 0
                assert mpc(part) == want


def _general_product(x, y):
    """The three-product formula of GaussianFixed.__mul__, written out."""
    s, t = max(x.scale, y.scale), min(x.scale, y.scale)
    a, b, c, d = x.re, x.im, y.re, y.im
    ac, bd, half = a * c, b * d, 1 << (t - 1)
    return ((ac - bd + half) >> t,
            ((a + b) * (c + d) - ac - bd + half) >> t, s)


def test_real_product_equals_general_product():
    reals = [fixed(part, scale) for scale in SCALES for v in VALUES
             for part in (v.real, v.imag)]
    for x in reals:
        for y in reals:
            got = x * y
            assert (got.re, got.im, got.scale) == _general_product(x, y)


def test_ordering_against_type_int_and_float():
    x, y = fixed(VALUES[2].real, 80), fixed(VALUES[0].real, 200)
    assert x < y and y > x and not x > y and not y < x
    u, v = fixed(mpf("0.75"), 80), fixed(mpf("0.5"), 200)
    assert u > v and v < u and not u < v
    assert x < 0 and 0 > x and x > -1 and -1 < x
    assert y < 1 and 1 > y and y > 0.75 - 2.0 ** -52 and not y > 0.75
    assert not x < x and not x > x
    with pytest.raises(TypeError):
        fixed(VALUES[0], 80) < 1
    # a float is compared exactly, not rounded to the scale: 1e-120 is a
    # multiple of 2^-460 and lies strictly between two multiples of 2^-420;
    # each scale is checked one ulp either side of it
    tiny = 1e-120
    for scale in (420, 460):
        k = Fraction(tiny) * 2 ** scale
        for m in (math.floor(k) - 1, math.floor(k), math.ceil(k),
                  math.ceil(k) + 1):
            v = GaussianFixed(m, 0, scale)
            assert (v < tiny) == (tiny > v) == (m < k)
            assert (v > tiny) == (tiny < v) == (m > k)
            assert (v == tiny) == (tiny == v) == (m == k)


def test_equality_with_zero_and_floats():
    for scale in SCALES:
        zero = GaussianFixed(0, 0, scale)
        assert zero == 0 and zero == 0.0 and 0 == zero and 0.0 == zero
        for other in (GaussianFixed(1, 0, scale), GaussianFixed(0, 1, scale),
                      GaussianFixed(-1, 0, scale)):
            assert other != 0 and other != 0.0 and 0.0 != other
        assert fixed(mpf("0.75"), scale) == 0.75 == fixed(mpf("0.75"), scale)
        assert fixed(mpf("0.75"), scale) != 0.75 + 2.0 ** -52
        assert fixed(mpc("0.75", "1"), scale) != 0.75
        assert fixed(mpf(-3), scale) == -3 and fixed(mpf(-3), scale) != 3
        assert GaussianFixed(1, 0, scale) != float("nan")
        # exact against other numbers too: an mpf below the scale's ulp
        # is not rounded away
        x = fixed(VALUES[3], scale)
        with workprec(scale + 64):
            assert x == mpc(x) and x != mpc(x) + mpf(2) ** -(scale + 8)
            assert x.real != mpc(x).real - mpf(2) ** -(scale + 8)


def test_scale_must_be_positive():
    with pytest.raises(ValidationError):
        GaussianFixed.from_number(1, 0)
