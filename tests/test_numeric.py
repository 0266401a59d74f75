"""The fixed-point Gaussian type `GaussianFixed` against mpc.

The oracle for every operation is mpmath at scale + 64 bits, where mpc(x)
reads the operands exactly: sums and differences must agree exactly,
products and quotients to the one rounding the type makes (2^-scale).
"""

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


def test_scale_must_be_positive():
    with pytest.raises(ValidationError):
        GaussianFixed.from_number(1, 0)
