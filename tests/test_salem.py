"""Polynomial construction, root isolation, certification.

Oracles used here and nowhere else: sympy exact expansion/factorization for
the polynomial identities, Fraction-evaluated sign changes for root
brackets, mpmath's polyroots (Durand-Kerner) for root locations, Fraction
long division for exact divisibility, the Moebius product for the
cyclotomic polynomials, and a from-scratch Euclidean gcd over Q for the
root-of-unity certificate.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, polyroots, sqrt, workprec

from rsadyn import (IntPolynomial, NotSalemError, find_roots,
                    salem_certificate, salem_polynomial)
from rsadyn.errors import RsadynError, ValidationError
from rsadyn.numeric import GaussianFixed, unconditional_cyclotomic_bound
from rsadyn.salem import (_aberth, _exact_quotient, cyclotomic,
                          cyclotomic_part)


# -- construction ------------------------------------------------------------

def sympy_family_polynomial(n, m):
    """Independent symbolic oracle: expand and divide with sympy."""
    import sympy
    t = sympy.Symbol("t")
    num = t * (t ** (n * m) - 1) * (t ** n - 2 * t ** (n - 1) + 1)
    den = (t ** n - 1) * (t - 1)
    quo, rem = sympy.div(num, den, t)
    assert rem == 0
    poly = sympy.Poly(quo + 1, t)
    return [int(c) for c in reversed(poly.all_coeffs())]


def test_family_polynomial_41_matches_symbolic_oracle():
    assert list(salem_polynomial(4, 1).coeffs) == sympy_family_polynomial(4, 1)
    assert list(salem_polynomial(4, 1).coeffs) == [1, -1, -1, -1, 1]


@pytest.mark.parametrize("n,m", [(4, 1), (5, 1), (5, 2), (7, 2), (8, 5)])
def test_family_polynomial_matches_symbolic_oracle(n, m):
    assert list(salem_polynomial(n, m).coeffs) == sympy_family_polynomial(n, m)


@pytest.mark.parametrize("n,m", [(3, 1), (4, 1), (4, 3), (5, 2), (6, 4),
                                 (7, 1), (8, 2)])
def test_constant_term_and_degree(n, m):
    p = salem_polynomial(n, m)
    assert p.coeffs[0] == 1
    assert p.degree() == n * m


def test_family_polynomial_31_factors_into_cyclotomics():
    import sympy
    t = sympy.Symbol("t")
    p = salem_polynomial(3, 1)
    factored = sympy.factor(sum(c * t ** k for k, c in enumerate(p.coeffs)))
    assert factored == (t - 1) ** 2 * (t + 1)
    assert list(p.coeffs) == [1, -1, -1, 1]


@pytest.mark.parametrize("n,m", [(4, 1), (5, 3), (6, 2), (8, 4)])
def test_palindromic_coefficients(n, m):
    assert salem_polynomial(n, m).is_palindromic()


def test_invalid_range_rejected():
    with pytest.raises(ValidationError):
        salem_polynomial(2, 1)
    with pytest.raises(ValidationError):
        salem_polynomial(4, 0)


def test_inexact_division_raises():
    with pytest.raises(RsadynError, match="division is not exact"):
        IntPolynomial([1, 0, 1]).divmod_exact(IntPolynomial([1, 1]))


def test_rejects_non_integral_coefficients():
    # int() would truncate these silently: t - 1/2 would become t
    p = IntPolynomial([Fraction(-4, 2), 1, 0])
    assert p.coeffs == (-2, 1) and type(p.coeffs[0]) is int
    for bad in (Fraction(-1, 2), 0.5, mpf("2.5")):
        with pytest.raises(ValidationError):
            IntPolynomial([bad, 1])


POLY = st.lists(st.integers(-20, 20), max_size=8).map(IntPolynomial)
NONZERO_POLY = POLY.filter(bool)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@PROPERTY
@given(POLY, POLY, POLY)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@PROPERTY
@given(POLY, NONZERO_POLY)
def test_divmod_exact_inverts_product(p, q):
    assert (p * q).divmod_exact(q) == p


def frac_divmod(num, den):
    """Oracle: long division of ascending coefficient lists over Fraction."""
    num = [Fraction(c) for c in num]
    dd = len(den) - 1
    quo = [Fraction(0)] * max(0, len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        quo[k - dd] = f = num[k] / den[-1]
        for i in range(dd + 1):
            num[k - dd + i] -= f * den[i]
    return quo, num[:dd]


def fraction_divides(q, p):
    quo, rem = frac_divmod(p.coeffs, q.coeffs)
    return not any(rem) and all(c.denominator == 1 for c in quo)


@PROPERTY
@given(POLY, NONZERO_POLY, POLY, st.integers(-3, 3).filter(bool),
       st.booleans())
def test_divides_matches_fraction_division(a, q, r, scale, exact):
    # divisor q * scale (non-monic, either sign of leading coefficient);
    # dividend a * q, plus r unless exact: a remainder, a fractional
    # quotient (scale not dividing a) and exact cases all occur
    divisor = q * scale
    p = a * q if exact else a * q + r
    want = fraction_divides(divisor, p)
    assert (_exact_quotient(p.coeffs, divisor.coeffs) is not None) == want
    if exact and scale in (1, -1):
        assert want
    if want:
        assert p.divmod_exact(divisor) * divisor == p
    else:
        with pytest.raises(RsadynError, match="division is not exact"):
            p.divmod_exact(divisor)


def test_polynomial_json_roundtrip():
    # to_json writes each coefficient as an exact decimal integer string
    p = salem_polynomial(5, 2)
    data = json.loads(json.dumps(p.to_json()))
    assert all(isinstance(s, str) for s in data)
    assert [int(s) for s in data] == list(p.coeffs)
    assert data[0] == "1"


def test_one_evaluator_for_every_number_type():
    p = IntPolynomial([3, -2, 0, 1])                   # t^3 - 2t + 3
    assert p(2) == 7 and type(p(2)) is int
    assert p(Fraction(1, 2)) == Fraction(17, 8)
    assert p(1j) == 3 - 3j
    with workprec(256):
        z = mpc(1, 1) / 3
        assert p(z) == z * z * z - 2 * z + 3
    assert IntPolynomial([])(5) == 0


# -- root finding ------------------------------------------------------------

def test_roots_of_t2_plus_1():
    roots = find_roots(IntPolynomial([1, 0, 1]), 256)
    with workprec(256):
        target = mpf(2) ** -128
        assert min(abs(r - mpc(0, 1)) for r in roots) < target
        assert min(abs(r + mpc(0, 1)) for r in roots) < target


def test_real_root_bracket_41():
    # independent bracket oracle: exact sign change over Fraction
    p = salem_polynomial(4, 1)
    lo, hi = Fraction(172, 100), Fraction(173, 100)
    assert p(lo) < 0 < p(hi)
    roots = find_roots(p, 256)
    with workprec(256):
        real = [r for r in roots if abs(r.imag) < mpf(10) ** -50
                and mpf("1.72") < r.real < mpf("1.73")]
        assert len(real) == 1


def test_unit_circle_root_count_41():
    # degree 4 minus the Salem pair leaves exactly 2 unit-circle roots
    roots = find_roots(salem_polynomial(4, 1), 256)
    with workprec(256):
        unit = [r for r in roots if abs(abs(r) - 1) < mpf(10) ** -30]
        assert len(unit) == 2


def test_root_residuals_below_target():
    p = salem_polynomial(5, 2)
    for bits in (128, 256):
        roots = find_roots(p, bits)
        with workprec(bits + 64):
            target = mpf(2) ** -(bits // 2)
            assert max(abs(p(r)) for r in roots) < target


def test_unit_root_count_stable_under_precision_doubling():
    p = salem_polynomial(6, 3)
    counts = []
    for bits in (128, 256):
        roots = find_roots(p, bits)
        with workprec(bits):
            counts.append(sum(1 for r in roots
                              if abs(abs(r) - 1) < mpf(10) ** -20))
    assert counts[0] == counts[1]


def test_roots_with_multiplicity():
    # (t-1)^2 (t+1): the double root must still meet the residual target
    p = IntPolynomial([1, -1, -1, 1])
    roots = find_roots(p, 192)
    assert len(roots) == 3
    with workprec(256):
        assert max(abs(p(r)) for r in roots) < mpf(2) ** -96
        assert sum(1 for r in roots if abs(r - 1) < mpf(10) ** -20) == 2


def test_root_order_deterministic():
    p = salem_polynomial(5, 1)
    a = find_roots(p, 192)
    b = find_roots(p, 192)
    assert all(x == y for x, y in zip(a, b))


@pytest.mark.parametrize("n,m", [(3, 13), (3, 5), (7, 3)])
def test_minus_one_keeps_its_place_across_precisions(n, m):
    # odd degree carries the real root -1; the sign of the rounding left in
    # its imaginary part must not move it between first and last
    poly = salem_polynomial(n, m)
    places = set()
    for bits in (64, 96, 128, 256, 512):
        unit = salem_certificate(poly, bits).unit_roots
        with workprec(bits):
            places.add(tuple(i for i, z in enumerate(unit)
                             if abs(z + 1) < mpf(10) ** -6))
    assert places == {(len(unit) - 1,)}


# every family member with 3 <= n <= 10 and nm <= 40 but (3, 1): the
# benchmark census
CENSUS = [(n, m) for n in range(3, 11) for m in range(1, 40 // n + 1)
          if (n, m) != (3, 1)]


@pytest.mark.parametrize("bits", [64, 96, 128, 256, 512])
def test_reciprocal_pair_order_across_precisions(bits):
    # 1/lambda and lambda both sort at argument 0, by modulus, whatever the
    # sign of the rounding left in their imaginary parts
    assert len(CENSUS) == 54
    for n, m in CENSUS:
        roots = find_roots(salem_polynomial(n, m), bits)
        with workprec(bits):
            real = [i for i, z in enumerate(roots)
                    if z.real > 0 and abs(z.imag) < mpf(10) ** -6
                    and abs(abs(z) - 1) > mpf("0.01")]
            assert len(real) == 2, (n, m)
            assert abs(roots[real[0]]) < 1 < abs(roots[real[1]]), (n, m)
            assert real[1] == real[0] + 1, (n, m)


@pytest.mark.parametrize("bits", [128, 512])
@pytest.mark.parametrize("n,m", [(4, 5), (8, 5), (3, 13)])
def test_roots_match_polyroots_oracle(n, m, bits):
    # mpmath's Durand-Kerner at bits + 32, an independent root finder
    p = salem_polynomial(n, m)
    roots = find_roots(p, bits)
    with workprec(bits + 32):
        oracle = polyroots(list(reversed(p.coeffs)), maxsteps=200,
                           extraprec=32)
    with workprec(bits + 64):
        tol = mpf(2) ** -(bits - 8)
        assert max(min(abs(z - w) for w in oracle) for z in roots) < tol
        assert max(min(abs(z - w) for z in roots) for w in oracle) < tol


@pytest.mark.parametrize("bits", [64, 256, 512])
@pytest.mark.parametrize("coeffs", [
    [-1, 0, 10 ** 60],                                 # 10^60 t^2 - 1
    [-1, 0, 3 * 10 ** 61],
    [-10 ** 60, 0, 1],                                 # t^2 - 10^60
], ids=["tiny", "tiny-irrational", "huge"])
def test_tiny_and_huge_roots_pass_backward_error(coeffs, bits):
    # fixed point holds absolute precision: the tiny roots need scale bits
    # beyond the working bits to keep their relative accuracy
    roots = find_roots(IntPolynomial(coeffs), bits)
    with workprec(bits + 64):
        root = sqrt(mpf(-coeffs[0]) / coeffs[2])
        want = [root, -root]                           # argument 0, then pi
        assert all(abs(z - w) < abs(w) * mpf(2) ** -(bits - 8)
                   for z, w in zip(roots, want))


def test_aberth_on_fixed_point_from_degenerate_starts():
    # the collision guard (z - zj) or 256 eps and the nudge off p'(0) = 0
    # run on the type; equal starts stay equal, so only the nudged run
    # converges
    p = IntPolynomial([1, 0, 1])
    eps = GaussianFixed(1, 0, 160)
    with workprec(160):
        for starts in ([0.5 + 0.5j, 0.5 + 0.5j], [0, 1]):
            roots, miss = _aberth(p, [GaussianFixed.from_number(z, 160)
                                      for z in starts],
                                  mpf(2) ** -128, 200, eps)
            assert all(isinstance(z, GaussianFixed) for z in roots)
        assert miss is None
        assert sorted(float(mpc(z).imag) for z in roots) == [-1.0, 1.0]


@pytest.mark.parametrize("coeffs", [
    [-10 ** 400, 0, 1],                                # t^2 - 10^400
    [1, 0, 0, 0, 0, 0, 10 ** 310, 0, 0, 0, 1],          # t^10 + 10^310 t^6 + 1
], ids=["t2", "t10"])
def test_float_overflow_fails_as_numeric_failure(coeffs):
    # a coefficient beyond the float range starts the fixed-point run from
    # the circle, which does not converge in its step budget
    with pytest.raises(RsadynError,
                       match="Aberth iteration missed residual target"):
        find_roots(IntPolynomial(coeffs), 256)


# -- root-of-unity certification ----------------------------------------------

def poly_gcd(a, b):
    """Oracle: primitive gcd over Z via the Euclidean algorithm over Q."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb and any(c != 0 for c in fb):
        _, r = frac_divmod(fa, fb)
        while r and r[-1] == 0:
            r.pop()
        fa, fb = fb, r
    if not fa:
        return IntPolynomial([])
    denom = 1
    for c in fa:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in fa]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(ints)


def naive_gcd_with_unity(p, k):
    """Oracle: primitive gcd over Z with t^k - 1 by Euclid over Q."""
    return poly_gcd(p, IntPolynomial([-1] + [0] * (k - 1) + [1]))


def test_certify_41_unconditional():
    p = salem_polynomial(4, 1)
    assert cyclotomic_part(p, 30) == (p, [])
    # phi(k) <= 4 forces k <= 12, so a sweep to 30 is unconditional
    assert unconditional_cyclotomic_bound(4) == 12
    # oracle cross-check
    for k in range(1, 31):
        assert naive_gcd_with_unity(p, k).degree() == 0


def test_certify_t4_minus_1_false():
    p = IntPolynomial([-1, 0, 0, 0, 1])
    _, factors = cyclotomic_part(p, 8)
    assert factors
    assert naive_gcd_with_unity(p, 4).degree() > 0


def test_certify_with_root_one_false():
    p = IntPolynomial([-1, 1]) * salem_polynomial(4, 1)
    _, factors = cyclotomic_part(p, 10)
    assert factors


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == IntPolynomial([-1, 1])
    assert cyclotomic(4) == IntPolynomial([1, 0, 1])
    assert cyclotomic(12) == IntPolynomial([1, 0, -1, 0, 1])


def moebius(k):
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def test_cyclotomic_matches_moebius_product():
    # Phi_d = prod_{e | d} (t^e - 1)^mu(d/e): multiply the mu = +1 factors
    # and the mu = -1 factors, then one exact division over Fraction
    for d in range(1, 151):
        num, den = IntPolynomial([1]), IntPolynomial([1])
        for e in range(1, d + 1):
            if d % e == 0 and moebius(d // e):
                factor = IntPolynomial([-1] + [0] * (e - 1) + [1])
                if moebius(d // e) > 0:
                    num = num * factor
                else:
                    den = den * factor
        quo, rem = frac_divmod(num.coeffs, den.coeffs)
        assert not any(rem) and all(c.denominator == 1 for c in quo)
        assert cyclotomic(d) == IntPolynomial([int(c) for c in quo]), d


# cyclotomic factors (order, multiplicity) of every family polynomial with
# n >= 3 and nm <= 40, as found by the Fraction-division sweep before the
# sweep moved to integer division; members not listed have none
CENSUS_CYCLOTOMIC_FACTORS = {
    (3, 1): [(1, 2), (2, 1)], (3, 3): [(2, 1)], (3, 5): [(2, 1)],
    (3, 7): [(2, 1)], (3, 9): [(2, 1)], (3, 11): [(2, 1)], (3, 13): [(2, 1)],
    (4, 2): [(3, 1)], (4, 5): [(3, 1)], (4, 8): [(3, 1)], (5, 1): [(2, 1)],
    (5, 3): [(2, 1), (4, 1)], (5, 5): [(2, 1)], (5, 7): [(2, 1), (4, 1)],
    (6, 4): [(5, 1)], (7, 1): [(2, 1)], (7, 2): [(3, 1)], (7, 3): [(2, 1)],
    (7, 5): [(2, 1), (3, 1), (6, 1)], (8, 1): [(6, 1)], (8, 4): [(6, 1)],
    (9, 1): [(2, 1)], (9, 3): [(2, 1), (4, 1)], (10, 2): [(3, 1)],
    (11, 1): [(2, 1)], (11, 3): [(2, 1)], (12, 2): [(10, 1)],
    (13, 1): [(2, 1)], (13, 2): [(3, 1)], (13, 3): [(2, 1), (4, 1)],
    (14, 1): [(6, 1)], (15, 1): [(2, 1)], (16, 2): [(3, 1)],
    (17, 1): [(2, 1)], (19, 1): [(2, 1)], (19, 2): [(3, 1)],
    (20, 1): [(6, 1)], (21, 1): [(2, 1)], (23, 1): [(2, 1)],
    (25, 1): [(2, 1)], (26, 1): [(6, 1)], (27, 1): [(2, 1)],
    (29, 1): [(2, 1)], (31, 1): [(2, 1)], (32, 1): [(6, 1)],
    (33, 1): [(2, 1)], (35, 1): [(2, 1)], (37, 1): [(2, 1)],
    (38, 1): [(6, 1)], (39, 1): [(2, 1)],
}


def test_cyclotomic_part_census_pinned():
    # pinned factors, and core * prod Phi_d^mult == poly pins the core too
    members = [(n, m) for n in range(3, 41) for m in range(1, 40 // n + 1)]
    assert len(members) == 98
    for n, m in members:
        p = salem_polynomial(n, m)
        core, factors = cyclotomic_part(p)
        assert factors == CENSUS_CYCLOTOMIC_FACTORS.get((n, m), []), (n, m)
        for d, mult in factors:
            for _ in range(mult):
                core = core * cyclotomic(d)
        assert core == p, (n, m)


def test_cyclotomic_part_splits_31():
    core, factors = cyclotomic_part(salem_polynomial(3, 1))
    assert core.degree() == 0
    assert sorted(factors) == [(1, 2), (2, 1)]


# -- the certificate -----------------------------------------------------------

def test_certificate_51():
    cert = salem_certificate(salem_polynomial(5, 1), 256)
    with workprec(256):
        assert 1 < cert.lambda_root < 2
        assert abs(mpc(cert.lambda_root).imag) == 0
        assert len(cert.unit_roots) == 5 - 2


def test_certificate_json_keeps_full_precision():
    # serialized outside any workprec: the printed lambda must be a root of
    # the polynomial to the certificate's precision, not a 53-bit double
    p = salem_polynomial(4, 1)
    lam = salem_certificate(p, 256).to_json()["lambda"]
    assert abs(p(Fraction(lam["re"]))) < Fraction(1, 10 ** 70)
    assert Fraction(lam["im"]) == 0


# one polynomial per refusal, in the certificate's order; coefficients run
# from the constant term up
@pytest.mark.parametrize("coeffs, reason", [
    ([1, 1], "degree < 2 cannot carry a Salem distribution"),
    ([1, 0, 1], "no root of modulus > 1; all roots are roots of unity"),
    ([1, 0, 2], "no root of modulus > 1"),
    ([6, -5, 1], "more than one root of modulus > 1"),
    ([-2, 1, -2, 1], "expected exactly one root inside the unit circle"),
    ([2, -7, 3], "1/lambda is not a root"),
    ([-1, 5, -5, 1], "coefficients are not palindromic"),
], ids=["t+1", "t2+1", "2t2+1", "(t-2)(t-3)", "(t-2)(t2+1)", "3t2-7t+2",
        "(t2-4t+1)(t-1)"])
def test_certificate_refusal_reasons(coeffs, reason):
    with pytest.raises(NotSalemError) as err:
        salem_certificate(IntPolynomial(coeffs), 256)
    assert err.value.reason == reason


def test_certificate_rejects_31_naming_roots_of_unity():
    with pytest.raises(NotSalemError) as err:
        salem_certificate(salem_polynomial(3, 1), 256)
    assert "roots of unity" in str(err.value)


def test_certificate_reciprocal_root_present():
    cert = salem_certificate(salem_polynomial(6, 1), 256)
    p = cert.poly
    with workprec(256):
        recip = 1 / cert.lambda_root
        assert abs(p(mpc(recip))) < mpf(10) ** -70
