"""Series ring operations, resonance classes, return maps, linearization."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import exp, expjpi, mp, mpc, mpf, pi, sin, sqrt, workprec

from rsadyn import build_params, with_mismatched_c
from rsadyn.blowup import build_linear_model, fiber_map_level2, level2_step
from rsadyn.errors import RsadynError, ValidationError
from rsadyn.family import line_map
from rsadyn.series import (MONOMIAL_MAIN, MONOMIAL_OUTSIDE, MONOMIAL_RESONANT,
                           MONOMIAL_UPPER, BivariateSeries, ResonanceClass,
                           classify_monomial, compose_pair, corner_return_map,
                           infinity_return_map, inverse_unit,
                           linearize_diagonal, series_compose,
                           verify_conjugacy)

TOL = mpf(10) ** -70


# Property tests run at 256 bits: rounding (about 1e-77 relative) times the
# coefficient growth of these sparse, small-coefficient series through eight
# powers stays far below the 1e-40 tolerance.
PROP_BITS = 256
PROP_TOL = mpf(10) ** -40
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)

COEFF = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))


@st.composite
def sparse_series(draw, trunc=None, constant=True):
    """A series with at most four terms, truncated at total degree <= 8."""
    if trunc is None:
        trunc = draw(st.integers(0, 8))
    key = st.integers(0, trunc).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, trunc - i)))
    coeffs = draw(st.dictionaries(key, COEFF, max_size=4))
    if not constant:
        coeffs.pop((0, 0), None)
    return BivariateSeries(trunc, coeffs)


def close(a, b):
    return (a - b).max_abs() < PROP_TOL


# -- ring laws ---------------------------------------------------------------

@PROPERTY
@given(sparse_series(), sparse_series(), sparse_series())
def test_ring_laws_sampled(a, b, c):
    with workprec(PROP_BITS):
        assert close(a * b, b * a)
        assert close((a * b) * c, a * (b * c))
        assert close(a * (b + c), a * b + a * c)


def test_mul_by_zero():
    with workprec(128):
        z = BivariateSeries(6)
        a = BivariateSeries(6, {(1, 2): mpc(3)})
        assert not (a * z).coeffs


@PROPERTY
@given(sparse_series())
def test_compose_with_identity(f):
    with workprec(PROP_BITS):
        ident = (BivariateSeries.variable(f.trunc, 0),
                 BivariateSeries.variable(f.trunc, 1))
        assert close(series_compose(f, ident), f)


def power_sum_compose(f, g_pair):
    """Reference composition: sum of f_ij g1^i g2^j, each power built anew."""
    g1, g2 = g_pair
    trunc = min(f.trunc, g1.trunc, g2.trunc)
    out = BivariateSeries(trunc)
    for (i, j), v in f.coeffs.items():
        if i + j > trunc:
            continue
        mono = BivariateSeries.constant(trunc, v)
        for g, power in ((g1, i), (g2, j)):
            for _ in range(power):
                mono = mono * g
        out = out + mono
    return out


@st.composite
def high_x_series(draw, trunc):
    """A series whose terms all have x-degree within two of the truncation."""
    key = st.integers(max(0, trunc - 2), trunc).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, trunc - i)))
    return BivariateSeries(trunc, draw(st.dictionaries(key, COEFF,
                                                       max_size=4)))


@PROPERTY
@given(st.integers(0, 8).flatmap(lambda d: st.tuples(
    st.one_of(sparse_series(d), high_x_series(d)),
    st.integers(0, d).flatmap(lambda e: st.tuples(
        sparse_series(e, constant=False), sparse_series(d, constant=False))))))
def test_compose_matches_power_sum(case):
    # the Horner composition against the plain power sum; g1 may be
    # truncated below f and g2, and f may sit entirely at high x-degree
    f, (g1, g2) = case
    with workprec(PROP_BITS):
        for pair in ((g1, g2), (g2, g1)):
            out = series_compose(f, pair)
            ref = power_sum_compose(f, pair)
            assert out.trunc == ref.trunc
            assert close(out, ref)


def test_compose_hand_example():
    # (x y) o (l x, y/l + x^2) = x y + l x^3
    with workprec(192):
        lam = exp(2j * pi * mpf(2) ** -mpf("1.5"))
        f = BivariateSeries(4, {(1, 1): 1})
        g = (BivariateSeries(4, {(1, 0): lam}),
             BivariateSeries(4, {(0, 1): 1 / lam, (2, 0): 1}))
        out = series_compose(f, g)
        assert abs(out[(1, 1)] - 1) < TOL
        assert abs(out[(3, 0)] - lam) < TOL
        assert len(out.coeffs) == 2


@settings(PROPERTY, max_examples=20)
@given(st.integers(0, 8).flatmap(lambda d: st.tuples(
    sparse_series(d), *[sparse_series(d, constant=False)] * 4)))
def test_compose_associativity(series):
    f, g1, g2, h1, h2 = series
    with workprec(PROP_BITS):
        lhs = series_compose(series_compose(f, (g1, g2)), (h1, h2))
        rhs = series_compose(f, compose_pair((g1, g2), (h1, h2)))
        assert close(lhs, rhs)


def test_compose_rejects_constant_term():
    with workprec(128):
        f = BivariateSeries(4, {(1, 0): 1})
        g = (BivariateSeries(4, {(0, 0): 1}), BivariateSeries(4))
        with pytest.raises(RsadynError,
                           match="composition target has nonzero constant"):
            series_compose(f, g)


UNIT = COEFF.filter(lambda z: abs(z) >= 0.5)


@PROPERTY
@given(st.integers(0, 8).flatmap(
    lambda d: st.tuples(sparse_series(d), UNIT)))
@example((BivariateSeries(0), 2 + 1j))
@example((BivariateSeries(1, {(1, 0): 1, (0, 1): -1j}), -0.5))
def test_inverse_unit(unit):
    f, f0 = unit
    with workprec(PROP_BITS):
        f = BivariateSeries(f.trunc, {**f.coeffs, (0, 0): mpc(f0)})
        one = BivariateSeries.constant(f.trunc, 1)
        assert close(f * inverse_unit(f), one)


def test_inverse_unit_rejects_zero_constant():
    with workprec(128):
        with pytest.raises(RsadynError,
                           match="cannot invert a series with zero constant"):
            inverse_unit(BivariateSeries(4, {(1, 0): 1}))


def test_series_refuses_writes():
    s = BivariateSeries(4, {(0, 0): 1, (1, 0): 2})
    with pytest.raises(TypeError):
        s[(0, 0)] = 1
    with pytest.raises(TypeError):
        s.coeffs[(0, 0)] = 1
    assert s[(0, 0)] == 1


def test_operations_leave_their_inputs_unchanged(corner411):
    # series share coefficient dicts, so no operation may write into one
    _, (h, rep) = corner411

    def state(series):
        return [(f.trunc, dict(f.coeffs)) for f in series]

    with workprec(256):
        f = BivariateSeries(6, {(0, 0): 2 + 1j, (1, 0): 1, (0, 2): -1j})
        g = (BivariateSeries(5, {(1, 0): 1, (1, 1): 3}),
             BivariateSeries(6, {(0, 1): 1j, (2, 0): 1}))
        before = state((f, *g, *h))
        inverse_unit(f)
        series_compose(f, g)
        linearize_diagonal(h, *rep["eta"], 8, rc=rep["resonance"],
                           precision_bits=256)
        assert state((f, *g, *h)) == before


# -- the fixed-point engine against an mpc oracle -----------------------------
#
# The oracle runs on dicts {(i, j): mpc} at bits + 64, from the same Python
# numbers the engine's series are built from (at 53 bits, outside workprec).
# Each engine coefficient must lie within 2^-(bits-8) M + 2^-(bits+40) N of
# the oracle's. M is the operation run on the moduli: for a product, the sum
# of |a||b| over the contributing pairs. N is the fixed-point floor: the
# engine holds each coefficient to 2^-(bits+64) absolute, so 1e-30 * 1e-30
# keeps no relative digits at 53 bits. One rounding per output coefficient
# gives N = 1; a scalar rounded to the scale adds |a|; through a recurrence
# or a composition each rounding is carried at most as the moduli carry it.

ORACLE_BITS = st.sampled_from((53, 64, 256))
WIDE = st.builds(lambda z, e: z * 10.0 ** e, COEFF, st.integers(-30, 30))
NONZERO = WIDE.filter(lambda z: z != 0)


@st.composite
def wide_terms(draw, trunc, constant=True):
    """Raw terms {(i, j): complex} of magnitude 1e-30 to 1e30 (and zero)."""
    key = st.integers(0, trunc).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, trunc - i)))
    terms = draw(st.dictionaries(key, WIDE, max_size=5))
    if not constant:
        terms.pop((0, 0), None)
    return trunc, terms


def as_oracle(terms):
    return {k: mpc(v) for k, v in terms.items() if v != 0}


def moduli(a, plus=0):
    return {k: abs(v) + plus for k, v in a.items()}


def oracle_mul(a, b, trunc):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            if i1 + j1 + i2 + j2 <= trunc:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
    return out


def oracle_inverse(f, trunc, sign=-1):
    """The recurrence of 1/f; sign=+1 runs it on moduli as a majorant."""
    g = {(0, 0): 1 / f[(0, 0)]}
    rest = [(k, v) for k, v in f.items() if k != (0, 0)]
    for deg in range(1, trunc + 1):
        for i in range(deg + 1):
            j = deg - i
            total = sum(v * g.get((i - a, j - b), 0) for (a, b), v in rest)
            g[(i, j)] = sign * total / f[(0, 0)]
    return g


def oracle_compose(f, g1, g2, trunc):
    out = {}
    for (i, j), v in f.items():
        if i + j > trunc:
            continue
        mono = {(0, 0): v}
        for g, power in ((g1, i), (g2, j)):
            for _ in range(power):
                mono = oracle_mul(mono, g, trunc)
        for key, c in mono.items():
            out[key] = out.get(key, 0) + c
    return out


def assert_within_oracle(series, want, major, floor, bits):
    with workprec(bits + 64):
        for key in set(series.coeffs) | set(want):
            err = abs(series[key] - want.get(key, 0))
            tol = (mpf(2) ** -(bits - 8) * major.get(key, 0)
                   + mpf(2) ** -(bits + 40) * floor.get(key, 0))
            assert err <= tol, (key, err, tol)


@PROPERTY
@given(ORACLE_BITS, wide_terms(8), st.integers(0, 8).flatmap(wide_terms))
def test_product_matches_oracle(bits, left, right):
    (ta, a), (tb, b) = left, right
    sa, sb = BivariateSeries(ta, a), BivariateSeries(tb, b)
    with workprec(bits):
        out = sa * sb
    trunc = min(ta, tb)
    assert out.trunc == trunc
    with workprec(bits + 64):
        oa, ob = as_oracle(a), as_oracle(b)
        major = oracle_mul(moduli(oa), moduli(ob), trunc)
        want = oracle_mul(oa, ob, trunc)
    assert_within_oracle(out, want, major, dict.fromkeys(major, 1), bits)


@PROPERTY
@given(ORACLE_BITS, st.integers(0, 8).flatmap(wide_terms), WIDE)
def test_scalar_product_matches_oracle(bits, case, s):
    trunc, a = case
    sa = BivariateSeries(trunc, a)
    with workprec(bits):
        outs = (sa * s, s * sa)
    with workprec(bits + 64):
        oa = as_oracle(a)
        want = {k: v * mpc(s) for k, v in oa.items()}
        major = {k: v * abs(mpc(s)) for k, v in moduli(oa).items()}
        floor = moduli(oa, plus=1)
    for out in outs:
        assert_within_oracle(out, want, major, floor, bits)


@PROPERTY
@given(ORACLE_BITS, wide_terms(8), st.integers(0, 8).flatmap(wide_terms))
def test_sum_matches_oracle(bits, left, right):
    # lifting to a common scale is exact, so a sum has no rounding at all
    (ta, a), (tb, b) = left, right
    sa, sb = BivariateSeries(ta, a), BivariateSeries(tb, b)
    with workprec(bits):
        outs = (sa + sb, sa - sb)
    trunc = min(ta, tb)
    with workprec(bits + 64):
        oa = {k: v for k, v in as_oracle(a).items() if sum(k) <= trunc}
        ob = {k: v for k, v in as_oracle(b).items() if sum(k) <= trunc}
        major = {k: abs(oa.get(k, 0)) + abs(ob.get(k, 0))
                 for k in set(oa) | set(ob)}
        for out, sign in zip(outs, (1, -1)):
            want = {k: oa.get(k, 0) + sign * ob.get(k, 0) for k in major}
            assert_within_oracle(out, want, major, {}, bits)


@PROPERTY
@given(ORACLE_BITS, st.integers(0, 8).flatmap(wide_terms), NONZERO)
def test_inverse_unit_matches_oracle(bits, case, f0):
    trunc, f = case
    f = {**f, (0, 0): f0}
    sf = BivariateSeries(trunc, f)
    with workprec(bits):
        out = inverse_unit(sf)
    with workprec(bits + 64):
        of = as_oracle(f)
        want = oracle_inverse(of, trunc)
        major = oracle_inverse(moduli(of), trunc, sign=1)
        # a rounding left at each coefficient, one in 1/f_00 (carried as
        # |f_00| M), both carried on by the recurrence on the moduli
        c = abs(of[(0, 0)])
        floor = {}
        for deg in range(trunc + 1):
            for i in range(deg + 1):
                key = (i, deg - i)
                floor[key] = 1 + c * major[key] + sum(
                    abs(v) * floor.get((key[0] - a, key[1] - b), 0)
                    for (a, b), v in of.items() if (a, b) != (0, 0)) / c
    assert_within_oracle(out, want, major, floor, bits)


@settings(PROPERTY, max_examples=25)
@given(ORACLE_BITS, st.integers(0, 6).flatmap(lambda d: st.tuples(
    wide_terms(d), wide_terms(d, constant=False),
    wide_terms(d, constant=False))))
def test_compose_matches_oracle(bits, case):
    (trunc, f), (_, g1), (_, g2) = case
    sf, sg1, sg2 = (BivariateSeries(trunc, t) for t in (f, g1, g2))
    with workprec(bits):
        out = series_compose(sf, (sg1, sg2))
    with workprec(bits + 64):
        of, og1, og2 = as_oracle(f), as_oracle(g1), as_oracle(g2)
        want = oracle_compose(of, og1, og2, trunc)
        major = oracle_compose(moduli(of), moduli(og1), moduli(og2), trunc)
        floor = oracle_compose(moduli(of, 1), moduli(og1, 1), moduli(og2, 1),
                               trunc)
    assert_within_oracle(out, want, major, floor, bits)


def test_tiny_constant_survives_creation_and_inverse():
    # built at 53 bits, where 2^-(53+64) alone would round 1e-40 to zero;
    # 1/(c + x) = sum_i (-1)^i x^i / c^(i+1)
    f = BivariateSeries(3, {(0, 0): 1e-40, (1, 0): 1.0})
    assert f[(0, 0)] == mpf(1e-40)
    for bits in (53, 256):
        with workprec(bits):
            g = inverse_unit(f)
            for i in range(4):
                want = (-1) ** i / mpf(1e-40) ** (i + 1)
                assert abs(g[(i, 0)] / want - 1) < mpf(2) ** -50
            assert len(g.coeffs) == 4


# -- resonance classes ----------------------------------------------------------

def test_classify_11_examples():
    rc = ResonanceClass(1, 1)
    assert classify_monomial(2, 0, rc, 1) == MONOMIAL_MAIN       # x^2
    assert classify_monomial(2, 1, rc, 1) == MONOMIAL_RESONANT   # x^2 y
    assert classify_monomial(0, 2, rc, 1) == MONOMIAL_OUTSIDE


def test_classify_12_resonant_line():
    rc = ResonanceClass(1, 2)
    for m in range(1, 7):
        assert classify_monomial(m + 1, 2 * m, rc, 1) == MONOMIAL_RESONANT
    assert classify_monomial(3, 2, rc, 1) == MONOMIAL_MAIN
    assert classify_monomial(1, 3, rc, 1) == MONOMIAL_UPPER


def test_classify_coordinate_2_mirror():
    rc = ResonanceClass(1, 2)
    # coordinate-2 resonant line: j = 2 i + 1
    for i in range(1, 5):
        assert classify_monomial(i, 2 * i + 1, rc, 2) == MONOMIAL_RESONANT


def test_resonant_for_lattice_test():
    rc = ResonanceClass(1, 2)
    assert rc.resonant_for(2, 2, 1)          # (i-1, j) = (1, 2)
    assert rc.resonant_for(3, 4, 1)
    assert not rc.resonant_for(2, 1, 1)
    assert rc.resonant_for(1, 3, 2)          # (i, j-1) = (1, 2)
    assert not rc.resonant_for(1, 0, 1)      # the linear monomial itself


COPRIME = st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(
    lambda ab: math.gcd(*ab) == 1)


@PROPERTY
@given(COPRIME, st.integers(0, 30), st.integers(0, 30), st.sampled_from((1, 2)))
def test_classify_matches_region_definitions(ab, i, j, k):
    # reference: the docstring's rational inequalities, coordinate 2 mirrored
    # explicitly, and the lattice definition of an exact resonance
    a, b = ab
    rc = ResonanceClass(a, b)
    x, y, r = (i, j, Fraction(a, b)) if k == 1 else (j, i, Fraction(b, a))
    if x == r * y + 1 and y >= 1:
        expected = MONOMIAL_RESONANT
    elif x > r * y + 1:
        expected = MONOMIAL_MAIN
    elif x >= r * (y - 1):
        expected = MONOMIAL_UPPER
    else:
        expected = MONOMIAL_OUTSIDE
    assert classify_monomial(i, j, rc, k) == expected
    di, dj = (i - 1, j) if k == 1 else (i, j - 1)
    multiple = any((di, dj) == (t * a, t * b) for t in range(1, 31))
    assert rc.resonant_for(i, j, k) == multiple


def test_resonance_class_validation():
    # (0, 1) is eta2 = 1, the line-point relation; (1, 0) would be eta1 = 1
    for a, b in ((2, 4), (1, 0), (0, 2), (-1, 1)):
        with pytest.raises(ValidationError):
            ResonanceClass(a, b)


@pytest.mark.parametrize("n,m,j", [(4, 1, 1), (7, 2, 1), (40, 1, 1)])
def test_line_resonance_matches_numeric_rule(n, m, j):
    # oracle: the numeric rule the exact class replaced, a divisor
    # lam^i 1^j - eta_k below 1e-40 at the line multipliers (lam, 1)
    p = build_params(n, m, j)
    rc = ResonanceClass(0, 1)
    with workprec(256):
        eta = (p.lam, mpc(1))
        for deg in range(2, 17):
            for i in range(deg + 1):
                for k in (1, 2):
                    numeric = abs(p.lam ** i - eta[k - 1]) < mpf(10) ** -40
                    assert rc.resonant_for(i, deg - i, k) == numeric


# -- return maps -------------------------------------------------------------------

@pytest.fixture(scope="module")
def corner411():
    p = build_params(4, 1, 1)
    with workprec(256):
        return p, corner_return_map(p, 12)


def test_corner_linear_part(corner411):
    p, (h, rep) = corner411
    with workprec(256):
        assert rep["linear_residual"] < mpf(10) ** -25
        assert abs(h[0][(1, 0)] - p.lam ** 2) < mpf(10) ** -70
        assert abs(h[1][(0, 1)] - 1 / p.lam) < mpf(10) ** -70


def test_corner_resonant_coefficients_vanish(corner411):
    _, (h, rep) = corner411
    with workprec(256):
        assert rep["max_resonant_coefficient"] < mpf(2) ** -64


def series_chart_step(params, s, pair):
    """blowup.level2_step on series, dividing as corner_return_map does."""
    return level2_step(params, s, *pair,
                       div=lambda a, b: a * inverse_unit(b))


def test_corner_first_chart_step_structure(params411):
    # the first chart factor has first coordinate -xi/delta + main terms
    p = params411
    with workprec(256):
        first, _ = series_chart_step(p, 0, (BivariateSeries.variable(8, 0),
                                            BivariateSeries.variable(8, 1)))
        assert abs(first[(1, 0)] + 1 / p.delta) < TOL
        rc = ResonanceClass(1, 2)
        for (i, j), v in first.coeffs.items():
            if (i, j) == (1, 0) or abs(v) < mpf(10) ** -60:
                continue
            assert classify_monomial(i, j, rc, 1) == MONOMIAL_MAIN


def test_corner_composition_structure_claim(corner411):
    # remainder of the full return map lies in (main + vanished resonant) x upper
    _, (h, rep) = corner411
    rc = rep["resonance"]
    with workprec(256):
        for (i, j), v in h[0].coeffs.items():
            if (i, j) in ((1, 0), (0, 1)) or abs(v) < mpf(10) ** -60:
                continue
            assert classify_monomial(i, j, rc, 1) == MONOMIAL_MAIN
        for (i, j), v in h[1].coeffs.items():
            if (i, j) in ((1, 0), (0, 1)) or abs(v) < mpf(10) ** -60:
                continue
            assert classify_monomial(i, j, rc, 1) in (MONOMIAL_MAIN,
                                                      MONOMIAL_UPPER)


def test_pairwise_chart_composition_stays_in_class(params411):
    # compositionality: composing two chart steps keeps the class structure
    p = params411
    rc = ResonanceClass(1, 2)
    with workprec(256):
        ident = (BivariateSeries.variable(10, 0),
                 BivariateSeries.variable(10, 1))
        f1 = series_chart_step(p, 0, ident)
        f2 = series_chart_step(p, 1, ident)
        comp = compose_pair(f2, f1)
        for (i, j), v in comp[0].coeffs.items():
            if (i, j) == (1, 0) or abs(v) < mpf(10) ** -55:
                continue
            assert classify_monomial(i, j, rc, 1) in (MONOMIAL_MAIN,
                                                      MONOMIAL_RESONANT)
        for (i, j), v in comp[1].coeffs.items():
            if (i, j) == (0, 1) or abs(v) < mpf(10) ** -55:
                continue
            assert classify_monomial(i, j, rc, 1) in (MONOMIAL_MAIN,
                                                      MONOMIAL_UPPER,
                                                      MONOMIAL_RESONANT)


def test_corner_series_matches_pointwise_map(params411):
    # the truncated series return map, summed at a point of size 1e-8,
    # against n steps of the pointwise chart map from that point
    p = params411
    with workprec(256):
        (h1, h2), _ = corner_return_map(p, 12)
        start = (mpc("0.7e-8", "0.3e-8"), mpc("-0.4e-8", "0.9e-8"))
        pt = start
        for s in range(p.n):
            pt = fiber_map_level2(p, s, *pt)
        for h, want in zip((h1, h2), pt):
            got = sum(v * start[0] ** i * start[1] ** j
                      for (i, j), v in h.coeffs.items())
            assert abs(got - want) < mpf(10) ** -60
            assert abs(want) > mpf(10) ** -9


def test_infinity_return_map_structure(params411):
    p = params411
    with workprec(256):
        h, rep = infinity_return_map(p, 10)
        assert rep["multiplier_residual"] < mpf(10) ** -60
        assert rep["low_order_residual"] < mpf(10) ** -60
        assert rep["line_identity_residual"] < mpf(10) ** -60
        # coefficient of t*xi in coordinate 1 vanishes
        assert abs(h[0][(1, 1)]) < mpf(10) ** -60


def _diagonal_map(p, const=0, gap=0):
    """(lam x + const, y): H for linearize_diagonal against (lam, 1)."""
    return (BivariateSeries(4, {(0, 0): const, (1, 0): p.lam + gap}),
            BivariateSeries.variable(4, 1))


@pytest.mark.parametrize("call,message", [
    (lambda p: infinity_return_map(p, 1), "need truncation degree >= 2"),
    (lambda p: linearize_diagonal(_diagonal_map(p, const=mpf(2) ** -200),
                                  p.lam, 1, 4, ResonanceClass(0, 1)),
     "return map must fix the origin"),
    # the linear part may differ by 2^-64 at 256 bits, not by 2^-60
    (lambda p: linearize_diagonal(_diagonal_map(p, gap=mpf(2) ** -60),
                                  p.lam, 1, 4, ResonanceClass(0, 1)),
     "linear part of H is not diag(eta1, eta2)"),
], ids=["line-degree-1", "constant-term", "linear-part-off"])
def test_return_map_and_solver_refusals(params411, call, message):
    with workprec(256):
        with pytest.raises(ValidationError,
                           match="^%s$" % re.escape(message)):
            call(params411)


@pytest.mark.parametrize("n,m,j", [(4, 1, 1), (7, 2, 3), (40, 1, 39)])
def test_infinity_return_map_centres_at_the_line_fixed_point(n, m, j):
    # the base point is the line map's fixed point sqrt(delta) e^(i pi j/n),
    # and the blown-up points (0, the orbit of c, infinity) lie on the real
    # line through sqrt(delta), |delta| = 1: none is nearer than
    # sin(pi j/n), which is 0.078 on (40,1,39)
    p = build_params(n, m, j)
    with workprec(256):
        _, rep = infinity_return_map(p, 2)
        w0 = rep["basepoint"]
        assert w0 == p.sqrt_delta * expjpi(mpf(j) / n)
        assert abs(line_map(p, w0) - w0) <= p.tolerance
        gap = min([abs(w0)] + [abs(w0 - w) for w in p.orbit])
        assert gap >= sin(pi * mpf(j) / n) - p.tolerance


def test_infinity_return_map_off_the_locus_fails_at_a_chart_step(params411):
    # off the parameter locus w0 is no longer fixed by the line map, and the
    # first chart step keeps a constant term; the factor is formed at
    # working precision (at 53 bits 1 + 2^-64 would be exactly 1)
    with workprec(256):
        bad = with_mismatched_c(params411, 1 + mpf("0.01"))
        with pytest.raises(RsadynError, match="line chart step"):
            infinity_return_map(bad, trunc=4)


# -- the linearization solver ---------------------------------------------------

def test_linearize_hand_example():
    with workprec(192):
        lam = exp(2j * pi / sqrt(mpf(7)))
        h = (BivariateSeries(8, {(1, 0): lam}),
             BivariateSeries(8, {(0, 1): 1 / lam, (2, 0): 1}))
        res = linearize_diagonal(h, lam, 1 / lam, 8,
                                 rc=ResonanceClass(1, 1), precision_bits=192)
        assert res.obstruction is None
        beta = res.phi[1][(2, 0)]
        assert abs(beta - 1 / (1 / lam - lam ** 2)) < mpf(10) ** -50


def test_linearize_identity_map():
    with workprec(128):
        lam = exp(2j * pi / sqrt(mpf(5)))
        h = (BivariateSeries(6, {(1, 0): lam}),
             BivariateSeries(6, {(0, 1): 1 / lam}))
        res = linearize_diagonal(h, lam, 1 / lam, 6,
                                 rc=ResonanceClass(1, 1), precision_bits=128)
        assert res.obstruction is None
        assert len(res.phi[0].coeffs) == 1 and len(res.phi[1].coeffs) == 1


def test_linearize_obstruction():
    with workprec(128):
        lam = exp(2j * pi / sqrt(mpf(3)))
        h = (BivariateSeries(6, {(1, 0): lam, (2, 1): 1}),
             BivariateSeries(6, {(0, 1): 1 / lam}))
        res = linearize_diagonal(h, lam, 1 / lam, 6,
                                 rc=ResonanceClass(1, 1), precision_bits=128)
        assert res.obstruction is not None
        k, mono, coeff = res.obstruction
        assert (k, mono) == (1, (2, 1))
        assert abs(coeff - 1) < mpf(10) ** -25


def test_linearize_corner_pipeline(corner411):
    p, (h, rep) = corner411
    with workprec(256):
        eta1, eta2 = rep["eta"]
        res = linearize_diagonal(h, eta1, eta2, 12, rc=rep["resonance"],
                                 precision_bits=256)
        assert res.obstruction is None
        assert res.min_divisor > 0
        assert not res.warnings
        conj = verify_conjugacy(h, res.phi, eta1, eta2, 12,
                                precision_bits=256)
        assert conj < mpf(10) ** -20


def test_linearize_infinity_pipeline(params411):
    # divisors are lam^i - lam (coordinate 1) and lam^i - 1 (coordinate 2),
    # i >= 2: solved conjugacy verifies and phi has t-degree >= 2 throughout
    p = params411
    with workprec(256):
        h, rep = infinity_return_map(p, 10)
        assert rep["resonance"] == ResonanceClass(0, 1)
        res = linearize_diagonal(h, p.lam, 1, 10, rc=rep["resonance"],
                                 precision_bits=256)
        assert res.obstruction is None
        conj = verify_conjugacy(h, res.phi, p.lam, 1, 10, precision_bits=256)
        assert conj < mpf(10) ** -20
        for pp in res.phi:
            for (i, j) in pp.coeffs:
                if (i, j) not in ((1, 0), (0, 1)):
                    assert i >= 2


def test_mismatched_c_obstruction(params411):
    with workprec(256):
        bad = with_mismatched_c(params411, 1 + mpf(10) ** -2)
        h, rep = corner_return_map(bad, 8)
        assert rep["max_resonant_coefficient"] > mpf(2) ** -64
        res = linearize_diagonal(h, rep["eta"][0], rep["eta"][1], 8,
                                 rc=rep["resonance"], precision_bits=256)
        assert res.obstruction is not None
        assert res.obstruction[0] == 1
        assert res.obstruction[1] == (2, 2)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("n,m,j", [(4, 1, 1), (7, 2, 3)])
def test_return_maps_take_eta_from_the_tree(n, m, j, bits):
    # on the parameter locus both return maps report the blowup tree's
    # multipliers exactly; the smallest mismatch `linearize` accepts,
    # 2^-(bits/4), leaves the locus, and the corner map then reports its
    # computed diagonal instead of refusing it
    p = build_params(n, m, j, precision_bits=bits)
    with workprec(bits):
        tree = build_linear_model(p)
        corner = tree.find("e1_x_e2")
        _, rep = corner_return_map(p, 8)
        assert rep["eta"] == (corner.mult_along, corner.mult_normal)
        _, line_rep = infinity_return_map(p, 4)
        assert line_rep["eta"] == (tree.mult_normal, tree.mult_along)

        bad = with_mismatched_c(p, 1 + mpf(2) ** -(bits // 4))
        hb, repb = corner_return_map(bad, 8)
        assert repb["eta"] == (hb[0][(1, 0)], hb[1][(0, 1)])
        assert repb["eta"] != rep["eta"]


def test_obstruction_stops_the_solve(params411, monkeypatch):
    # the mismatched-c obstruction sits at degree 4: the solve does the
    # same series products at truncation 8 as at 16
    with workprec(256):
        bad = with_mismatched_c(params411, 1 + mpf(10) ** -2)
        maps = {t: corner_return_map(bad, t)
                for t in (8, 16)}
    calls = []
    mul = BivariateSeries.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(BivariateSeries, "__mul__", counting_mul)
    counts = {}
    with workprec(256):
        for t, (h, rep) in maps.items():
            calls.clear()
            res = linearize_diagonal(h, rep["eta"][0], rep["eta"][1], t,
                                     rc=rep["resonance"], precision_bits=256)
            assert res.obstruction[1] == (2, 2)
            counts[t] = len(calls)
    assert counts[8] == counts[16] > 0


def test_corner_map_series_product_count(monkeypatch):
    # level2_step forms x2^2 xi once per middle step: on (7,2,1) that is
    # 2 + 5 * 5 + 3 series products and 12 unit inverses
    p = build_params(7, 2, 1)
    calls = {"mul": 0, "inverse": 0}
    mul = BivariateSeries.__mul__

    def counting_mul(self, other):
        if isinstance(other, BivariateSeries):
            calls["mul"] += 1
        return mul(self, other)

    def counting_inverse(f):
        calls["inverse"] += 1
        return inverse_unit(f)

    monkeypatch.setattr(BivariateSeries, "__mul__", counting_mul)
    monkeypatch.setattr("rsadyn.series.inverse_unit", counting_inverse)
    with workprec(256):
        corner_return_map(p, 16)
    assert calls == {"mul": 30, "inverse": 12}


def test_verify_conjugacy_identity_on_linear():
    with workprec(128):
        lam = exp(2j * pi / sqrt(mpf(11)))
        h = (BivariateSeries(6, {(1, 0): lam}),
             BivariateSeries(6, {(0, 1): 1 / lam}))
        phi = (BivariateSeries.variable(6, 0), BivariateSeries.variable(6, 1))
        assert verify_conjugacy(h, phi, lam, 1 / lam, 6,
                                precision_bits=128) == 0


def test_verify_conjugacy_perturbation_lower_bound(corner411):
    # perturbing one solved coefficient by eps moves the defect at that
    # monomial by exactly eps * divisor
    p, (h, rep) = corner411
    with workprec(256):
        eta1, eta2 = rep["eta"]
        res = linearize_diagonal(h, eta1, eta2, 12, rc=rep["resonance"],
                                 precision_bits=256)
        eps = mpf(10) ** -6
        phi1 = res.phi[0] + BivariateSeries(12, {(2, 0): eps})
        divisor = abs(eta1 ** 2 - eta1)
        resid = verify_conjugacy(h, (phi1, res.phi[1]), eta1, eta2, 12,
                                 precision_bits=256)
        assert resid >= eps * divisor * (1 - mpf(10) ** -6)


def test_series_json(corner411):
    _, (h, _) = corner411
    data = h[0].to_json(256)
    assert "1,0" in data
    assert set(data["1,0"].keys()) == {"re", "im"}


@pytest.mark.parametrize("n,m,j", [(5, 1, 1), (5, 1, 2), (6, 1, 1),
                                   (7, 2, 1)])
def test_corner_pipeline_other_members(n, m, j):
    # the solve is not tuned to (4,1,1): odd n, other j, deeper m all land
    # at the arithmetic floor
    p = build_params(n, m, j)
    with workprec(256):
        h, rep = corner_return_map(p, 8)
        assert rep["linear_residual"] < mpf(10) ** -60
        assert rep["max_resonant_coefficient"] < mpf(2) ** -64
        res = linearize_diagonal(h, rep["eta"][0], rep["eta"][1], 8,
                                 rc=rep["resonance"], precision_bits=256)
        assert res.obstruction is None
        conj = verify_conjugacy(h, res.phi, rep["eta"][0], rep["eta"][1], 8,
                                precision_bits=256)
        assert conj < mpf(10) ** -60
