"""Salem polynomial construction, root isolation and certification.

The family polynomial of the automorphism family with cycle length ``n`` and
landing depth ``m`` is

    t (t^{nm} - 1) (t^n - 2 t^{n-1} + 1) / ((t^n - 1)(t - 1)) + 1,

an exact integer polynomial of degree nm. For n >= 4 (or n = 3, m >= 2) it is
a Salem polynomial: one real root lambda > 1, its reciprocal, and all other
roots on the unit circle. Root isolation runs one Aberth loop twice, on
Python complex from a circle of start points and then on fixed-point
Gaussian integers (`numeric.GaussianFixed`) at high precision, with
residuals verified as a backward error on the same type. Root-of-unity
status is certified by exact cyclotomic divisibility sweeps, never by
numerical argument tests. Every polynomial division, the sweep and the
recursive construction of the cyclotomic polynomials included, is integer
long division (`_exact_quotient`), which gives up at the first fractional
quotient coefficient.
"""

import cmath
from dataclasses import dataclass
from functools import lru_cache

from mpmath import arg, mp, mpc, mpf, nstr, workprec

from .errors import NotSalemError, RsadynError, ValidationError
from .numeric import (GaussianFixed, check_precision, fixed_scale,
                      mpc_to_json, tolerance_for,
                      unconditional_cyclotomic_bound)


class IntPolynomial:
    """Exact integer-coefficient univariate polynomial.

    Coefficients are stored ascending by degree with no trailing zeros; the
    zero polynomial has an empty coefficient tuple. Instances are immutable
    and hashable. A coefficient must equal its int(): ints and integral
    Fractions are accepted, anything else raises ValidationError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        cs = [int(c) for c in coeffs]
        if cs != coeffs:
            bad = next(c for c, i in zip(coeffs, cs) if c != i)
            raise ValidationError("non-integral coefficient %r" % (bad,))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    # -- basic structure ---------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IntPolynomial(%r)" % (list(self.coeffs),)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPolynomial([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                              for i in range(n)])

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial([other])
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        if not self or not other:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def divmod_exact(self, divisor):
        """Exact quotient self / divisor as an IntPolynomial.

        Integer long division (`_exact_quotient`). Raises RsadynError when
        the division is not exact over the integers (a fractional quotient
        coefficient or a nonzero remainder).
        """
        q = _exact_quotient(self.coeffs, divisor.coeffs)
        if q is None:
            raise RsadynError(
                "polynomial division is not exact over the integers")
        return IntPolynomial(q)

    def derivative(self):
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        """Horner value at x, from the integer 0: an int, Fraction, complex
        or mpc x gives a value of that type (mpc at the ambient precision)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_palindromic(self):
        return self.coeffs == tuple(reversed(self.coeffs))

    # -- serialization -------------------------------------------------------

    def to_json(self):
        """JSON form: array of decimal integer strings, ascending degree."""
        return [str(c) for c in self.coeffs]


def _exact_quotient(num, den):
    """Quotient of two ascending integer coefficient sequences, or None.

    Long division over Z: each quotient coefficient is the leading
    remainder coefficient divided by den's leading coefficient with
    divmod. Returns None at the first quotient coefficient that is not an
    integer, or when the remainder is not zero.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    lead = den[-1]
    rem = list(num)
    q = [0] * max(0, len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        digit, r = divmod(rem[k], lead)
        if r:
            return None
        q[k - dd] = digit
        if digit:
            for i in range(dd):
                rem[k - dd + i] -= digit * den[i]
    if any(rem[:dd]):
        return None
    return q


@lru_cache(maxsize=None)
def cyclotomic(d):
    """The d-th cyclotomic polynomial, by recursive exact division."""
    num = IntPolynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = num.divmod_exact(cyclotomic(e))
    return num


def salem_polynomial(n, m):
    """Exact expansion of t(t^{nm}-1)(t^n-2t^{n-1}+1)/((t^n-1)(t-1)) + 1.

    Valid for n >= 3, m >= 1; the two divisions are exact. Degree nm,
    constant term 1, palindromic coefficients.
    """
    if n < 3 or m < 1:
        raise ValidationError("require n >= 3 and m >= 1, got n=%r m=%r" % (n, m))
    tnm = IntPolynomial([-1] + [0] * (n * m - 1) + [1])
    head = IntPolynomial([1] + [0] * (n - 2) + [-2, 1])     # t^n - 2 t^{n-1} + 1
    t = IntPolynomial([0, 1])
    numerator = t * tnm * head
    tn = IntPolynomial([-1] + [0] * (n - 1) + [1])
    quotient = numerator.divmod_exact(tn).divmod_exact(IntPolynomial([-1, 1]))
    return quotient + 1


def find_roots(poly, precision_bits):
    """All roots (with multiplicity) by Aberth simultaneous iteration.

    One Aberth loop (`_aberth`) runs twice: on Python complex from deg
    points on the circle of radius 1 + 1/deg (kept as they are when the
    coefficients or iterates leave the float range), then on
    `GaussianFixed` from those values. In both, each root stops at its own
    residual target, rel * max(1, sum |c_k| |w|^k) at its start point and
    at the point reached, with rel 2**-40 in complex and
    2**(-precision_bits-32) in fixed point. The fixed-point scale is the
    working precision precision_bits + max(96, precision_bits // 2) plus
    the binary exponent of the smallest start below 1/2. Residuals are
    verified as a backward error on the type, at scale precision_bits + 64
    plus the same small-root bits: |p(root)| must be below
    2**(-precision_bits/2) * max(1, sum |c_k| |root|^k). Failure to
    converge within 128 + precision_bits steps raises RsadynError naming
    the target missed.

    Returns deg(poly) mpc values sorted by (argument, modulus) so that a
    root index is reproducible across runs and precisions; a real root
    (imaginary part below tolerance) sorts at argument 0 or pi by its
    sign, so 1/lambda comes before lambda and -1 is last.
    """
    precision_bits = check_precision(precision_bits)
    if poly.degree() < 1:
        raise ValidationError("find_roots requires a nonconstant polynomial")

    # Zero roots split off exactly so Aberth never sees them.
    nzero = 0
    coeffs = list(poly.coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
        nzero += 1
    reduced = IntPolynomial(coeffs)
    deg = reduced.degree()
    if deg == 0:
        # pure power t^k: nothing left for the iteration
        with workprec(precision_bits):
            return [mpc(0)] * nzero
    circle = [(1 + 1 / deg) * cmath.exp(2j * cmath.pi * (k + 0.25) / deg)
              for k in range(deg)]
    try:
        starts, _ = _aberth(reduced, circle, 2.0 ** -40, 128 + 53, 2.0 ** -53)
    except OverflowError:
        starts = circle
    if not all(cmath.isfinite(z) for z in starts):
        starts = circle

    # Residual targets far below the certificate tolerance 2^(-bits/2): a
    # double root with relative residual 2^(-bits-32) is located to
    # ~2^(-bits/2-16), so modulus classification keeps headroom even for
    # clustered roots. Each target carries the backward-error scale of the
    # final check, so it stays above the rounding floor of p(z) at high
    # degree (about lambda^80 * 2^-(working bits) at degree 80).
    work = precision_bits + max(96, precision_bits // 2)
    scale = fixed_scale(work, starts)
    with workprec(work):
        roots, miss = _aberth(reduced,
                              [GaussianFixed.from_number(z, scale)
                               for z in starts],
                              mpf(2) ** (-(precision_bits + 32)),
                              128 + precision_bits, GaussianFixed(1, 0, scale))
        if miss:
            i, residual, target = miss
            raise RsadynError(
                "Aberth iteration missed residual target %s at root %d "
                "(residual %s)" % (mp_str(target), i, mp_str(residual)))

    # backward error: |p(z)| against tol * max(1, sum |c_k| |z|^k), the
    # size of the terms whose rounding it measures (at lambda ~ 2 and
    # degree 40 the floor alone is about lambda^40 * 2^-bits)
    absolute = IntPolynomial([abs(c) for c in poly.coeffs])
    with workprec(precision_bits):
        tol = tolerance_for(precision_bits)
        out = [mpc(0)] * nzero + [mp.make_mpc(z._mpc_) for z in roots]
        check = fixed_scale(precision_bits + 64, out)
        bad = max(abs(poly(GaussianFixed.from_number(z, check)))
                  / max(1, absolute(abs(z))) for z in out)
        if bad >= tol:
            raise RsadynError(
                "scaled root residual %s above tolerance" % mp_str(bad))
        out.sort(key=lambda z: (arg(z.real if abs(z.imag) < tol else z),
                                abs(z)))
    return out


def mp_str(x):
    return nstr(x, 8)


def _aberth(poly, roots, rel, steps, eps):
    """Aberth simultaneous iteration on poly from the start points roots.

    Runs in the roots' own number type: Python complex with eps = 2^-53, or
    `GaussianFixed` with eps = 2^-scale as a value of that type (eps is the
    type's unit roundoff). A root stays put, and is not evaluated again,
    once |poly(z)| is below rel * max(1, sum |c_k| |w|^k), the scale taken
    at 53 bits, both at its start point w = z0 and at the point w = z
    reached. Returns (roots, miss): miss is None when every root met its
    target within `steps` iterations, else (index, residual, target) for
    the root furthest above its target.
    """
    absolute = IntPolynomial([abs(c) for c in poly.coeffs])

    def target_at(z):
        with workprec(53):
            return rel * max(1, absolute(abs(z)))

    targets = [target_at(z) for z in roots]
    dpoly = poly.derivative()
    values = [None] * len(roots)
    live = range(len(roots))
    for _ in range(steps):
        for i in live:
            values[i] = poly(roots[i])
        residuals = [abs(v) for v in values]
        for i in live:
            if residuals[i] < targets[i]:
                # a start far from its root (10^60 t^2 - 1 from the circle)
                # carries a scale the root does not have
                targets[i] = min(targets[i], target_at(roots[i]))
        live = [i for i, (r, t) in enumerate(zip(residuals, targets))
                if r >= t]
        if not live:
            return roots, None
        new_roots = list(roots)
        for i in live:
            z, pz = roots[i], values[i]
            dz = dpoly(z)
            if dz == 0:
                # nudge off a critical point, deterministically
                z = z + eps ** (1 / 3) * (1 + 1j)
                dz, pz = dpoly(z), poly(z)
            w = pz / dz
            s = sum(1 / ((z - zj) or 256 * eps)
                    for jj, zj in enumerate(roots) if jj != i)
            denom = 1 - w * s
            new_roots[i] = z - (w / denom if denom != 0 else w)
        roots = new_roots
    i = max(range(len(roots)), key=lambda i: residuals[i] / targets[i])
    return roots, (i, residuals[i], targets[i])


def cyclotomic_part(poly, k_max=None):
    """Factor out every cyclotomic divisor of order <= k_max.

    Returns (core, factors) where factors is a list of (order, multiplicity)
    and core is poly divided by the product of those cyclotomic powers.
    """
    if k_max is None:
        k_max = unconditional_cyclotomic_bound(poly.degree())
    core = poly
    factors = []
    for d in range(1, k_max + 1):
        phi = cyclotomic(d)
        if phi.degree() > core.degree():
            continue
        mult = 0
        while (q := _exact_quotient(core.coeffs, phi.coeffs)) is not None:
            core = IntPolynomial(q)
            mult += 1
        if mult:
            factors.append((d, mult))
    return core, factors


@dataclass(frozen=True)
class SalemCertificate:
    """Verified root-distribution data for a Salem polynomial.

    lambda_root is the unique real root > 1; unit_roots hold every root with
    modulus within `tolerance` of 1 (sorted by (argument, modulus));
    nonunity_unit_roots are the unit roots additionally certified not to be
    roots of unity (exact cyclotomic sweep up to cyclotomic_clearance).
    """

    poly: IntPolynomial
    lambda_root: object
    unit_roots: tuple
    nonunity_unit_roots: tuple
    tolerance: object
    cyclotomic_clearance: int
    precision_bits: int

    def to_json(self):
        bits = self.precision_bits
        return {
            "poly": self.poly.to_json(),
            "lambda": mpc_to_json(self.lambda_root, bits),
            "unit_roots": [mpc_to_json(z, bits) for z in self.unit_roots],
            "nonunity_unit_root_count": len(self.nonunity_unit_roots),
            "tolerance": mp_str(self.tolerance),
            "cyclotomic_clearance": self.cyclotomic_clearance,
            "precision_bits": bits,
        }


def salem_certificate(poly, precision_bits):
    """Certify the Salem root distribution of an integer polynomial.

    Requirements checked, in order: palindromic coefficients; exactly one
    root with modulus > 1 + tol, real, with its reciprocal also a root; all
    remaining roots within tol of the unit circle; not every root a root of
    unity (exact cyclotomic sweep). Raises NotSalemError naming the failure.
    """
    precision_bits = check_precision(precision_bits)
    if poly.degree() < 2:
        raise NotSalemError("degree < 2 cannot carry a Salem distribution")
    with workprec(precision_bits):
        tol = tolerance_for(precision_bits)

        clearance = unconditional_cyclotomic_bound(poly.degree())
        core, _ = cyclotomic_part(poly, clearance)
        if core.degree() == 0:
            raise NotSalemError(
                "no root of modulus > 1; all roots are roots of unity")

        roots = find_roots(poly, precision_bits)
        large = [z for z in roots if abs(z) > 1 + tol]
        unit = [z for z in roots if abs(abs(z) - 1) < tol]
        small = [z for z in roots if abs(z) < 1 - tol]

        if not large:
            raise NotSalemError("no root of modulus > 1")
        if len(large) > 1:
            raise NotSalemError("more than one root of modulus > 1")
        lam = large[0]
        if abs(lam.imag) > tol:
            raise NotSalemError("the root of modulus > 1 is not real")
        lam = mpf(lam.real)
        if len(small) != 1:
            raise NotSalemError("expected exactly one root inside the unit circle")
        if abs(small[0] - 1 / lam) > tol:
            raise NotSalemError("1/lambda is not a root")
        if len(unit) != poly.degree() - 2:
            raise NotSalemError("a root is neither lambda, 1/lambda nor on the "
                                "unit circle")
        if not poly.is_palindromic():
            raise NotSalemError("coefficients are not palindromic")

        # unit roots certified off the roots of unity: roots of the
        # cyclotomic-free core
        core_tol = tolerance_for(precision_bits // 2)
        check = precision_bits + 64
        nonunity = tuple(
            z for z in unit
            if abs(core(GaussianFixed.from_number(z, check))) < core_tol)

        return SalemCertificate(
            poly=poly,
            lambda_root=lam,
            unit_roots=tuple(unit),
            nonunity_unit_roots=nonunity,
            tolerance=tol,
            cyclotomic_clearance=clearance,
            precision_bits=precision_bits,
        )
