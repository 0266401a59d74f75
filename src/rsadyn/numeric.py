"""Arbitrary-precision complex plumbing shared across modules.

All high-precision state is carried by mpmath values; operations that care
about precision run inside ``workprec`` blocks keyed by an explicit
``precision_bits`` argument, so results are reproducible independent of the
ambient mpmath context.
"""

import math

from mpmath import mp, mpc, mpf, workprec

from .errors import ValidationError

MIN_PRECISION = 64


def check_precision(bits):
    if bits < MIN_PRECISION:
        raise ValidationError("precision_bits must be >= %d, got %r"
                              % (MIN_PRECISION, bits))
    return int(bits)


def tolerance_for(bits):
    """Default residual tolerance 2**(-bits/2) as an mpf."""
    with workprec(bits):
        return mpf(2) ** (-(bits // 2))


def dps_for(bits):
    """Decimal digits that faithfully carry a ``bits``-bit mantissa."""
    return int(bits / 3.3219280948873626) + 5


def mpc_to_json(z, bits):
    """Serialize one complex value to {re, im} decimal strings."""
    d = dps_for(bits)
    with workprec(bits):
        zz = mpc(z)
        return {"re": mp.nstr(zz.real, d, strip_zeros=False),
                "im": mp.nstr(zz.imag, d, strip_zeros=False)}


def mpc_from_json(obj, bits):
    with workprec(bits):
        return mpc(mpf(obj["re"]), mpf(obj["im"]))


def proj_normalize(coords):
    """Scale a projective coordinate tuple so its largest-|.| entry is 1.

    Ties pick the first maximal index, which keeps the representative
    deterministic. Raises ZeroDivisionError on the zero vector.
    """
    mags = [abs(c) for c in coords]
    best = max(range(len(coords)), key=lambda i: (mags[i], -i))
    pivot = coords[best]
    if pivot == 0:
        raise ZeroDivisionError("cannot normalize the zero vector")
    return tuple(c / pivot for c in coords)


def proj_distance(p, q):
    """Fubini-Study-style projective distance |p x q| / (|p| |q|).

    Works for 2- and 3-component tuples; smooth, chart-free and zero exactly
    on projective equality.
    """
    if len(p) == 2:
        cross_sq = abs(p[0] * q[1] - p[1] * q[0]) ** 2
    else:
        c1 = p[1] * q[2] - p[2] * q[1]
        c2 = p[2] * q[0] - p[0] * q[2]
        c3 = p[0] * q[1] - p[1] * q[0]
        cross_sq = abs(c1) ** 2 + abs(c2) ** 2 + abs(c3) ** 2
    np2 = sum(abs(c) ** 2 for c in p)
    nq2 = sum(abs(c) ** 2 for c in q)
    from mpmath import sqrt
    return sqrt(cross_sq / (np2 * nq2))


def mat2_mul(a, b):
    """Product of two 2x2 matrices given as nested row tuples."""
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat2_pow(m, k):
    """m^k for k >= 0 by binary powering (mpc identity for k = 0)."""
    out = ((mpc(1), mpc(0)), (mpc(0), mpc(1)))
    base = m
    while k:
        if k & 1:
            out = mat2_mul(out, base)
        base = mat2_mul(base, base)
        k >>= 1
    return out


def totient(k):
    """Euler's phi via trial factorization (small k only)."""
    result = k
    p = 2
    n = k
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def unconditional_cyclotomic_bound(degree):
    """Largest k with phi(k) <= degree.

    Any cyclotomic factor of a degree-d integer polynomial has order k with
    phi(k) <= d, so sweeping k up to this bound is an unconditional
    root-of-unity certificate. phi(k) >= sqrt(k/2) gives the scan cap.
    """
    cap = max(16, 2 * degree * degree + 1)
    best = 1
    for k in range(1, cap + 1):
        if totient(k) <= degree:
            best = k
    return best


def fit_slope(xs, ys):
    """Least-squares slope of ys against xs, None when every x is equal."""
    nn, sx, sy = len(xs), sum(xs), sum(ys)
    sxx, sxy = sum(x * x for x in xs), sum(x * y for x, y in zip(xs, ys))
    denom = nn * sxx - sx * sx
    return (nn * sxy - sx * sy) / denom if denom != 0 else None


def float_log2(x):
    """log2 of a positive mpf as a python float (for reporting)."""
    try:
        return float(mp.log(x, 2))
    except (ValueError, ZeroDivisionError):
        return -math.inf
