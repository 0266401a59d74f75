"""High-precision and hardware-precision dynamical probes.

Covers: candidate return times from the continued fraction of the
transverse multiplier's angle; near-identity return measurement close to
the invariant line; recurrence rasters over 2-plane chart slices; and
slice-radius bracketing along the radial leaves.

The raster and slice probes run in hardware precision through the kernels
in ._kernels (a numpy block loop, and `family`'s plain-Python scalar
cells), and the precision-doubling mirror runs the same cell classifier on
fixed-point Gaussian integers (`numeric.GaussianFixed`); everything else
is mpmath at the parameter pack's precision, or plain complex where
hardware precision demonstrably suffices (documented per function).
"""

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice, takewhile

import numpy as np
from mpmath import arg, floor, mpc, mpf, pi, workprec

from . import _kernels, family
from .errors import ValidationError
from .numeric import GaussianFixed, check_precision, fixed_scale


# ---------------------------------------------------------------------------
# candidate return times
# ---------------------------------------------------------------------------

_MAX_CANDIDATES = 64   # candidate_times returns at most this many


def _denominators(lam, precision_bits):
    """Continued-fraction convergent denominators of arg(lam)/2pi, ascending.

    These are the candidate near-identity return times: |lam^q - 1| tends to
    0 along them. The generator stops where the angle is rational to working
    precision (a root of unity, or precision_bits too low): a remainder below
    2^(-3 bits/4) or a partial quotient above 2^(bits/2). mpmath work runs
    under workprec between yields only, so consumers see their own context.
    """
    with workprec(precision_bits):
        theta = arg(mpc(lam)) / (2 * pi)
        x = theta - floor(theta)
        cutoff = mpf(2) ** (-(precision_bits * 3 // 4))
        digit_cap = mpf(2) ** (precision_bits // 2)
        if 1 - x < cutoff:      # just below a full turn: rational as well
            return
    q_prev, q_cur = 0, 1            # denominators k_{-1}, k_0
    while True:
        with workprec(precision_bits):
            if x < cutoff:
                return
            a = int(floor(1 / x))
            if a > digit_cap:
                return
            x = 1 / x - a
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield q_cur


def return_times(lam, count, precision_bits=256):
    """The first `count` continued-fraction return times of lam.

    A rational angle (root of unity), or precision too low for `count`
    denominators, violates the precondition and raises ValidationError.
    """
    precision_bits = check_precision(precision_bits)
    if count < 1:
        raise ValidationError("count must be positive")
    out = list(islice(_denominators(lam, precision_bits), count))
    if len(out) < count:
        raise ValidationError("angle is rational to working precision (root "
                              "of unity), or precision_bits too low")
    return out


def candidate_times(lam, budget, precision_bits=256):
    """All return-time candidates <= budget (ascending, at most 64)."""
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    out = list(takewhile(lambda q: q <= budget,
                         islice(_denominators(lam, precision_bits),
                                _MAX_CANDIDATES)))
    if not out:
        raise ValidationError("no return-time candidate within budget %r"
                              % (budget,))
    return out


def default_budget(lam, precision_bits=256, at_least=10 ** 4):
    """First return-time candidate >= at_least (the default raster budget)."""
    return next((q for q in _denominators(lam, precision_bits)
                 if q >= at_least), at_least)


# ---------------------------------------------------------------------------
# near-identity returns along the invariant line
# ---------------------------------------------------------------------------

_NEAR_LINE_T = 1e-6     # near_identity_returns: transverse sample distance


def near_identity_returns(params, n_candidates=5, n_samples=100, seed=0):
    """Sup over samples of the distance of the q-th return to the identity.

    Samples sit at transverse distance _NEAR_LINE_T from the invariant line,
    spread along it away from the blown-up points; for each candidate
    return time q the sup over samples of dist(H^q z, z) is returned. All
    samples run together in one lockstep pass up to the largest q
    (`_kernels.return_distances`), read at each q.
    Hardware precision: the measured distances are >= _NEAR_LINE_T
    |lam^q - 1|, which stays far above rounding noise. The sequence is
    expected to decrease along candidates (near-identity returns).
    """
    import random
    if n_samples < 1:
        raise ValidationError("n_samples must be positive")
    rng = random.Random(seed)
    qs = return_times(params.lam, n_candidates, params.precision_bits)
    delta = complex(params.delta)
    c = complex(params.c)
    n = params.n
    orbit_vals = [complex(w) for w in params.orbit]

    samples = []
    while len(samples) < n_samples:
        w = complex(rng.uniform(0.1, 1.5), rng.uniform(-0.7, 0.7))
        if min(abs(w - wv) for wv in orbit_vals) < 0.05 or abs(w) < 0.05:
            continue
        phase = rng.uniform(0.0, 2.0 * math.pi)
        t = _NEAR_LINE_T * complex(math.cos(phase), math.sin(phase))
        samples.append((t, 1.0 + 0.0j, w))

    T, X, Y = zip(*samples)
    dists = _kernels.return_distances(T, X, Y, delta, c, n, qs)
    sups = [max(0.0, float(row.max())) for row in dists]
    return {"candidates": qs, "sup_distances": sups}


# The Birkhoff average lives in family, next to the multipliers it uses, and
# runs without numpy. The name stays bound here only because the benchmark's
# tracer lists probes.birkhoff_linearize among the functions it wraps.
birkhoff_linearize = family.birkhoff_linearize


# ---------------------------------------------------------------------------
# recurrence rasters
# ---------------------------------------------------------------------------

@dataclass
class RasterGrid:
    """Classification raster over a real 2-plane chart slice."""

    chart: str
    window: tuple            # (x0, x1, y0, y1)
    resolution: tuple        # (width, height)
    budget: int
    eps: float
    candidates: tuple
    classes: object          # uint8 (height, width)
    return_steps: object     # int64 (height, width), as _classify_cell

    def counts(self):
        vals, cnts = np.unique(self.classes, return_counts=True)
        base = {"non_recurrent": 0, "indeterminate": 0, "recurrent": 0}
        names = {_kernels.CLASS_NONRECURRENT: "non_recurrent",
                 _kernels.CLASS_INDETERMINATE: "indeterminate",
                 _kernels.CLASS_RECURRENT: "recurrent"}
        for v, ct in zip(vals, cnts):
            base[names[int(v)]] = int(ct)
        return base

    def to_pgm_bytes(self):
        """P5 raster: 255 recurrent, 128 indeterminate-hit, 0 non-recurrent."""
        h, w = self.classes.shape
        lut = np.array([0, 128, 255], dtype=np.uint8)
        body = lut[self.classes].tobytes()
        header = ("P5\n%d %d\n255\n" % (w, h)).encode("ascii")
        return header + body

    def write_pgm(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_pgm_bytes())

    def write_csv(self, path):
        x0, x1, y0, y1 = self.window
        w, h = self.resolution
        us = np.linspace(x0, x1, w)
        vs = np.linspace(y0, y1, h)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "u", "v", "class", "return_step"])
            for r in range(h):
                for cidx in range(w):
                    writer.writerow([r, cidx, repr(us[cidx]), repr(vs[r]),
                                     int(self.classes[r, cidx]),
                                     int(self.return_steps[r, cidx])])


@np.errstate(all="ignore")
def _chart_states(chart, window, resolution, basepoint=None):
    """Complex homogeneous start coordinates for every grid point.

    Grid points are the inclusive linspace of the window, so a window edge
    at 0 places a full row exactly on the invariant line. Charts:
    "line": (u, v) -> [v : 1 : u] (u along the line, v transverse; the
    row v = 0 is the line itself); "affine": (u, v) -> [1 : b1+u : b2+v].
    Every coordinate must come out finite: a non-finite window or base
    point, or finite ones whose grid overflows, raise ValidationError.
    """
    x0, x1, y0, y1 = window
    w, h = resolution
    if w < 2 or h < 2:
        raise ValidationError("resolution must be at least 2x2")
    us = np.linspace(x0, x1, w)
    vs = np.linspace(y0, y1, h)
    uu, vv = np.meshgrid(us, vs)
    if chart == "line":
        T = vv.astype(np.complex128)
        X = np.ones_like(T)
        Y = uu.astype(np.complex128)
    elif chart == "affine":
        b1, b2 = (0j, 0j) if basepoint is None else (complex(basepoint[0]),
                                                     complex(basepoint[1]))
        T = np.ones((h, w), dtype=np.complex128)
        X = b1 + uu.astype(np.complex128)
        Y = b2 + vv.astype(np.complex128)
    else:
        raise ValidationError("unknown chart %r" % (chart,))
    if not all(np.isfinite(a).all() for a in (T, X, Y)):
        raise ValidationError("window %r and basepoint %r give non-finite "
                              "grid coordinates" % (tuple(window), basepoint))
    return T, X, Y


def check_raster_options(chart, eps, threads, basepoint=None):
    """Raise ValidationError on a raster option, before pack or grid.

    eps must lie in (0, 1): only eps^2 reaches the kernels, so a negative
    eps would act as |eps|, and the projective distance never exceeds 1,
    so eps >= 1 would pass every cell. Only the affine chart reads a base
    point, and threads must be at least 1.
    """
    if not 0 < eps < 1:
        raise ValidationError("eps must lie in (0, 1), got %r" % (eps,))
    if basepoint is not None and chart != "affine":
        raise ValidationError("basepoint applies to the affine chart only, "
                              "not %r" % (chart,))
    if int(threads) < 1:
        raise ValidationError("threads must be >= 1, got %r" % (threads,))


def siegel_raster(params, chart, window, resolution, budget=None, eps=1e-3,
                  threads=1, basepoint=None):
    """Classify every grid point as recurrent / non-recurrent / indeterminate.

    A point is recurrent when some candidate return time <= budget brings
    the orbit back within eps (projective distance); otherwise it is
    non-recurrent-within-budget -- an honest budgeted statement, no escape
    claim. Deterministic: same window, resolution, budget and eps give
    byte-identical rasters for any thread count (cells are independent pure
    functions). Options and budget are checked before the grid is built.
    At most os.cpu_count() workers run: the lockstep loop holds the
    interpreter lock between its small numpy calls, so more gain nothing.
    """
    check_raster_options(chart, eps, threads, basepoint)
    threads = min(int(threads), os.cpu_count() or 1)
    if budget is None:
        budget = default_budget(params.lam, params.precision_bits)
    cands = np.array(candidate_times(params.lam, budget,
                                     params.precision_bits), dtype=np.int64)
    T, X, Y = _chart_states(chart, window, resolution, basepoint)
    h, w = T.shape
    delta = complex(params.delta)
    c = complex(params.c)
    n = params.n

    classes = np.zeros((h, w), dtype=np.uint8)
    steps = np.full((h, w), -1, dtype=np.int64)

    def run_rows(r0, r1):
        cl, st = _kernels.classify_block(
            T[r0:r1].ravel(), X[r0:r1].ravel(), Y[r0:r1].ravel(),
            delta, c, n, cands, eps)
        classes[r0:r1] = cl.reshape(r1 - r0, w)
        steps[r0:r1] = st.reshape(r1 - r0, w)

    if threads == 1:
        run_rows(0, h)
    else:
        block = (h + threads - 1) // threads
        spans = [(i * block, min(h, (i + 1) * block))
                 for i in range(threads) if i * block < h]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda sp: run_rows(*sp), spans))

    return RasterGrid(chart=chart, window=tuple(window),
                      resolution=tuple(resolution), budget=int(budget),
                      eps=float(eps), candidates=tuple(int(q) for q in cands),
                      classes=classes, return_steps=steps)


_TINY2_BITS = 1 - math.frexp(family._TINY2)[1]   # 2^-B <= _TINY2 < 2^(1-B)


def classify_point_mp(params, point, candidates, eps, precision_bits=None):
    """Fixed-point mirror of the kernel cell classifier (precision studies).

    Runs the kernels' own cell classifier, `family._classify_cell`, on
    `GaussianFixed` values with the same candidate schedule; used by the
    precision-doubling stability check. precision_bits defaults to the
    parameter pack's precision. The point, delta, c and eps are each
    rounded once to the scale S = max(precision_bits, B) + 64 + k: B = 399
    is the bit position of the indeterminacy floor `family._TINY2`
    (1e-120), so squared magnitudes near it are resolved, and k is the
    binary exponent of the smallest start coordinate below 1/2
    (`numeric.fixed_scale`, the small-root bits of `salem.find_roots`), so
    a tiny coordinate keeps its precision instead of rounding to 0.
    """
    bits = check_precision(params.precision_bits if precision_bits is None
                           else precision_bits)
    scale = fixed_scale(max(bits, _TINY2_BITS) + 64, point)
    t, x, y, delta, c, e = (GaussianFixed.from_number(v, scale) for v in
                            (*point, params.delta, params.c, eps))
    cl, st = family._classify_cell(t, x, y, delta, c, params.n,
                                   [int(q) for q in candidates], e * e)
    return int(cl), int(st)


# ---------------------------------------------------------------------------
# slice radius along radial leaves
# ---------------------------------------------------------------------------

_SLICE_R_INIT = 1e-3       # slice_radius: first probed radius
_SLICE_DOUBLINGS = 40      # slice_radius: doubling steps before giving up
_SLICE_BISECTIONS = 30     # slice_radius: geometric bisection steps


def slice_radius(params, w, budget=None):
    """Bracket the recurrent radius along the radial leaf through [0:1:w].

    Probes points [r : 1 : w] for real r > 0 (the domain is circled in the
    leaf coordinate, so the modulus alone matters): r_lo is the largest
    tested radius with all smaller tested radii recurrent, r_hi the
    smallest tested non-recurrent radius. The prediction is a finite
    positive bracket. Deterministic (pure bisection, no sampling).
    """
    if budget is None:
        budget = default_budget(params.lam, params.precision_bits, at_least=2048)
    cands = np.array(candidate_times(params.lam, budget,
                                     params.precision_bits), dtype=np.int64)
    delta = complex(params.delta)
    c = complex(params.c)
    n = params.n
    wc = complex(w)
    eps = 1e-3                  # recurrence distance

    probes = 0

    def recurrent(r):
        nonlocal probes
        probes += 1
        cl, _ = _kernels.classify_point(r, 1.0, wc, delta, c, n, cands, eps)
        return cl == _kernels.CLASS_RECURRENT

    r = _SLICE_R_INIT
    shrink = 0
    while not recurrent(r):
        r /= 10.0
        shrink += 1
        if shrink > 6:
            return {"r_lo": 0.0, "r_hi": float("inf"), "inconclusive": True,
                    "probes": probes, "budget": int(budget)}
    r_lo = r
    r_hi = None
    for _ in range(_SLICE_DOUBLINGS):
        r *= 2.0
        if not recurrent(r):
            r_hi = r
            break
        r_lo = r
    if r_hi is None:
        return {"r_lo": r_lo, "r_hi": float("inf"), "inconclusive": True,
                "probes": probes, "budget": int(budget)}
    for _ in range(_SLICE_BISECTIONS):
        mid = math.sqrt(r_lo * r_hi)
        if recurrent(mid):
            r_lo = mid
        else:
            r_hi = mid
    return {"r_lo": r_lo, "r_hi": r_hi, "inconclusive": False,
            "probes": probes, "budget": int(budget)}
