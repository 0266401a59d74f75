"""Hot orbit-classification kernels: numpy block loops.

The raster, slice and near-identity probes iterate the homogeneous map

    [t : x : y] -> [t y : y^2 : -delta x y + c y^2 + t^2]

in hardware complex128, renormalizing each step so the largest-modulus
coordinate is 1. Points with t exactly 0 lie on the invariant line, where
the map restricts to the nonsingular linear action (x, y) -> (y, -delta x +
c y); using that branch keeps the whole line (including the blown-up
points) iterable. Recurrence is detected by the projective cross-product
distance against the starting point, sampled at the candidate return times.

The scalar step (`family.step`), the squared-distance helpers (`_dist2`,
`_norm2`) and the cell classifier (`_classify_cell`) live in `family`,
which loads without numpy; `classify_point` runs that classifier on
complex for one start point.

The array kernels share one lockstep walk (`_lockstep`): one renormalized
numpy map step (`_block_step`, the arithmetic of `family.step` per cell)
and the distance from `_dist2`, stepping only the cells still unresolved
or alive (their arrays shrink as cells drop out). `classify_block`
classifies blocks of raster cells on it, and `return_distances` reads the
distance to the start of many samples at a list of return times
(near-identity returns; `h_orbit_distances` is its one-sample form) from
the same walk run with a zero recurrence radius. Results are deterministic
run-to-run and across thread counts (cells are independent).
"""

import numpy as np

# the class codes stay readable here, beside the classes they label (the
# probes and the benchmark's tracer read them as _kernels.CLASS_*)
from .family import (CLASS_INDETERMINATE, CLASS_NONRECURRENT,
                     CLASS_RECURRENT, _TINY2, _classify_cell, _dist2,
                     _norm2)

# the one backend, recorded in benchmark provenance
BACKEND = "numpy"
HAVE_NUMBA = False


def _mag2(Z):
    """Squared modulus, elementwise."""
    return Z.real * Z.real + Z.imag * Z.imag


def _block_step(T, X, Y, delta, c):
    """One renormalized map step of complex128 arrays; returns (T, X, Y, dead).

    Per cell the arithmetic is that of one pass of `family.step`. dead is
    None when every image is live; otherwise it is the mask of the cells
    whose image vanished, and those cells are dropped from the returned
    arrays.
    """
    NT = T * Y
    NX = Y * Y
    NY = -delta * X * Y + c * Y * Y + T * T
    is0 = T == 0
    if is0.any():
        NT = np.where(is0, 0j, NT)
        NX = np.where(is0, Y, NX)
        NY = np.where(is0, -delta * X + c * Y, NY)
    a2t, a2x, a2y = _mag2(NT), _mag2(NX), _mag2(NY)
    m2 = np.maximum(np.maximum(a2t, a2x), a2y)
    piv = np.where(a2t == m2, NT, np.where(a2x == m2, NX, NY))
    dead = m2 < _TINY2
    if dead.any():
        ok = ~dead
        NT, NX, NY, piv = NT[ok], NX[ok], NY[ok], piv[ok]
    else:
        dead = None
    return NT / piv, NX / piv, NY / piv, dead


def _lockstep(T, X, Y, delta, c, n, times, eps2, dist=None):
    """Walk flat arrays of cells in lockstep; returns (classes, steps).

    Per cell the arithmetic is that of `_classify_cell` on candidate times
    `times` and squared radius eps2. Only live cells are stepped: `live`
    holds their indices into the block, and the state arrays are sliced
    down to the survivors whenever cells resolve, so no masked merge runs
    in the inner loop. When dist is given, row k of it receives each live
    cell's distance to its start after times[k] n-fold iterates.
    """
    T = np.asarray(T, dtype=np.complex128)
    X = np.asarray(X, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    ncells = T.shape[0]
    classes = np.zeros(ncells, dtype=np.uint8)
    steps = np.full(ncells, -1, dtype=np.int64)

    with np.errstate(all="ignore"):
        m2 = np.maximum(np.maximum(_mag2(T), _mag2(X)), _mag2(Y))
        dead = m2 < _TINY2
        classes[dead] = CLASS_INDETERMINATE
        live = np.flatnonzero(~dead)
        T, X, Y = T[live], X[live], Y[live]
        T0, X0, Y0 = T, X, Y
        den0 = _norm2(T0, X0, Y0)

        def keep(mask):
            """Slice the live cells and their start points down to mask."""
            nonlocal live, T0, X0, Y0, den0
            live = live[mask]
            T0, X0, Y0, den0 = T0[mask], X0[mask], Y0[mask], den0[mask]

        h = 0
        for row, target in enumerate(times):
            while h < target and live.size:
                for _ in range(n):
                    T, X, Y, dead = _block_step(T, X, Y, delta, c)
                    if dead is not None:
                        classes[live[dead]] = CLASS_INDETERMINATE
                        steps[live[dead]] = h
                        keep(~dead)
                h += 1
            if not live.size:
                break
            num, den = _dist2(T, X, Y, T0, X0, Y0, den0)
            if dist is not None:
                dist[row, live] = np.sqrt(num / den)
            hit = num < eps2 * den
            if hit.any():
                classes[live[hit]] = CLASS_RECURRENT
                steps[live[hit]] = target
                ok = ~hit
                T, X, Y = T[ok], X[ok], Y[ok]
                keep(ok)
    return classes, steps


def classify_block(T, X, Y, delta, c, n, candidates, eps):
    """Classify flat arrays of cells in lockstep; returns (classes, steps)."""
    return _lockstep(T, X, Y, delta, c, n, candidates, float(eps) ** 2)


def return_distances(T, X, Y, delta, c, n, times):
    """Distances to the start after each of the n-fold return times.

    T, X, Y hold the start points; times must be increasing. Returns an
    array of shape (len(times), N) whose row k holds every sample's
    projective distance to its start after times[k] n-fold iterates. A
    sample's entries are -1 from its first indeterminate hit onward (and
    throughout for a start that is itself [0:0:0]). A zero radius never
    drops a sample as recurrent.
    """
    out = np.full((len(times), len(T)), -1.0)
    _lockstep(T, X, Y, delta, c, n, times, 0.0, dist=out)
    return out


def h_orbit_distances(t, x, y, delta, c, n, nsteps):
    """Distances to the start after each of nsteps n-fold iterates.

    Entries are -1 from the first indeterminate hit onward.
    """
    return return_distances([t], [x], [y], complex(delta), complex(c), n,
                            range(1, int(nsteps) + 1))[:, 0]


def classify_point(t, x, y, delta, c, n, candidates, eps):
    """Single-point classification through the same cell logic."""
    cl, st = _classify_cell(complex(t), complex(x), complex(y),
                            complex(delta), complex(c), int(n),
                            np.asarray(candidates, dtype=np.int64),
                            float(eps) ** 2)
    return int(cl), int(st)
