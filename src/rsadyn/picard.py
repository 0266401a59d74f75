"""Exact lattice arithmetic: intersection form, push-forward action, entropy.

Everything here is integer or rational arithmetic with no floating point,
except `entropy` (which logs a certified Salem root) and the growth-slope
measurement inside the quadratic-growth fixture.

Basis conventions. The invariant sublattice S is spanned by the strict
transforms of the line at infinity and the level-1/level-2 fibers; in the
orthogonal total-transform basis these are

    line     = H - sum_s E1_s,
    E1_s(str)= E1_s - E2_s,
    E2_s(str)= E2_s - sum_l E3_{s,l},

giving self-intersections 1-n, -2, -(1+m) and couplings line.E1_s = 1,
E1_s.E2_s = 1. The complement T = S-perp carries the push-forward action on
the classes g_{s,l} (projections of the level-3 fibers) as the cycle

    g_{s,l} -> g_{s+1,l},  g_{n-1,l} -> g_{0,l+1},
    g_{n-1,m} -> sum_l ( -g_{0,l} + sum_{s!=0} g_{s,l} ),

whose characteristic polynomial is exactly the degree-nm family polynomial.

The push-forward on all of H^2 is `orbit_data_pushforward`, the standard
quadratic-map rule on the lengths of the three blown-up orbits; the
quadratic-growth fixture's push-forward is that rule at lengths (2, 4, 4).
"""

import math
from fractions import Fraction

from mpmath import log, workprec

from . import salem
from .errors import RsadynError, ValidationError
from .numeric import check_precision, fit_slope, identity, mat_mul


# ---------------------------------------------------------------------------
# exact matrix helpers (lists of lists; int or Fraction entries)
# ---------------------------------------------------------------------------

def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def mat_sub(a, b):
    return [[a[i][j] - b[i][j] for j in range(len(a[0]))] for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def bareiss_det(matrix):
    """Fraction-free determinant of an integer matrix."""
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def leading_principal_minors(matrix):
    """All leading principal minors d_1..d_n, exactly."""
    return [bareiss_det([row[:k] for row in matrix[:k]])
            for k in range(1, len(matrix) + 1)]


def is_negative_definite(matrix):
    """Exact test via alternating strict signs of the leading minors."""
    for k, d in enumerate(leading_principal_minors(matrix), start=1):
        if d == 0 or (d > 0) != (k % 2 == 0):
            return False
    return True


def frac_rref(rows):
    """Reduced row echelon form over Fraction; returns (rref, pivot_cols)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def frac_rank(rows):
    _, pivots = frac_rref(rows)
    return len(pivots)


def nullspace_int(rows):
    """Integer basis (primitive vectors) of the rational nullspace."""
    from math import gcd
    rref, pivots = frac_rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        basis.append([x // g for x in ints])
    return basis


def berkowitz_charpoly(matrix):
    """Characteristic polynomial det(tI - M) of an integer matrix, as an
    IntPolynomial, division-free (Berkowitz). The products with the leading
    submatrices walk only each row's nonzero entries."""
    k = len(matrix)
    if k == 0:
        raise ValidationError("empty matrix")
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in matrix]
    vec = [1, -matrix[0][0]]           # descending coefficients
    for r in range(1, k):
        # row r and rows 0..r-1 of the leading r x r submatrix
        row = [(j, x) for j, x in nonzero[r] if j < r]
        lead = [[(j, x) for j, x in nonzero[i] if j < r] for i in range(r)]
        toep = [1, -matrix[r][r]]
        v = [matrix[i][r] for i in range(r)]
        for _ in range(r - 1):
            toep.append(-sum(x * v[j] for j, x in row))
            v = [sum(x * v[j] for j, x in entries) for entries in lead]
        toep.append(-sum(x * v[j] for j, x in row))
        vec = [sum(toep[i - j] * vec[j]
                   for j in range(max(0, i - (r + 1)), min(i, r) + 1))
               for i in range(r + 2)]
    return salem.IntPolynomial(list(reversed(vec)))


# ---------------------------------------------------------------------------
# the invariant sublattice and its complement
# ---------------------------------------------------------------------------

def intersection_matrix_S(n, m):
    """Gram matrix of {line, E1_0.., E2_0..} in the order written; (2n+1)^2.

    det = -(2m+1)^(n-1) (m(n-2) - 1); at m = 1 this is (3-n) 3^(n-1), zero
    for n = 3 and negative for n >= 4, where the form is negative definite.
    """
    if n < 3 or m < 1:
        raise ValidationError("need n >= 3, m >= 1")
    size = 2 * n + 1
    g = [[0] * size for _ in range(size)]
    g[0][0] = 1 - n
    for s in range(n):
        e1 = 1 + s
        e2 = 1 + n + s
        g[e1][e1] = -2
        g[e2][e2] = -(1 + m)
        g[0][e1] = g[e1][0] = 1
        g[e1][e2] = g[e2][e1] = 1
    return g


def t_action_matrix(n, m):
    """Push-forward matrix on the complement basis g_{s,l}, column convention.

    Basis order g_{0,1}, g_{1,1}, .., g_{n-1,1}, g_{0,2}, .., g_{n-1,m};
    entries lie in {-1, 0, 1}.
    """
    if n < 3 or m < 1:
        raise ValidationError("need n >= 3, m >= 1")
    size = n * m
    a = [[0] * size for _ in range(size)]

    def idx(s, l):
        return (l - 1) * n + s

    for l in range(1, m + 1):
        for s in range(n):
            src = idx(s, l)
            if s < n - 1:
                a[idx(s + 1, l)][src] = 1
            elif l < m:
                a[idx(0, l + 1)][src] = 1
            else:
                # closing relation: image is sum_l(-g_{0,l} + sum_{s!=0} g_{s,l})
                for ll in range(1, m + 1):
                    a[idx(0, ll)][src] = -1
                    for ss in range(1, n):
                        a[idx(ss, ll)][src] = 1
    return a


def entropy(n, m, precision_bits=256):
    """log of the certified Salem root of the (n, m) family polynomial."""
    precision_bits = check_precision(precision_bits)
    cert = salem.salem_certificate(salem.salem_polynomial(n, m), precision_bits)
    with workprec(precision_bits):
        return log(cert.lambda_root)


# ---------------------------------------------------------------------------
# quadratic-growth fixture
# ---------------------------------------------------------------------------

def orbit_data_pushforward(lengths):
    """Push-forward on H^2 of a quadratic map blown up along three orbits.

    `lengths` are the orbit lengths of the three chains; the basis is H,
    then each chain's exceptional classes in orbit order. Column j is the
    image of basis class j under the standard quadratic-map rule
    (Bedford-Kim 2006, McMullen 2007):

        H -> 2H - (first class of each chain),
        a class -> the next class of its chain,
        the last class of a chain -> H - (first classes of the other two).
    """
    if len(lengths) != 3 or min(lengths) < 1:
        raise ValidationError("need three chains of length >= 1")
    size = 1 + sum(lengths)
    firsts = [1 + sum(lengths[:i]) for i in range(3)]
    k = [[0] * size for _ in range(size)]
    k[0][0] = 2
    for i, (first, length) in enumerate(zip(firsts, lengths)):
        k[first][0] = -1
        for j in range(first, first + length - 1):
            k[j + 1][j] = 1
        last = first + length - 1
        k[0][last] = 1
        for other in firsts[:i] + firsts[i + 1:]:
            k[other][last] = -1
    return k


def _fixture_pushforward():
    """Push-forward of k(x,y) = (y, -x + 1 + a/y) on its 11-class lattice.

    The orbit-data rule at lengths (2, 4, 4). Basis order: H, E1a (over
    [0:0:1]), E1b (over [0:1:0]), E2_1..E2_4 over the level-1 fiber orbit
    0 in E1a -> 1 in E1b -> 1 in E1a -> 0 in E1b, E3_1..E3_4 over the
    level-2 fiber orbit of the contracted line. The rule's images agree
    with the curve images

        line_at_inf -> itself,      E1a(str) <-> E1b(str),
        E2_1 -> E2_2 -> E2_3 -> E2_4 -> E2_1   (strict, 4-cycle),
        {y=0}(str) -> E3_1 -> .. -> E3_4 -> {x=0}(str),

    with incidences {x=0} = H - E1a - E2_1 and {y=0} = H - E1b - E2_4.
    """
    return orbit_data_pushforward((2, 4, 4))


def _fixture_s_generators():
    """S generators in the 11-class basis (strict transforms)."""
    def vec(entries):
        v = [0] * 11
        for i, x in entries.items():
            v[i] = x
        return v
    return [
        vec({0: 1, 1: -1, 2: -1}),           # line at infinity
        vec({1: 1, 3: -1, 5: -1}),           # E1a strict (centers E2_1, E2_3)
        vec({2: 1, 4: -1, 6: -1}),           # E1b strict (centers E2_2, E2_4)
        vec({3: 1, 7: -1}),                  # E2_1 strict
        vec({4: 1, 8: -1}),
        vec({5: 1, 9: -1}),
        vec({6: 1, 10: -1}),
    ]


def quadratic_growth_fixture():
    """Push-forward of the zero-entropy comparison map, with spectral gates.

    Builds the full 11x11 push-forward from the blowup orbit data of
    k(x, y) = (y, -x + 1 + a/y) (two level-1 fibers, a level-2 4-cycle, a
    level-3 orbit of length 4) by the orbit-data rule, and verifies the
    three gate facts on it: all eigenvalues of modulus 1, a size-3 Jordan block at eigenvalue 1
    (exact rank test on powers of K - I), and log-log growth slope 2 of
    ||K^k|| over 100 <= k <= 1000.

    The form on the span S of the line and level-1/2 fibers is only
    semidefinite here (one-dimensional kernel), so S + S-perp is a proper
    sublattice and the size-3 block does not survive restriction to S-perp
    alone: the restriction and the quotient action both carry a size-2
    block, and are reported as supplementary data. Structural gates: the
    push-forward preserves the intersection form, is unimodular, and
    permutes the S generators.
    """
    k = _fixture_pushforward()
    gram = [[0] * 11 for _ in range(11)]
    gram[0][0] = 1
    for i in range(1, 11):
        gram[i][i] = -1

    # structural gates on the derivation itself
    ktgk = mat_mul(transpose(k), mat_mul(gram, k))
    if ktgk != gram:
        raise RsadynError("push-forward does not preserve the form")
    if abs(bareiss_det(k)) != 1:
        raise RsadynError("push-forward is not unimodular")

    sgens = _fixture_s_generators()
    s_gram = [[sum(u[i] * gram[i][i] * v[i] for i in range(11))
               for v in sgens] for u in sgens]
    if len(nullspace_int(s_gram)) != 1:
        raise RsadynError("form on S should have a 1-dim kernel")

    # K must permute the S generators (line fixed, E1 swap, E2 4-cycle)
    perm = {0: 0, 1: 2, 2: 1, 3: 4, 4: 5, 5: 6, 6: 3}
    for src, dst in perm.items():
        if mat_vec(k, sgens[src]) != sgens[dst]:
            raise RsadynError("push-forward does not permute S")

    # supplementary: restriction to T = S-perp (dimension 4: the full form
    # is nondegenerate, dim T = 11 - dim span S; the kernel line of S sits
    # in S and T both)
    pair_rows = [[u[j] * gram[j][j] for j in range(11)] for u in sgens]
    tbasis = nullspace_int(pair_rows)
    tdim = len(tbasis)
    if tdim != 4:
        raise RsadynError("T should have dimension 4, got %d" % tdim)
    tmat = transpose(tbasis)
    image = mat_mul(k, tmat)
    aug_rows = [[Fraction(tmat[i][j]) for j in range(tdim)]
                + [Fraction(image[i][j]) for j in range(tdim)]
                for i in range(11)]
    rref, pivots = frac_rref(aug_rows)
    if pivots[:tdim] != list(range(tdim)):
        raise RsadynError("restriction to T is inconsistent")
    for row in rref[tdim:]:
        if any(x != 0 for x in row):
            raise RsadynError("push-forward does not preserve T")
    restricted = [[rref[i][tdim + j] for j in range(tdim)]
                  for i in range(tdim)]
    if all(x.denominator == 1 for row in restricted for x in row):
        restricted = [[int(x) for x in row] for row in restricted]

    # gate 1: all eigenvalues on the unit circle, exactly: a monic integer
    # polynomial has all roots of modulus 1 iff it is a product of
    # cyclotomic polynomials (Kronecker), and the cyclotomic sweep is exact
    char = berkowitz_charpoly(k)
    core, cyc_factors = salem.cyclotomic_part(char)
    if core.degree() != 0:
        raise RsadynError("an eigenvalue leaves the unit circle "
                          "(non-cyclotomic factor %r)" % core)

    # gate 2: a size-3 Jordan block at eigenvalue 1, exactly
    ki = [[Fraction(x) for x in row] for row in k]
    kmi = mat_sub(ki, identity(11, Fraction(1)))
    powers = [identity(11, Fraction(1))]
    for _ in range(4):
        powers.append(mat_mul(powers[-1], kmi))
    ranks = [frac_rank(p) for p in powers]
    blocks_ge3 = ranks[2] - ranks[3]
    if blocks_ge3 < 1:
        raise RsadynError("no size-3 Jordan block at eigenvalue 1 "
                          "(ranks %r)" % (ranks,))

    # gate 3: quadratic growth of ||K^k||
    ks, norms = [], []
    power = identity(11)
    for kk in range(1, 1001):
        power = mat_mul(power, k)
        if kk >= 100 and kk % 25 == 0:
            ks.append(kk)
            norms.append(max(abs(float(x)) for row in power for x in row))
    slope = fit_slope([math.log(kk) for kk in ks],
                      [math.log(nm) for nm in norms])
    if not 1.9 <= slope <= 2.1:
        raise RsadynError("growth slope %.4f outside 2 +- 0.1" % slope)

    # supplementary: Jordan data of the restriction (size-2 block expected)
    ri = [[Fraction(x) for x in row] for row in restricted]
    rmi = mat_sub(ri, identity(tdim, Fraction(1)))
    rpowers = [identity(tdim, Fraction(1))]
    for _ in range(3):
        rpowers.append(mat_mul(rpowers[-1], rmi))
    restricted_ranks = [frac_rank(p) for p in rpowers]

    return {
        "pushforward": k,
        "charpoly": char.to_json(),
        "cyclotomic_factors": cyc_factors,
        "jordan_ranks": ranks,
        "jordan_blocks_ge3": blocks_ge3,
        "growth_slope": slope,
        "restricted_to_perp": restricted,
        "restricted_ranks": restricted_ranks,
        "perp_dimension": tdim,
    }
