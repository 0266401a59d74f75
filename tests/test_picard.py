"""Exact lattice arithmetic: intersection form, push-forward, entropy."""

import math
import random
from fractions import Fraction

import pytest
from mpmath import log, mp, mpf, workprec

from rsadyn import salem_polynomial
from rsadyn.errors import RsadynError, ValidationError
from rsadyn.numeric import fit_slope, mat_mul, totient
from rsadyn.picard import (bareiss_det, berkowitz_charpoly, entropy,
                           growth_degree, intersection_matrix_S,
                           is_negative_definite, leading_principal_minors,
                           orbit_data_pushforward, quadratic_growth_fixture,
                           rank, t_action_matrix)
from rsadyn.salem import IntPolynomial


# -- intersection form -----------------------------------------------------------

def fraction_det(matrix):
    """Independent determinant oracle: Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def fraction_rank(matrix):
    """Independent rank oracle: row reduction over Fraction."""
    m = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_fraction_oracle():
    rng = random.Random(41)
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = random_matrix(rng, rows, cols)
        # some with a zero row, some with a zero column
        if rng.random() < 0.3:
            a[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        assert rank(a) == fraction_rank(a)
    for _ in range(100):
        # low-rank products (rank <= inner) with large entries
        rows, inner, cols = rng.randint(2, 9), rng.randint(1, 4), \
            rng.randint(2, 9)
        a = mat_mul(random_matrix(rng, rows, inner, -40, 40),
                    random_matrix(rng, inner, cols, -40, 40))
        assert rank(a) == fraction_rank(a) <= inner
    assert rank([]) == rank([[]]) == rank([[0, 0], [0, 0]]) == 0


def test_bareiss_det_matches_fraction_oracle():
    rng = random.Random(42)
    for _ in range(150):
        size = rng.randint(1, 8)
        a = random_matrix(rng, size, size)
        if size >= 3 and rng.random() < 0.3:
            # singular: the last row a combination of the first two
            a[-1] = [2 * x - 3 * y for x, y in zip(a[0], a[1])]
            assert fraction_det(a) == 0
        assert bareiss_det(a) == fraction_det(a)
    assert bareiss_det([]) == 1


@pytest.mark.parametrize("call,matrix", [
    (bareiss_det, [[1, 2]]),
    (bareiss_det, [[1, 2], [3, 4], [5, 6]]),
    (bareiss_det, [[1, 2], [3]]),
    (berkowitz_charpoly, [[1, 2, 3], [4, 5, 6]]),
    (berkowitz_charpoly, [[1, 2], [3]]),
    (rank, [[1, 2], [3]]),
], ids=["det-1x2", "det-3x2", "det-ragged", "charpoly-2x3",
        "charpoly-ragged", "rank-ragged"])
def test_misshapen_matrices_refused(call, matrix):
    # bareiss_det([[1, 2]]) used to return 1 and the 2x3 charpoly
    # t^2 - 6t - 3; the 3x2 determinant raised a bare IndexError
    with pytest.raises(ValidationError):
        call(matrix)


@pytest.mark.parametrize("n", range(3, 13))
def test_determinant_formula_m1(n):
    s = intersection_matrix_S(n, 1)
    want = (3 - n) * 3 ** (n - 1)
    assert bareiss_det(s) == want
    assert fraction_det(s) == want


@pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (6, 2)])
def test_determinant_formula_general_m(n, m):
    # derived by Schur complement: det = -(2m+1)^(n-1) (m(n-2) - 1); the
    # (3-n) 3^(n-1) value is its m = 1 instance
    s = intersection_matrix_S(n, m)
    want = -((2 * m + 1) ** (n - 1)) * (m * (n - 2) - 1)
    assert bareiss_det(s) == want
    assert fraction_det(s) == want


@pytest.mark.parametrize("n", range(4, 9))
def test_negative_definite(n):
    for m in (1, 2):
        s = intersection_matrix_S(n, m)
        assert is_negative_definite(s)
        minors = leading_principal_minors(s)
        assert all(d != 0 and (d > 0) == (k % 2 == 0)
                   for k, d in enumerate(minors, start=1))


def test_dimension_and_symmetry():
    s = intersection_matrix_S(6, 2)
    assert len(s) == 13 == 2 * 6 + 1
    assert all(s[i][j] == s[j][i] for i in range(13) for j in range(13))


def test_n3_semidefinite():
    assert bareiss_det(intersection_matrix_S(3, 1)) == 0
    assert not is_negative_definite(intersection_matrix_S(3, 1))


# -- push-forward action -----------------------------------------------------------

def test_t_action_41_structure():
    a = t_action_matrix(4, 1)
    # companion-type with final image (-1, 1, 1, 1)
    assert [row[3] for row in a] == [-1, 1, 1, 1]
    assert a[1][0] == a[2][1] == a[3][2] == 1
    assert all(x in (-1, 0, 1) for row in a for x in row)


@pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (7, 2), (6, 3)])
def test_t_action_entries_and_closing_column(n, m):
    a = t_action_matrix(n, m)
    assert all(x in (-1, 0, 1) for row in a for x in row)
    last = [row[-1] for row in a]
    # coefficient of g_{0,l} is -1, of g_{s!=0,l} is +1, for every l
    for l in range(m):
        assert last[l * n] == -1
        assert all(last[l * n + s] == 1 for s in range(1, n))


def faddeev_leverrier_charpoly(matrix):
    """Independent charpoly oracle: the Faddeev-LeVerrier trace recursion.

    M_1 = A, c_k = -tr(M_k) / k, M_{k+1} = A (M_k + c_k I). For an integer
    matrix every c_k is an integer, so each division by k is exact over Z
    (asserted). Shares no code with the Berkowitz path.
    """
    n = len(matrix)
    rows = [[(t, a) for t, a in enumerate(row) if a] for row in matrix]
    coeffs = [1]                       # descending: t^n first
    mk = [list(row) for row in matrix]
    for k in range(1, n + 1):
        ck, r = divmod(-sum(mk[i][i] for i in range(n)), k)
        assert r == 0
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = [[sum(a * mk[t][j] for t, a in row) for j in range(n)]
                  for row in rows]
    return IntPolynomial(reversed(coeffs))


def test_charpoly_identity_41():
    assert berkowitz_charpoly(t_action_matrix(4, 1)) == salem_polynomial(4, 1)
    # independent oracle on the same instance
    assert faddeev_leverrier_charpoly(t_action_matrix(4, 1)) \
        == salem_polynomial(4, 1)


def test_charpoly_identity_matrix():
    ident = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    want = IntPolynomial([-1, 1])
    prod = IntPolynomial([1])
    for _ in range(5):
        prod = prod * want
    assert berkowitz_charpoly(ident) == prod


def test_charpoly_rejects_non_integer_matrix():
    # t - 1/2 has no IntPolynomial; it used to come back truncated to t
    with pytest.raises(ValidationError):
        berkowitz_charpoly([[Fraction(1, 2)]])


# every family member with 3 <= n <= 10 and nm <= 40
CENSUS = [(n, m) for n in range(3, 11) for m in range(1, 40 // n + 1)]


@pytest.mark.parametrize("n,m", CENSUS)
def test_charpoly_cross_check_oracle(n, m):
    a = t_action_matrix(n, m)
    assert berkowitz_charpoly(a) == faddeev_leverrier_charpoly(a)
    assert berkowitz_charpoly(a) == salem_polynomial(n, m)


def test_charpoly_random_oracle_agreement():
    rng = random.Random(7)
    for size in (3, 5, 7):
        a = [[rng.randrange(-4, 5) for _ in range(size)] for _ in range(size)]
        assert berkowitz_charpoly(a) == faddeev_leverrier_charpoly(a)
    # dense: no zero entry for the sparse walk to skip
    a = [[rng.choice([-1, 1]) * rng.randrange(1, 10) for _ in range(12)]
         for _ in range(12)]
    assert berkowitz_charpoly(a) == faddeev_leverrier_charpoly(a)


# -- push-forward from the orbit data -----------------------------------------------

def orbit_charpoly_target(n, m):
    # salem_polynomial(n, m) (t - 1) (t^n - 1)^2
    tn = IntPolynomial([-1] + [0] * (n - 1) + [1])
    return salem_polynomial(n, m) * IntPolynomial([-1, 1]) * tn * tn


@pytest.mark.parametrize("n,m", CENSUS)
def test_orbit_data_charpoly(n, m):
    k = orbit_data_pushforward((n, n, n * m))
    assert berkowitz_charpoly(k) == orbit_charpoly_target(n, m)


@pytest.mark.parametrize("n,m", [(4, 1), (5, 2), (3, 2), (7, 2)])
def test_orbit_data_isometry(n, m):
    # preserves diag(1, -1, .., -1), fixes K = -3H + sum E, unimodular
    k = orbit_data_pushforward((n, n, n * m))
    size = len(k)
    gram = [[0] * size for _ in range(size)]
    gram[0][0] = 1
    for i in range(1, size):
        gram[i][i] = -1
    kt = [list(col) for col in zip(*k)]
    ktgk = [[sum(kt[i][a] * gram[a][a] * k[a][j] for a in range(size))
             for j in range(size)] for i in range(size)]
    assert ktgk == gram
    canonical = [-3] + [1] * (size - 1)
    assert [sum(row[j] * canonical[j] for j in range(size)) for row in k] \
        == canonical
    assert abs(bareiss_det(k)) == 1


@pytest.mark.parametrize("n,m", [(4, 1), (5, 2), (3, 2), (7, 2)])
def test_orbit_data_wrong_lengths_fail_charpoly(n, m):
    for lengths in ((n, n, n * m + 1), (n + 1, n - 1, n * m)):
        k = orbit_data_pushforward(lengths)
        assert berkowitz_charpoly(k) != orbit_charpoly_target(n, m)


def test_orbit_data_rebuilds_fixture_table():
    # the fixture's push-forward as hand-derived from its curve images:
    # column j lists the image of basis class j (H, E1a, E1b, E2_1..E2_4,
    # E3_1..E3_4)
    cols = {
        0:  {0: 2, 1: -1, 3: -1, 7: -1},   # H -> 2H - E1a - E2_1 - E3_1
        1:  {2: 1},                        # E1a -> E1b
        2:  {0: 1, 3: -1, 7: -1},          # E1b -> H - E2_1 - E3_1
        3:  {4: 1},                        # E2_1 -> E2_2
        4:  {5: 1},
        5:  {6: 1},
        6:  {0: 1, 1: -1, 7: -1},          # E2_4 -> H - E1a - E3_1
        7:  {8: 1},                        # E3_1 -> E3_2
        8:  {9: 1},
        9:  {10: 1},
        10: {0: 1, 1: -1, 3: -1},          # E3_4 -> H - E1a - E2_1
    }
    table = [[cols[j].get(i, 0) for j in range(11)] for i in range(11)]
    assert orbit_data_pushforward((2, 4, 4)) == table


def test_orbit_data_validates_lengths():
    with pytest.raises(ValidationError):
        orbit_data_pushforward((4, 4))
    with pytest.raises(ValidationError):
        orbit_data_pushforward((4, 0, 4))


# -- entropy --------------------------------------------------------------------

def test_entropy_bracket_41():
    # oracle bracket: exact sign change of the polynomial over Fraction
    p = salem_polynomial(4, 1)
    assert p(Fraction(172, 100)) < 0 < p(Fraction(173, 100))
    with workprec(256):
        e = entropy(4, 1)
        assert log(mpf("1.72")) < e < log(mpf("1.73"))


def test_entropy_monotone_in_m():
    # oracle: bisection brackets of the largest roots over Fraction
    p41 = salem_polynomial(4, 1)
    p42 = salem_polynomial(4, 2)
    # largest root of (4,2) exceeds 1.80; largest root of (4,1) is below 1.73
    assert p41(Fraction(173, 100)) > 0
    assert p42(Fraction(180, 100)) < 0
    with workprec(192):
        assert entropy(4, 2, 192) > entropy(4, 1, 192)


def test_entropy_positive_on_grid():
    with workprec(128):
        for (n, m) in [(4, 1), (5, 1), (6, 2), (7, 1)]:
            assert entropy(n, m, 128) > 0


def test_spectral_radius_matches_certified_root():
    # the action's eigenvalues are the roots of its exact characteristic
    # polynomial; isolating its largest root independently and comparing to
    # the certified value pins the spectral radius far below 1e-20
    from rsadyn import find_roots, salem_certificate
    for (n, m) in [(4, 1), (5, 2)]:
        char = berkowitz_charpoly(t_action_matrix(n, m))
        roots = find_roots(char, 256)
        cert = salem_certificate(salem_polynomial(n, m), 256)
        with workprec(256):
            sr = max(abs(r) for r in roots)
            assert abs(sr - cert.lambda_root) < mpf(10) ** -20
    # float sanity overlay on the matrix itself
    import numpy as np
    a = np.array(t_action_matrix(4, 1), dtype=float)
    assert abs(max(abs(np.linalg.eigvals(a))) - 1.7220838057) < 1e-9


# -- quadratic-growth fixture -------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_report():
    return quadratic_growth_fixture()


def test_fixture_spectrum_on_unit_circle(fixture_report):
    # Kronecker: every eigenvalue has modulus 1 iff the characteristic
    # polynomial of the 11x11 push-forward is all cyclotomic factors
    assert sum(totient(d) * mult
               for d, mult in fixture_report["cyclotomic_factors"]) == 11


def test_fixture_jordan_block(fixture_report):
    assert fixture_report["jordan_blocks_ge3"] >= 1
    ranks = fixture_report["jordan_ranks"]
    assert ranks[3] == ranks[4]     # nilpotency saturates at index 3


def test_fixture_growth_degree(fixture_report):
    assert fixture_report["growth_degree"] == 2


def test_fixture_growth_slope_oracle(fixture_report):
    # the measurement the exact degree replaced: the log-log slope of the
    # sup norm of K^j over 100 <= j <= 1000
    k = fixture_report["pushforward"]
    js, norms = [], []
    power = k
    for j in range(2, 1001):
        power = mat_mul(power, k)
        if j >= 100 and j % 25 == 0:
            js.append(math.log(j))
            norms.append(math.log(max(abs(x) for row in power for x in row)))
    assert 1.9 <= fit_slope(js, norms) <= 2.1


def jordan_block(size):
    return [[int(i == j or j == i + 1) for j in range(size)]
            for i in range(size)]


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_growth_degree_of_jordan_block(size):
    assert growth_degree(jordan_block(size), [1]) == size - 1


def test_growth_degree_of_finite_order_maps():
    three_cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    rotation = [[0, -1], [1, 0]]
    assert growth_degree(three_cycle, [1, 3]) == 0
    assert growth_degree(rotation, [4]) == 0


def test_growth_degree_refuses_orders_missing_an_eigenvalue():
    three_cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    with pytest.raises(RsadynError, match="not unipotent"):
        growth_degree(three_cycle, [1])
    with pytest.raises(RsadynError, match="not unipotent"):
        growth_degree([[0, -1], [1, 0]], [2])


def test_fixture_perp_restriction(fixture_report):
    # the degenerate form on S leaves T = S-perp four-dimensional, and the
    # size-3 block does not survive the restriction (size-2 there)
    assert fixture_report["perp_dimension"] == 4
    r = fixture_report["restricted_ranks"]
    assert r[1] - r[2] == 1 and r[2] == r[3]


def test_charpoly_validates_input():
    with pytest.raises(ValidationError):
        berkowitz_charpoly([])
