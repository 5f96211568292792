"""Independent references the benchmark checks torquot's outputs against.

Nothing here imports torquot.  The freeness test is a different algorithm
from the package's gcd-of-minors brute force: it folds the partial
selections into 2x2 Hermite-form lattices and drops every state that
already spans Z^2.  The type decision re-derives the invariant method (rank
of the relation pencil, square class of the discriminant of the quotient
square map) in plain integers.
"""

from __future__ import annotations

import math
import random

S2XS2 = "S2xS2_PRODUCT"
CP2 = "CP2_CONNSUM_PRODUCT"
T1 = "T1_S2xS2_PRODUCT"
KINDS = (S2XS2, CP2, T1)

# Totals of the exhaustive N=3, B=1 grid, frozen after the first verified
# run.  Copied from FROZEN_T2_TOTALS in tests/test_acceptance.py
# (criterion 1); keep the two in step.
FROZEN_T2_TOTALS = {
    "tested": 531_441,
    "effective": 529_984,
    "free": 157_152,
    "violations": 0,
    "kinds": {S2XS2: 46_944, CP2: 9_600, T1: 100_608},
}
# rank-2 actions with l1 != 0 after normalization (the epsilon checks)
FROZEN_T2_EPSILON_CHECKED = 25_504

# (effective, free, S2xS2, CP2#CP2, T1) of run_t2_campaign(GridSpec(n, B,
# mode="random", count=count, seed=s)) for s in 0..63, keyed by (n, B,
# count), frozen from the seed commit's program.  The first campaign of
# `run.py --workload sample-n4b3 --seed s` is checked against its row; every
# campaign is also checked against sample_totals() below.
_FROZEN_SAMPLE_ROWS = {
    (4, 3, 500): {
        0: (495, 95, 0, 0, 95),
        1: (496, 91, 0, 0, 91),
        2: (497, 105, 0, 0, 105),
        3: (495, 88, 0, 0, 88),
        4: (496, 95, 0, 0, 95),
        5: (494, 96, 0, 0, 96),
        6: (500, 85, 0, 0, 85),
        7: (496, 99, 0, 0, 99),
        8: (500, 112, 0, 0, 112),
        9: (500, 93, 0, 0, 93),
        10: (498, 90, 0, 0, 90),
        11: (497, 84, 0, 0, 84),
        12: (498, 85, 0, 0, 85),
        13: (499, 85, 0, 0, 85),
        14: (498, 92, 0, 0, 92),
        15: (496, 95, 1, 0, 94),
        16: (495, 97, 0, 0, 97),
        17: (495, 88, 0, 0, 88),
        18: (500, 101, 1, 0, 100),
        19: (494, 99, 0, 0, 99),
        20: (497, 94, 0, 0, 94),
        21: (498, 90, 0, 0, 90),
        22: (497, 99, 0, 0, 99),
        23: (493, 89, 0, 0, 89),
        24: (498, 109, 0, 0, 109),
        25: (496, 97, 0, 0, 97),
        26: (497, 85, 1, 0, 84),
        27: (498, 95, 0, 0, 95),
        28: (499, 99, 0, 0, 99),
        29: (494, 109, 0, 0, 109),
        30: (497, 106, 0, 0, 106),
        31: (499, 95, 0, 0, 95),
        32: (500, 84, 0, 0, 84),
        33: (499, 85, 0, 0, 85),
        34: (498, 87, 0, 0, 87),
        35: (500, 105, 0, 0, 105),
        36: (497, 109, 0, 0, 109),
        37: (499, 115, 0, 0, 115),
        38: (494, 87, 0, 0, 87),
        39: (495, 94, 0, 0, 94),
        40: (499, 83, 0, 0, 83),
        41: (500, 88, 0, 0, 88),
        42: (498, 93, 0, 0, 93),
        43: (496, 91, 0, 0, 91),
        44: (497, 111, 0, 0, 111),
        45: (498, 101, 0, 0, 101),
        46: (498, 94, 0, 0, 94),
        47: (498, 92, 0, 0, 92),
        48: (498, 96, 0, 0, 96),
        49: (500, 84, 0, 0, 84),
        50: (499, 114, 0, 0, 114),
        51: (499, 99, 0, 0, 99),
        52: (497, 115, 0, 0, 115),
        53: (499, 91, 0, 0, 91),
        54: (498, 101, 0, 0, 101),
        55: (499, 77, 0, 0, 77),
        56: (497, 103, 1, 0, 102),
        57: (500, 106, 0, 0, 106),
        58: (499, 88, 0, 0, 88),
        59: (498, 87, 0, 0, 87),
        60: (497, 104, 0, 0, 104),
        61: (499, 100, 0, 0, 100),
        62: (499, 90, 0, 0, 90),
        63: (499, 97, 0, 0, 97),
    },
}


def frozen_sample_totals(shape, seed: int):
    """Frozen totals of the (n_factors, bound, count) campaign with this seed, or None."""
    row = _FROZEN_SAMPLE_ROWS.get(shape, {}).get(seed)
    if row is None:
        return None
    effective, free, *kinds = row
    return {
        "tested": shape[2],
        "effective": effective,
        "free": free,
        "violations": 0,
        "kinds": dict(zip(KINDS, kinds)),
    }


def is_effective(rows) -> bool:
    g_ab = g_kl = 0
    for a, b, k, l in rows:
        g_ab = math.gcd(g_ab, a, b)
        g_kl = math.gcd(g_kl, k, l)
    return g_ab == 1 and g_kl == 1


def _add_vector(state, x, y):
    """Lattice basis [[p, q], [0, r]] (p >= 0, 0 <= q < r when r > 0) plus (x, y)."""
    p, q, r = state
    if p == 0 and x == 0:
        r = math.gcd(r, y)
    else:
        g, u, v = _xgcd(p, x)
        c = (x * q - p * y) // g
        p, q, r = g, u * q + v * y, math.gcd(r, c)
    if r:
        q %= r
    return p, q, r


def _xgcd(a, b):
    """(g, u, v) with u*a + v*b == g == gcd(a, b) > 0, for (a, b) != (0, 0)."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        t = a // b
        a, b = b, a - t * b
        u0, u1 = u1, u0 - t * u1
        v0, v1 = v1, v0 - t * v1
    if a < 0:
        a, u0, v0 = -a, -u0, -v0
    return a, u0, v0


_Z2 = (1, 0, 1)


def is_free(rows) -> bool:
    """Every selection of one pair (a, k) or (b, l) per factor spans Z^2."""
    states = {(0, 0, 0)}
    for a, b, k, l in rows:
        choices = {(a, k), (b, l)}
        states = {
            t
            for s in states
            for x, y in choices
            if (t := _add_vector(s, x, y)) != _Z2
        }
        if not states:
            return True
    return False


def pencil_rank(forms) -> int:
    """Rank over Q of integer rows of length 3 (fraction-free elimination)."""
    rows = [list(f) for f in forms if any(f)]
    rank = 0
    for col in range(3):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [pr[col] * v - f * w for v, w in zip(rows[i], pr)]
        rank += 1
    return rank


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def forms_of(rows):
    """(A, B, C) of (a s1 + k s2)(b s1 + l s2) for each factor."""
    return [(a * b, a * l + b * k, k * l) for a, b, k, l in rows]


def square_map(forms):
    """(A, B, C) of the quotient square map of a rank-2 pencil, up to a scalar.

    The cross product phi of two independent forms vanishes on the pencil;
    (alpha, beta) -> phi((alpha s1 + beta s2)^2) is the binary form
    phi0 alpha^2 + 2 phi1 alpha beta + phi2 beta^2.
    """
    u = next(f for f in forms if any(f))
    for v in forms:
        phi = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
        if any(phi):
            return phi[0], 2 * phi[1], phi[2]
    raise ValueError("pencil has rank < 2")


def kind_of(rows):
    """Quotient type of a free, effective action, or None where the theory says impossible."""
    forms = forms_of(rows)
    rank = pencil_rank(forms)
    if rank == 3:
        return T1
    if rank < 2:
        return None
    a, b, c = square_map(forms)
    disc = b * b - 4 * a * c
    if disc == 0:
        return None
    if _is_square(disc):
        return S2XS2
    if _is_square(-disc):
        return CP2
    return None


def isotropy_of_kind(kind: str) -> str:
    """Isotropy over Q of the quotient square map of a rank-2 type."""
    return {S2XS2: "isotropic", CP2: "anisotropic"}[kind]


def tally(rows_iter) -> dict:
    """Campaign totals, in the shape of CampaignReport.totals."""
    totals = {
        "tested": 0,
        "effective": 0,
        "free": 0,
        "violations": 0,
        "kinds": {kind: 0 for kind in KINDS},
    }
    for rows in rows_iter:
        totals["tested"] += 1
        if not is_effective(rows):
            continue
        totals["effective"] += 1
        if not is_free(rows):
            continue
        totals["free"] += 1
        kind = kind_of(rows)
        if kind is None:
            totals["violations"] += 1
        else:
            totals["kinds"][kind] += 1
    return totals


def sample_rows(n_factors: int, bound: int, count: int, seed: int):
    """The tuples GridSpec(n, bound, mode="random", count, seed) describes.

    The grid's documented sampler: MT19937 seeded with the campaign seed,
    one randint(-B, B) per slot, row-major.
    """
    rng = random.Random(seed)
    slots = 4 * n_factors
    for _ in range(count):
        flat = [rng.randint(-bound, bound) for _ in range(slots)]
        yield tuple(tuple(flat[4 * i: 4 * i + 4]) for i in range(n_factors))


def sample_totals(n_factors: int, bound: int, count: int, seed: int) -> dict:
    return tally(sample_rows(n_factors, bound, count, seed))


def poincare_product(factors) -> list[int]:
    """Coefficients of a product of polynomials given as coefficient lists."""
    out = [1]
    for poly in factors:
        prod = [0] * (len(out) + len(poly) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(poly):
                prod[i + j] += x * y
        out = prod
    return out


# Betti numbers of each type's quotient of three S^3 factors: S^2 x S^2 and
# CP^2 # CP^2 (dimension 4) times S^3, and T1(S^2 x S^2) (dimension 7).
_BASE_BETTI = {
    S2XS2: ([1, 0, 2, 0, 1], 2),
    CP2: ([1, 0, 2, 0, 1], 2),
    T1: ([1, 0, 2, 0, 0, 2, 0, 1], 3),
}


def quotient_betti(kind: str, n_factors: int) -> list[int]:
    """b_0 .. b_top of the N-factor quotient: the base type times S^3 factors."""
    base, used = _BASE_BETTI[kind]
    return poincare_product([base] + [[1, 0, 0, 1]] * (n_factors - used))
