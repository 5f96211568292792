import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torquot import (
    BinaryQuadraticForm,
    Polynomial,
    PreconditionError,
    det2,
    is_rational_square,
    square_class_isomorphic,
    unimodular_complement,
)
from torquot.cdga import UNIT
from torquot.exact import rank_int_rows

from conftest import build_d_alpha_model


def test_rational_invariants():
    q = Fraction(-4, -8)
    assert (q.numerator, q.denominator) == (1, 2)  # reduced, positive denominator
    zero = Fraction(0, 5)
    assert (zero.numerator, zero.denominator) == (0, 1)  # canonical zero


def test_det2_examples():
    assert det2(1, 0, 0, 1) == 1
    assert det2(0, 1, 1, 1) == -1
    assert det2(2, 4, 1, 2) == 0


def _cleared(rows):
    """Each rational row times the lcm of its denominators: same rank over Q."""
    out = []
    for row in rows:
        scale = math.lcm(*(Fraction(v).denominator for v in row))
        out.append([int(Fraction(v) * scale) for v in row])
    return out


def test_rank_identity():
    assert rank_int_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_t1_relation_matrix():
    # relation matrix of the unit-tangent-bundle action: columns
    # (b1, l1, 0) and (a_j b_j, a_j l_j + b_j k_j, k_j l_j)
    assert rank_int_rows([[1, 0, 0], [0, 0, 4], [0, 1, 0]]) == 3


def test_rank_zero_matrix():
    assert rank_int_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) == 0


def test_rank_fractions():
    dependent = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1, 1)],  # 3 x the first row
    ]
    assert _cleared(dependent) == [[3, 2], [3, 2]]
    assert rank_int_rows(_cleared(dependent)) == 1
    m = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(2, 1)],
        [Fraction(1, 1), Fraction(2, 3)],  # 2 x the first row
    ]
    assert rank_int_rows(_cleared(m)) == 2


def _rank_mod_p(rows, p):
    m = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(v - f * w) % p for v, w in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rank_agrees_with_prime_field():
    # rank over Q equals rank over GF(p) when p divides no entry data
    p = (1 << 31) - 1
    rng = random.Random(20240917)
    for _ in range(1000):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        num_rows = [
            [rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)
        ]
        dens = [rng.randint(1, 9) for _ in range(nrows)]
        rat = [[Fraction(v, d) for v in row] for row, d in zip(num_rows, dens)]
        # row scaling by units of GF(p) does not change rank mod p
        assert rank_int_rows(_cleared(rat)) == _rank_mod_p(num_rows, p)
    # sparse matrices up to 8 x 8, about half zeros: zero columns and pivots
    # below the current row occur.  Every minor is at most (2 sqrt 8)^8 < p by
    # Hadamard's bound, so the rank mod p is the rank over Q
    for _ in range(1000):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [
            [rng.choice((0, 0, 0, 0, -2, -1, 1, 2)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        assert rank_int_rows(rows) == _rank_mod_p(rows, p)


def test_unimodular_complement_identity():
    assert unimodular_complement(1, 0) == ((1, 0), (0, 1))


def test_unimodular_complement_23():
    (a, b), (r, s) = unimodular_complement(2, 3)
    assert (a, b) == (2, 3)
    assert a * s - b * r == 1
    # tie-break: smallest |r|, then smallest |s|, over the Bezout family
    best = min(
        (
            (abs(rr), abs((1 + 3 * rr) // 2), rr, (1 + 3 * rr) // 2)
            for rr in range(-50, 51)
            if (1 + 3 * rr) % 2 == 0
        ),
    )
    assert (r, s) == (best[2], best[3])
    assert (r, s) == (-1, -1)


def test_unimodular_complement_01():
    assert unimodular_complement(0, 1) == ((0, 1), (-1, 0))


def test_unimodular_complement_rejects():
    with pytest.raises(PreconditionError):
        unimodular_complement(2, 4)
    with pytest.raises(PreconditionError):
        unimodular_complement(0, 0)


ENTRIES = st.integers(-60, 60) | st.integers(-2 ** 64, 2 ** 64)


@given(ENTRIES, ENTRIES)
def test_unimodular_complement_property(m, n):
    if (m, n) == (0, 0) or math.gcd(m, n) != 1:
        return
    (a, b), (r, s) = unimodular_complement(m, n)
    assert (a, b) == (m, n)
    assert a * s - b * r == 1
    # tie-break: smallest |r|, then smallest |s|, over the Bezout family
    # (r + t*m, s + t*n).  |r + t*m| and |s + t*n| are convex in t, so a
    # complement that beats both neighbours t = +-1 is the minimum
    for t in (-1, 1):
        assert (abs(r + t * m), abs(s + t * n)) > (abs(r), abs(s))
    if max(abs(m), abs(n)) <= 60:
        # and by a scan: the minimiser has |r| <= 30 and |s| <= 31 here
        family = [
            (rr, ss)
            for rr in range(-61, 62)
            for ss in range(-61, 62)
            if m * ss - n * rr == 1
        ]
        assert (r, s) == min(family, key=lambda rs: (abs(rs[0]), abs(rs[1])))


def test_is_rational_square_examples():
    assert is_rational_square(Fraction(4, 9))
    assert is_rational_square(49) and not is_rational_square(48)
    assert not is_rational_square(2)
    assert is_rational_square(0)
    assert not is_rational_square(-4)
    assert is_rational_square(Fraction(49, 16))
    assert not is_rational_square(Fraction(-1, 4))


RATIONAL_TAKERS = {
    "is_rational_square": lambda q: is_rational_square(q),
    "square_class_isomorphic alpha": lambda q: square_class_isomorphic(q, 4),
    "square_class_isomorphic beta": lambda q: square_class_isomorphic(4, q),
    "build_d_alpha_model": lambda q: build_d_alpha_model(q, 0),
    "Polynomial": lambda q: Polynomial({UNIT: q}),
}


@pytest.mark.parametrize("value", [0.01, 0.1, 2.0, True, False, Decimal("0.5"), "1/2"])
@pytest.mark.parametrize("taker", sorted(RATIONAL_TAKERS))
def test_rationals_are_ints_or_fractions(taker, value):
    # a float stands for its binary value, not the decimal it prints: 0.1 is
    # 3602879701896397/2^55, so 0.9/0.1 would not be the square 9
    with pytest.raises(PreconditionError, match="expected an int or a Fraction"):
        RATIONAL_TAKERS[taker](value)


def test_rationals_written_as_fractions_keep_their_value():
    assert square_class_isomorphic(Fraction(1, 10), Fraction(9, 10))
    assert is_rational_square(Fraction(1, 100))
    model = build_d_alpha_model(Fraction(1, 10), 0)
    assert Fraction(1, 10) in model._diff[3].terms.values()


@pytest.mark.parametrize("form", [(1, 2, 1), (0, 0, 0)])  # (s1 + s2)^2 and zero
def test_forms_of_discriminant_zero_are_degenerate(form):
    assert BinaryQuadraticForm(*form).isotropy() == "degenerate"


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
)
def test_square_scaling_invariance(a, b):
    # multiplying by a nonzero square never changes squareness
    if a == 0:
        return
    assert is_rational_square(a * a * b) == is_rational_square(b)


def test_rank_int_rows_rectangular():
    assert rank_int_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2
    assert rank_int_rows([[0, 1, 2], [0, 2, 4], [0, 0, 3]]) == 2
    assert rank_int_rows([[5]]) == 1
    assert rank_int_rows([[0]]) == 0

