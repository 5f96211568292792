"""Exact integer and rational linear algebra.

Everything downstream (freeness tests, cohomology ranks, square-class
arithmetic) reduces to gcd / rank / perfect-square questions over Z and Q,
so this module is deliberately float-free.  Rationals are
``fractions.Fraction`` (always reduced, positive denominator, canonical
zero 0/1 -- exactly the invariants we need) and are read from text only
as num or num/den; a matrix is a sequence of integer rows.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

from .errors import ClassificationViolation, InputFormatError, PreconditionError

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")
Matrix2 = tuple[tuple[int, int], tuple[int, int]]  # rows ((m, n), (r, s))


def int_tuple(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints; a bool, float, Fraction or str is refused."""
    out = tuple(values)
    for v in out:
        if isinstance(v, bool) or not isinstance(v, int):
            raise PreconditionError(f"{what}: expected integer, got {v!r}")
    return out


def parse_rational(text: str, where: str) -> Fraction:
    """The rational written num or num/den.  Decimals and exponents are refused:
    an exponent lets a few characters ask for an unbounded power of ten."""
    try:
        if _RATIONAL_RE.match(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
        pass
    raise InputFormatError(f"{where}: bad rational {text!r}, expected num or num/den")


def det2(a: int, b: int, c: int, d: int) -> int:
    """Determinant of [[a, b], [c, d]]."""
    return a * d - b * c


def rank_int_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Pivots are chosen with the smallest bit-length among the remaining
    submatrix to bound coefficient growth; every interior division is exact.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    while rank < nrows and rank < ncols:
        # smallest-bit-length nonzero pivot in the trailing submatrix
        best = None
        for i in range(rank, nrows):
            mi = m[i]
            for j in range(rank, ncols):
                v = mi[j]
                if v:
                    b = abs(v).bit_length()
                    if best is None or b < best[0]:
                        best = (b, i, j)
                        if b == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != rank:
            m[rank], m[pi] = m[pi], m[rank]
        if pj != rank:
            for r in m:
                r[rank], r[pj] = r[pj], r[rank]
        pivot = m[rank][rank]
        for i in range(rank + 1, nrows):
            mi = m[i]
            f = mi[rank]
            if f:
                for j in range(rank + 1, ncols):
                    mi[j] = (pivot * mi[j] - f * m[rank][j]) // prev
                mi[rank] = 0
            elif prev != pivot:
                for j in range(rank + 1, ncols):
                    mi[j] = (pivot * mi[j]) // prev
        prev = pivot
        rank += 1
    return rank


def unimodular_complement(m: int, n: int) -> Matrix2:
    """Complete a coprime pair (m, n) to a determinant-1 integer matrix.

    Returns ((m, n), (r, s)) with m*s - n*r = 1 and, over the family
    (r + t*m, s + t*n), the smallest |r|, then the smallest |s|.  For m != 0,
    r = -n's inverse mod |m| in [0, |m|) and r - |m| straddle 0, so one of the
    two is the minimum.  For m = 0, n = +-1 pins r = -n, and s = 0 is smallest.
    """
    if (m, n) == (0, 0) or math.gcd(m, n) != 1:
        raise PreconditionError(f"({m}, {n}) is not a coprime pair")
    if m:
        r = pow(-n, -1, abs(m))
        s = (1 + n * r) // m
        r1, s1 = (r - m, s - n) if m > 0 else (r + m, s + n)  # r1 = r - |m|
        if (abs(r1), abs(s1)) < (abs(r), abs(s)):
            r, s = r1, s1
    else:
        r, s = -n, 0
    if m * s - n * r != 1:
        raise ClassificationViolation(
            f"unimodular complement of ({m}, {n}) failed", witness=(m, n), stage="complement"
        )
    return (m, n), (r, s)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_rational_square(q) -> bool:
    """True iff q = c^2 for some rational c (0 counts).

    A reduced fraction is a rational square exactly when numerator and
    denominator are both perfect squares; an int is its own numerator.
    """
    if isinstance(q, int):
        return is_perfect_square(q)
    q = Fraction(q)
    return is_perfect_square(q.numerator) and is_perfect_square(q.denominator)
