"""Integer weight data for linear torus actions on products of spheres.

A rank-2 torus acts linearly on a product of N unit-quaternion spheres by

    (z, w) * q_i = z^{a_i} w^{k_i} u_i + z^{b_i} w^{l_i} v_i j ,

so the action is a list of integer quadruples (a_i, b_i, k_i, l_i).  The
action is effective iff gcd(all a,b) = gcd(all k,l) = 1, and free iff every
selection of one exponent pair per factor generates the full weight lattice.
A selection fails exactly when it lies in a sublattice of prime index p, the
preimage of a line in F_p^2, so the action is free iff no prime p and line
L in F_p^2 hold one exponent pair of every factor mod p; `_free_rows` decides
that in polynomial time.  With entries in [-B, B] the primes p <= 2B^2 are
enough: a selection fails iff the gcd d of its 2x2 minors is not 1; for d > 1
a prime p | d divides a nonzero minor, so p <= 2B^2, and for d = 0 the
selection has rank <= 1 and lies on a line mod 2.  For B <= MASK_BOUND
`_row_masks` gives each row a bitmask of its failures, and the AND of a
tuple's masks decides both properties.  Circle actions on products of odd
spheres carry one weight per complex coordinate and the analogous
one-weight-per-factor selection criterion: every selection must have gcd 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

from .errors import (
    ClassificationViolation,
    FreenessViolation,
    InputFormatError,
    PreconditionError,
)
from .exact import Matrix2, int_tuple, unimodular_complement
from .quadforms import BinaryQuadraticForm, Form, pulled_back

Row = tuple[int, int, int, int]


@dataclass(frozen=True)
class TorusActionS3:
    """Weight rows (a_i, b_i, k_i, l_i), one per sphere factor."""

    rows: tuple[Row, ...]

    def __post_init__(self):
        if len(self.rows) < 1:
            raise PreconditionError("need at least one sphere factor")
        clean = tuple(int_tuple(row, "weight") for row in self.rows)
        if any(len(r) != 4 for r in clean):
            raise PreconditionError("each row must be a quadruple (a, b, k, l)")
        object.__setattr__(self, "rows", clean)

    @property
    def n_factors(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CircleActionSpheres:
    """One weight vector per sphere factor; S^{2m-1} and S^{2m} carry m weights."""

    factors: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if not self.factors:
            raise PreconditionError("need at least one sphere factor")
        clean = []
        for dim, weights in self.factors:
            int_tuple((dim,), "sphere dimension")
            if dim < 2:
                raise PreconditionError(f"sphere dimension {dim} < 2")
            m = (dim + 1) // 2
            w = int_tuple(weights, "weight")
            if len(w) != m:
                raise PreconditionError(
                    f"S^{dim} carries {m} weights, got {len(w)}"
                )
            clean.append((dim, w))
        object.__setattr__(self, "factors", tuple(clean))


@dataclass(frozen=True)
class NormalizationWitness:
    """Record of the moves applied: transformed_rows[i] = reparam(rows[perm[i]])."""

    permutation: tuple[int, ...]
    reparam: Matrix2  # determinant 1


@dataclass(frozen=True)
class NormalizedActionS3:
    """Action brought to the form a1 != 0, k1 = 0, (b1, l1) != (0, 0), k2*l2 != 0."""

    action: TorusActionS3
    witness: NormalizationWitness

    def __post_init__(self):
        (a1, b1, k1, l1) = self.action.rows[0]
        (_, _, k2, l2) = self.action.rows[1]
        if a1 == 0 or k1 != 0 or (b1, l1) == (0, 0) or k2 * l2 == 0:
            raise PreconditionError("rows do not satisfy the normalized form")


# -- effectiveness and freeness ------------------------------------------------


def _effective_rows(rows: Sequence[Row]) -> bool:
    """gcd(all a, b) == gcd(all k, l) == 1."""
    g_ab = g_kl = 0
    for a, b, k, l in rows:
        g_ab = math.gcd(g_ab, a, b)
        g_kl = math.gcd(g_kl, k, l)
    return g_ab == 1 and g_kl == 1


def is_effective(act: TorusActionS3) -> bool:
    return _effective_rows(act.rows)


def _free_rows(rows: Sequence[Row]) -> bool:
    """No prime p and line L in F_p^2 hold one exponent pair of every factor.

    The line is fixed by the first selected pair that is nonzero mod p, the
    pivot v = g v' with v' primitive: L = line(v') mod p.  A later factor has
    a pair u on L iff p divides det(v', u) for one of its pairs, and the
    pairs selected before the pivot are 0 mod p, so they lie on every line.

    The factors are walked in order with a set of moduli c != 1, each
    standing for the primes p | c (c = 0: every p) under which each factor
    so far has a pair that is 0 mod p; it starts as {0}.  A factor with a
    zero pair keeps the set as it is.  Otherwise, for each c and each pair
    v = g v' of the factor as pivot: if h = gcd(c, prod_u det(v', u) for
    every later factor) is not 1, any p | h (every p when h = 0, a rank <= 1
    selection) puts one pair of every factor on line(v'), so the action is
    not free; else v is 0 mod the primes of gcd(c, g), which is carried to
    the next factor unless it is 1.  Free iff the set empties; moduli left
    after the last factor are primes under which the whole selection is 0,
    which lies on every line, so a single factor is never free.

    Every c divides the content g of a pair of the first pivot, so the set
    stays small: O(N^2 |moduli|) gcds at worst, O(N) when the first pivot's
    pairs are primitive.
    """
    moduli = {0}
    for i, (a, b, k, l) in enumerate(rows):
        if not (a or k) or not (b or l):
            continue
        later = rows[i + 1:]
        carried = set()
        for x, y in ((a, k),) if a == b and k == l else ((a, k), (b, l)):
            g = math.gcd(x, y)
            x, y = x // g, y // g
            for c in moduli:
                h = c
                for u, s, v, t in later:
                    h = math.gcd(h, (x * v - y * u) * (x * t - y * s))
                    if h == 1:
                        break
                else:
                    return False  # h != 1: some p | h puts the selection on line(x, y)
                c = math.gcd(c, g)
                if c != 1:
                    carried.add(c)
        if not carried:
            return True
        moduli = carried
    return False


MASK_BOUND = 4  # the largest bound `_row_masks` tabulates: 177 bits, 6,561 rows


@lru_cache(maxsize=None)
def _row_masks(bound: int) -> tuple[dict[Row, int], int]:
    """(table, effective bits): a bitmask for each row with entries in [-bound, bound].

    Bit i stands for one way a tuple can fail, and a tuple fails that way iff
    each of its rows has bit i set.  So for m the AND of a tuple's row masks:
    effective iff m & effective bits == 0, effective and free iff m == 0.
    Effectiveness bits: (a, b) == (0, 0), and a prime q <= bound divides a and b
    (a nonzero gcd's primes are <= bound); likewise (k, l).  Freeness bits: a
    line of F_p^2, p <= 2 bound^2 a prime, holds (a, k) or (b, l) mod p.
    """
    values = range(-bound, bound + 1)
    primes = [p for p in range(2, 2 * bound * bound + 1) if all(p % q for q in range(2, p))]
    small = [q for q in primes if q <= bound]
    shift = 2 + 2 * len(small)  # the effectiveness bits lie below
    divides, lines = {}, {}
    for x, y in product(values, repeat=2):
        g = math.gcd(x, y)  # even bits: g == 0, then q | g for each small prime q
        divides[x, y] = (g == 0) | sum(1 << 2 * i for i, q in enumerate(small, 1) if g % q == 0)
        m, offset = 0, shift
        for p in primes:  # bits offset + t: the line through (1, t); offset + p: x = 0
            if x % p:
                m |= 1 << offset + y * pow(x, -1, p) % p
            elif y % p:
                m |= 1 << offset + p
            else:
                m |= (1 << p + 1) - 1 << offset  # (x, y) is 0 mod p: on every line
            offset += p + 1
        lines[x, y] = m
    table = {
        (a, b, k, l): divides[a, b] | divides[k, l] << 1 | lines[a, k] | lines[b, l]
        for a, b, k, l in product(values, repeat=4)
    }
    return table, (1 << shift) - 1


def is_free(act: TorusActionS3) -> bool:
    """Freeness of the torus action by the line-mod-p criterion of `_free_rows`.

    A rank-2 torus never acts freely on one sphere: a selection is then a
    single pair, which spans rank 1 at most.
    """
    return _free_rows(act.rows)


def is_free_circle(act: CircleActionSpheres) -> bool:
    """Freeness of a linear circle action on a product of spheres.

    Every point contains at least one nonzero coordinate per factor, so the
    isotropy at a "most concentrated" point is the subgroup of roots of
    unity of order gcd(one weight per factor); the action is free iff every
    such selection has gcd 1.  An even-dimensional factor always has the
    fixed polar axis available, so it contributes no weight to selections
    (and a product of even spheres alone is never free).

    The selections are not listed: the set of gcds of partial selections
    other than 1 (which absorbs) is carried factor by factor, starting from
    {0}.  Each gcd other than 0 divides a weight of the first odd factor
    with a nonzero weight, so the set stays small; the action is free iff
    it empties.
    """
    odd_factors = [w for dim, w in act.factors if dim % 2 == 1]
    if not odd_factors:
        return False
    gcds = {0}
    for weights in odd_factors:
        gcds = {g for s in gcds for w in weights if (g := math.gcd(s, w)) != 1}
        if not gcds:
            return True
    return False


# -- model differentials -----------------------------------------------------------


def _forms(rows: Sequence[Row]) -> list[Form]:
    """Triple (A, B, C) of the form (a s1 + k s2)(b s1 + l s2) contributed by each row."""
    return [(a * b, a * l + b * k, k * l) for (a, b, k, l) in rows]


def differential_rows(act: TorusActionS3) -> list[BinaryQuadraticForm]:
    """Quadratic form (a s1 + k s2)(b s1 + l s2) contributed by each factor."""
    return list(map(BinaryQuadraticForm._make, _forms(act.rows)))


def circle_euler_data(act: CircleActionSpheres) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(lambdas, alphas): product of weights per S^3 factor resp. S^5 factor.

    These are the Euler-class coefficients that drive the circle-quotient
    classifier; a zero product means the corresponding differential vanishes.
    """
    lambdas = []
    alphas = []
    for dim, weights in act.factors:
        if dim == 3:
            lambdas.append(weights[0] * weights[1])
        elif dim == 5:
            alphas.append(weights[0] * weights[1] * weights[2])
        else:
            raise PreconditionError(
                f"Euler data is defined for S^3/S^5 factors only, got S^{dim}"
            )
    return tuple(lambdas), tuple(alphas)


# -- normalization ------------------------------------------------------------------


def _transform_rows(rows: Sequence[Row], m: int, n: int, r: int, s: int) -> tuple[Row, ...]:
    """Rewrite exponents after reparametrizing the torus by [[m, n], [r, s]].

    With new coordinates (x, y) = (z^m w^n, z^r w^s), an old monomial
    z^a w^k becomes x^{a'} y^{k'} where (a, k) = a'(m, n) + k'(r, s); the
    inverse of a determinant-1 matrix gives (a', k') = (a s - k r, -a n + k m).
    """
    out = []
    for a, b, k, l in rows:
        out.append((a * s - k * r, b * s - l * r, -a * n + k * m, -b * n + l * m))
    return tuple(out)


def _normalize_rows(rows: Sequence[Row]) -> tuple[tuple[Row, ...], tuple[int, ...], Matrix2]:
    """`normalize` on rows the caller knows to be effective and free: returns
    (normalized rows, permutation, reparametrization), postconditions checked."""
    original, rows = rows, list(rows)
    perm = list(range(len(rows)))

    for slot1, (a, b, _, _) in enumerate(rows):
        if a * b:
            break
    else:
        raise FreenessViolation("no factor has a_i*b_i != 0; a free action always has one")
    if slot1 != 0:
        rows[0], rows[slot1] = rows[slot1], rows[0]
        perm[0], perm[slot1] = perm[slot1], perm[0]

    a1, _, k1, _ = rows[0]
    d = math.gcd(a1, k1)
    reparam = unimodular_complement(a1 // d, k1 // d)
    (m, n), (r, s) = reparam
    new_rows = list(_transform_rows(rows, m, n, r, s))
    if new_rows[0][0] != d or new_rows[0][2] != 0:
        raise ClassificationViolation(
            f"reparametrization took the first pair ({a1}, {k1}) to "
            f"({new_rows[0][0]}, {new_rows[0][2]}), not ({d}, 0)",
            witness=original, stage="normalization",
        )

    for slot2 in range(1, len(new_rows)):
        if new_rows[slot2][2] * new_rows[slot2][3]:
            break
    else:
        raise FreenessViolation(
            "no remaining factor has k_i*l_i != 0 after reparametrization; "
            "a free action always has one"
        )
    if slot2 != 1:
        new_rows[1], new_rows[slot2] = new_rows[slot2], new_rows[1]
        perm[1], perm[slot2] = perm[slot2], perm[1]
    new_rows = tuple(new_rows)

    # postconditions: orbits unchanged means effectiveness/freeness survive,
    # and the relation pencil is carried by the substitution s -> M s; the
    # input is effective and free, so a failure here falsifies the
    # normalization itself
    if not _effective_rows(new_rows) or not _free_rows(new_rows):
        raise ClassificationViolation(
            "normalization destroyed effectiveness/freeness",
            witness=original, stage="normalization",
        )
    for (a, b, k, l), p in zip(new_rows, perm):
        a0, b0, k0, l0 = original[p]
        old_form = a0 * b0, a0 * l0 + b0 * k0, k0 * l0
        if pulled_back((a * b, a * l + b * k, k * l), m, n, r, s) != old_form:
            raise ClassificationViolation(
                "normalization broke the differential pencil",
                witness=original, stage="normalization",
            )
    return new_rows, tuple(perm), reparam


def normalize(act: TorusActionS3) -> NormalizedActionS3:
    """Bring a free, effective action to the a1 != 0, k1 = 0, k2*l2 != 0 form.

    Steps: (i) swap the lowest-index factor with a_i*b_i != 0 into slot 1,
    (ii) reparametrize the torus so the first exponent pair becomes
    (gcd(a1, k1), 0), (iii) swap the lowest-index remaining factor with
    k_i*l_i != 0 into slot 2.  Each step exists for free actions; failure to
    find a qualifying factor certifies non-freeness.

    The returned witness carries the factor permutation and the
    determinant-1 reparametrization; the transformed action is re-checked to
    be effective and free, and its differential rows are checked to be the
    original ones up to the induced invertible substitution of (s1, s2).
    A failed re-check raises ClassificationViolation.
    """
    if not is_effective(act):
        raise PreconditionError("normalize requires an effective action")
    if not is_free(act):
        raise PreconditionError("normalize requires a free action")
    rows, perm, reparam = _normalize_rows(act.rows)
    return NormalizedActionS3(TorusActionS3(rows), NormalizationWitness(perm, reparam))


# -- file formats ------------------------------------------------------------------
#
# Torus action files and circle action files are JSON documents with integer
# entries; floats are rejected outright.
#
#     {"n_factors": 3, "rows": [{"a": 1, "b": 1, "k": 0, "l": 0}, ...]}
#     {"factors": [{"sphere_dim": 5, "weights": [1, 1, 1]}, ...]}


def _reject_float(value: str):
    raise InputFormatError(f"float literal {value!r} not accepted; integers only")


def _load_json(text: str) -> dict:
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{where}: expected integer, got {value!r}")
    return value


def parse_action(text: str) -> TorusActionS3:
    doc = _load_json(text)
    if not isinstance(doc, dict) or "rows" not in doc:
        raise InputFormatError("action file must be an object with a 'rows' field")
    rows_field = doc["rows"]
    if not isinstance(rows_field, list) or not rows_field:
        raise InputFormatError("rows: expected a non-empty list")
    if "n_factors" in doc:
        n = _as_int(doc["n_factors"], "n_factors")
        if n != len(rows_field):
            raise InputFormatError(
                f"n_factors = {n} but {len(rows_field)} rows given"
            )
    rows = []
    for i, row in enumerate(rows_field):
        if not isinstance(row, dict):
            raise InputFormatError(f"rows[{i}]: expected an object with a,b,k,l")
        vals = []
        for key in ("a", "b", "k", "l"):
            if key not in row:
                raise InputFormatError(f"rows[{i}].{key}: missing")
            vals.append(_as_int(row[key], f"rows[{i}].{key}"))
        rows.append(tuple(vals))
    return TorusActionS3(tuple(rows))


def format_action(act: TorusActionS3) -> str:
    return json.dumps(
        {
            "n_factors": act.n_factors,
            "rows": [
                {"a": a, "b": b, "k": k, "l": l} for (a, b, k, l) in act.rows
            ],
        }
    )


def parse_circle_action(text: str) -> CircleActionSpheres:
    doc = _load_json(text)
    if not isinstance(doc, dict) or "factors" not in doc:
        raise InputFormatError("circle file must be an object with a 'factors' field")
    factors_field = doc["factors"]
    if not isinstance(factors_field, list) or not factors_field:
        raise InputFormatError("factors: expected a non-empty list")
    factors = []
    for i, f in enumerate(factors_field):
        if not isinstance(f, dict) or "sphere_dim" not in f or "weights" not in f:
            raise InputFormatError(
                f"factors[{i}]: expected an object with sphere_dim and weights"
            )
        dim = _as_int(f["sphere_dim"], f"factors[{i}].sphere_dim")
        if not isinstance(f["weights"], list):
            raise InputFormatError(f"factors[{i}].weights: expected a list")
        weights = tuple(
            _as_int(w, f"factors[{i}].weights[{j}]")
            for j, w in enumerate(f["weights"])
        )
        factors.append((dim, weights))
    try:
        return CircleActionSpheres(tuple(factors))
    except PreconditionError as exc:
        raise InputFormatError(str(exc))


def format_circle_action(act: CircleActionSpheres) -> str:
    return json.dumps(
        {
            "factors": [
                {"sphere_dim": dim, "weights": list(w)} for dim, w in act.factors
            ]
        }
    )
