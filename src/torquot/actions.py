"""Integer weight data for linear torus actions on products of spheres.

A rank-2 torus acts linearly on a product of N unit-quaternion spheres by

    (z, w) * q_i = z^{a_i} w^{k_i} u_i + z^{b_i} w^{l_i} v_i j ,

so the action is a list of integer quadruples (a_i, b_i, k_i, l_i).  The
action is effective iff gcd(all a,b) = gcd(all k,l) = 1, and free iff every
selection of one exponent pair per factor generates the full weight lattice.
A selection fails exactly when it lies in a sublattice of prime index p, the
preimage of a line in F_p^2, so the action is free iff no prime p and line L in
F_p^2 hold one exponent pair of every factor mod p; `_free_rows` decides that in
polynomial time, the last factor folded into a walk over the others.  With entries
in [-B, B] the primes p <= 2B^2 are enough: a selection fails iff the gcd d of its
2x2 minors is not 1; for d > 1 a prime p | d divides a nonzero minor, so p <= 2B^2,
and for d = 0 the selection has rank <= 1 and lies on a line mod 2.  For B <=
MASK_BOUND `_row_masks` gives each row a bitmask of its failures, and the AND of a
tuple's masks decides both properties.  Circle actions on products of odd spheres
carry one weight per complex coordinate and the analogous one-weight-per-factor
selection criterion: every selection must have gcd 1.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

from .errors import ClassificationViolation, InputFormatError, PreconditionError
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


def _effective_prefix(rows: Sequence[Row]) -> tuple[int, int]:
    """(gcd of all a, b; gcd of all k, l) over rows, the state `_effective_last` reads."""
    g_ab = g_kl = 0
    for a, b, k, l in rows:
        g_ab = math.gcd(g_ab, a, b)
        g_kl = math.gcd(g_kl, k, l)
    return g_ab, g_kl


def _effective_last(state: tuple[int, int], row: Row) -> bool:
    """Whether the `_effective_prefix` state's rows, then row, are effective."""
    return math.gcd(state[0], row[0], row[1]) == 1 and math.gcd(state[1], row[2], row[3]) == 1


def _effective_rows(rows: Sequence[Row]) -> bool:
    """gcd(all a, b) == gcd(all k, l) == 1."""
    return _effective_last(_effective_prefix(rows[:-1]), rows[-1])


def is_effective(act: TorusActionS3) -> bool:
    return _effective_rows(act.rows)


def _free_prefix(rows: Sequence[Row]) -> tuple[tuple[int, int, int], ...] | None:
    """The `_free_rows` walk over all factors but the last: None if moduli outlast
    them (no last factor can free the action), else each pivot (x, y, h) with h != 1."""
    moduli, pending = {0}, []
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
                    pending.append((x, y, h))
                c = math.gcd(c, g)
                if c != 1:
                    carried.add(c)
        if not carried:
            return tuple(pending)
        moduli = carried
    return None


def _free_last(state: tuple[tuple[int, int, int], ...] | None, row: Row) -> bool:
    """Whether the `_free_prefix` state's rows, then row, are free: each h must fold to 1."""
    if state is None:
        return False
    u, s, v, t = row
    for x, y, h in state:
        if math.gcd(h, (x * v - y * u) * (x * t - y * s)) != 1:
            return False
    return True


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

    Every c divides the content g of a pair of the first pivot, so the set stays small:
    O(N^2 |moduli|) gcds at worst, O(N) when the first pivot's pairs are primitive.
    `_free_prefix` walks all but the last factor; `_free_last` folds that one in.
    """
    return _free_last(_free_prefix(rows[:-1]), rows[-1])


MASK_BOUND = 4  # the largest bound `_row_masks` tabulates: 177 bits, 6,561 rows


def _row_key(row: Row) -> int:
    """The row's four entries as signed bytes, read as one native array('I') item: so the
    keys of a chunk of rows held as array('b') are array('I', chunk.tobytes())."""
    return array("I", array("b", row).tobytes())[0]


@lru_cache(maxsize=None)
def _row_masks(bound: int) -> tuple[dict[int, int], int]:
    """(table, effective bits): a bitmask for each row with entries in [-bound, bound],
    keyed by `_row_key(row)`.

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
        _row_key((a, b, k, l)): divides[a, b] | divides[k, l] << 1 | lines[a, k] | lines[b, l]
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
    out = []  # a loop: a comprehension costs a call, and most calls transform one row
    for a, b, k, l in rows:
        out.append((a * s - k * r, b * s - l * r, -a * n + k * m, -b * n + l * m))
    return tuple(out)


def _normalize_rows(rows: Sequence[Row], shared: dict | None = None
                    ) -> tuple[tuple[Row, ...], tuple[int, ...], Matrix2]:
    """`normalize` on N >= 2 rows the caller knows to be effective and free: returns
    (normalized rows, permutation, reparametrization), postconditions checked.
    shared, one dict for the tuples of one rows[:-1], keeps `_head_state` by slot 1's
    reduced pair, and under None slot 1's pair and state if slot 1 is in rows[:-1]."""
    shared = {} if shared is None else shared
    block = shared.get(None)
    if block is None:
        for slot1, (a, b, _, _) in enumerate(rows):
            if a * b:
                break
        else:
            raise ClassificationViolation(
                "no factor has a_i*b_i != 0; a free action always has one",
                witness=rows, stage="normalization",
            )
        a1, _, k1, _ = rows[slot1]
        d = math.gcd(a1, k1)
        key = a1 // d, k1 // d
        if key not in shared:
            shared[key] = _head_state(rows, slot1, key)
        block = a1, k1, d, shared[key]
        if slot1 < len(rows) - 1:
            shared[None] = block
    a1, k1, d, (reparam, before, after, perm, ok, effective, free) = block
    (m, n), (r, s) = reparam
    last = _transform_rows(rows[-1:], m, n, r, s)
    new_rows = before + last + after
    if new_rows[0][0] != d or new_rows[0][2] != 0:
        raise ClassificationViolation(
            f"reparametrization took the first pair ({a1}, {k1}) to "
            f"({new_rows[0][0]}, {new_rows[0][2]}), not ({d}, 0)",
            witness=rows, stage="normalization",
        )
    if not new_rows[1][2] * new_rows[1][3]:
        raise ClassificationViolation(
            "no remaining factor has k_i*l_i != 0 after reparametrization; "
            "a free action always has one",
            witness=rows, stage="normalization",
        )

    # postconditions: orbits unchanged means effectiveness/freeness survive, in any row
    # order, and the relation pencil is carried by the substitution s -> M s; the input
    # is effective and free, so a failure here falsifies the normalization itself
    if not _effective_last(effective, last[0]) or not _free_last(free, last[0]):
        raise ClassificationViolation(
            "normalization destroyed effectiveness/freeness",
            witness=rows, stage="normalization",
        )
    if not ok or not _pulls_back(last[0], rows[-1], m, n, r, s):
        raise ClassificationViolation(
            "normalization broke the differential pencil",
            witness=rows, stage="normalization",
        )
    return new_rows, perm, reparam


def _head_state(rows: Sequence[Row], slot1: int, key: tuple[int, int]) -> tuple:
    """What rows[:-1] decide of normalizing rows with slot 1, whose reduced pair is key: the
    reparametrization, rows[:-1] transformed, in normalized order and split where the last
    row goes, the permutation, whether they pull back, and their prefix states."""
    (m, n), (r, s) = reparam = unimodular_complement(*key)
    head = _transform_rows(rows[:-1], m, n, r, s)
    order, perm = [*head, None], list(range(len(rows)))  # None: the last row
    order[0], order[slot1], perm[0], perm[slot1] = order[slot1], order[0], slot1, 0
    for slot2 in range(1, len(rows)):  # the last row is slot 2 if no earlier row is
        if order[slot2] is None or order[slot2][2] * order[slot2][3]:
            break
    order[1], order[slot2], perm[1], perm[slot2] = order[slot2], order[1], perm[slot2], perm[1]
    place = order.index(None)
    ok = all([_pulls_back(new, old, m, n, r, s) for new, old in zip(head, rows)])
    return (reparam, tuple(order[:place]), tuple(order[place + 1:]), tuple(perm), ok,
            _effective_prefix(head), _free_prefix(head))


def _pulls_back(row: Row, source: Row, m, n, r, s) -> bool:
    """Whether row's form, pulled back along the reparametrization, is its source's."""
    (a, b, k, l), (p, q, u, v) = row, source
    return pulled_back((a * b, a * l + b * k, k * l), m, n, r, s) == (p * q, p * v + q * u, u * v)


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
