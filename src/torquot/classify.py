"""Classification deciders for torus quotients of sphere products.

The main entry point is ``classify_t2_quotient``: given a free, effective
rank-2 torus action on a product of 3-spheres it decides which of the three
possible rational homotopy types the quotient has.  Two independent methods
run on every call and must agree:

* the invariant method: the rank of the degree-4 relation pencil, plus the
  square class of the discriminant of the induced square map on the
  quotient line (basis independent, normative);
* the proof path: factor normalization, the sign invariant epsilon of the
  reduced weight data, and the explicit change-of-basis rewrites (every
  intermediate identity is re-checked on the instance).

Any state these methods cannot reach for a genuinely free action raises
``ClassificationViolation`` -- the harness treats that as "theorem
falsified", which is precisely what a verification campaign is looking for.

Sign convention, fixed empirically against the cohomology oracle and the
explicit rewrites: epsilon = +1 corresponds to the S^2 x S^2 type and
epsilon = -1 to the CP^2 # CP^2 type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .actions import (
    NormalizedActionS3,
    Row,
    TorusActionS3,
    _forms,
    _normalize_rows,
    differential_rows,
    is_effective,
    is_free,
)
from .cdga import FreeCDGA, Generator, HomotopyProfile, Monomial, Polynomial, check_elliptic_constraints
from .errors import ClassificationViolation, FreenessViolation, PreconditionError
from .exact import det2, is_rational_square
from .quadforms import BinaryQuadraticForm, Form

S2XS2_PRODUCT = "S2xS2_PRODUCT"
CP2_CONNSUM_PRODUCT = "CP2_CONNSUM_PRODUCT"
T1_S2XS2_PRODUCT = "T1_S2xS2_PRODUCT"
S2XS5_PRODUCT = "S2xS5_PRODUCT"
CP2_PRODUCT = "CP2_PRODUCT"

T2_KINDS = (S2XS2_PRODUCT, CP2_CONNSUM_PRODUCT, T1_S2XS2_PRODUCT)
S1_KINDS = (S2XS5_PRODUCT, CP2_PRODUCT)


# -- rank bounds and slice arithmetic -------------------------------------------


def max_effective_rank(n: int) -> int:
    """Largest torus rank acting effectively on a rationally elliptic n-manifold."""
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    return (2 * n) // 3


def max_almost_free_rank(n: int) -> tuple[int, bool]:
    """(floor(n/3), attainable): the almost-free bound and whether it is achieved.

    Rank floor(n/3) almost-free actions exist exactly when n is not 1 mod 3.
    """
    if n < 1:
        raise PreconditionError("dimension must be >= 1")
    return n // 3, n % 3 != 1


def slice_invariants(n: int) -> tuple[int, int, int]:
    """(k, s, almost_free_subrank) for a maximal effective action, k = floor(2n/3).

    Such an action is slice maximal (n = k + s), and contains an almost-free
    subtorus of rank 2k - n.  The identities k = 2s - a and n = 3s - a with
    a = 2n - 3k in {0, 1, 2} follow from k = floor(2n/3).
    """
    if n < 3:
        raise PreconditionError("dimension must be >= 3")
    k = max_effective_rank(n)
    return k, n - k, 2 * k - n


# -- homotopy profiles ------------------------------------------------------------


@dataclass(frozen=True)
class SphereFactorization:
    """A product of spheres divided by a free torus of rank circle_rank."""

    spheres: tuple[int, ...]
    circle_rank: int

    def __post_init__(self):
        object.__setattr__(self, "spheres", tuple(sorted(self.spheres)))
        if any(d < 2 for d in self.spheres):
            raise PreconditionError("sphere dimensions must be >= 2")
        if self.circle_rank < 0 or self.quotient_dimension < 0:
            raise PreconditionError("invalid circle rank")

    @property
    def quotient_dimension(self) -> int:
        return sum(self.spheres) - self.circle_rank


def profile_to_models(p: HomotopyProfile) -> list[SphereFactorization]:
    """Sphere/circle factorizations realizing a profile.

    Contribution rules: an odd sphere S^{2m+1} adds 1 to d_{2m+1}; an even
    sphere S^{2m} (m >= 2) adds 1 to both d_{2m} and d_{4m-1}; a circle
    factor adds 1 to d_2 and subtracts 1 from the dimension.  Sphere factors
    have dimension >= 3 (an S^2 is the quotient (S^3)/S^1 and enters through
    the circle rank), so the factorization is forced degree by degree and
    the only freedom left is whether the dimension count works out.
    """
    if not check_elliptic_constraints(p, 0).all_ok:
        raise PreconditionError("profile fails the ellipticity constraints at rank 0")
    circle_rank = p.dim(2)
    dims: list[int] = []
    for j, v in p.d:
        if j == 2:
            continue
        if j % 2 == 0:
            if j < 4:
                return []
            dims.extend([j] * v)
        else:
            companions = p.dim((j + 1) // 2) if (j % 4 == 3 and j >= 7) else 0
            odd_count = v - companions
            if odd_count < 0:
                return []
            dims.extend([j] * odd_count)
    if sum(dims) - circle_rank != p.n:
        return []
    return [SphereFactorization(tuple(dims), circle_rank)]


def _odd_partitions(total: int, max_part: int):
    """Multiplicity maps {odd degree >= 3: count} summing to total."""
    if max_part % 2 == 0:
        max_part -= 1

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield {}
            return
        part = min(largest, remaining)
        if part % 2 == 0:
            part -= 1
        while part >= 3:
            for count in range(remaining // part, 0, -1):
                for rest in rec(remaining - count * part, part - 2):
                    out = dict(rest)
                    out[part] = count
                    yield out
            part -= 2

    yield from rec(total, max_part)


def enumerate_profiles(n: int, k: int, mode: str) -> list[HomotopyProfile]:
    """All homotopy profiles a torus action of the given rank allows.

    Constraints imposed (with the effective rank k' = k in almost_free mode,
    k' = 2k - n in effective_max mode, the almost-free subrank of a slice
    maximal action):

    * n >= sum 2j*d_2j,
    * n  = sum (2j+1)*d_{2j+1} - sum (2j-1)*d_{2j},
    * k' <= -chi_pi,
    * n - k' >= 2*(d_2 + k') + sum_{j>=2} 2j*d_{2j}   (the shifted even bound
      for the homotopy quotient, whose d_2 grows by k').

    The search is exhaustive: even degrees are bounded by the shifted even
    bound, and the dimension identity pins the total odd weight, which
    bounds every odd degree.  In effective_max mode, only profiles
    realizable by a sphere/circle factorization are kept, and k must be the
    maximal rank floor(2n/3).
    """
    if n < 3 or k < 1:
        raise PreconditionError("need n >= 3 and k >= 1")
    if mode == "almost_free":
        k_eff = k
    elif mode == "effective_max":
        if k != max_effective_rank(n):
            raise PreconditionError(
                "effective_max mode is defined for k = floor(2n/3) = "
                f"{max_effective_rank(n)}, got k = {k}"
            )
        k_eff = 2 * k - n
    else:
        raise PreconditionError(f"unknown mode {mode!r}")

    bound = n - 3 * k_eff  # slack of the shifted even bound
    if bound < 0:
        return []

    even_degrees = list(range(2, n + 1, 2))

    def even_assignments(idx: int, budget: int):
        if idx == len(even_degrees):
            yield {}
            return
        j = even_degrees[idx]
        # degree 2 costs 2 per unit against the shifted bound, degree 2j costs 2j
        cost = 2 if j == 2 else j
        for v in range(budget // cost + 1):
            for rest in even_assignments(idx + 1, budget - v * cost):
                if v:
                    out = {j: v}
                    out.update(rest)
                    yield out
                else:
                    yield rest

    profiles = []
    for evens in even_assignments(0, bound):
        odd_target = n + sum((j - 1) * v for j, v in evens.items())
        even_count = sum(evens.values())
        for odds in _odd_partitions(odd_target, odd_target):
            if sum(odds.values()) - even_count < k_eff:
                continue
            d = dict(evens)
            d.update(odds)
            profile = HomotopyProfile.from_dict(n, d)
            if mode == "effective_max" and not profile_to_models(profile):
                continue
            profiles.append(profile)
    profiles.sort(key=lambda p: p.d)
    return profiles


# -- quotient models ----------------------------------------------------------------


def quotient_model(act: TorusActionS3) -> FreeCDGA:
    """The model Q[s1,s2] (x) Lambda(x_1..x_N) of the quotient of the action."""
    return model_from_forms(differential_rows(act))


def model_from_forms(forms: Sequence[Form]) -> FreeCDGA:
    gens = [Generator("s1", 2), Generator("s2", 2)]
    gens += [Generator(f"x{i+1}", 3) for i in range(len(forms))]
    squares = Monomial(((0, 2),)), Monomial(((0, 1), (1, 1))), Monomial(((1, 2),))
    differential = {2 + i: Polynomial(dict(zip(squares, f))) for i, f in enumerate(forms)}
    return FreeCDGA(gens, differential, kind="minimal")


_CANONICAL_FORMS = {
    S2XS2_PRODUCT: ((1, 0, 0), (0, 0, 1)),
    CP2_CONNSUM_PRODUCT: ((0, 1, 0), (1, 0, -1)),
    T1_S2XS2_PRODUCT: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}


def canonical_quotient_model(kind: str, n_factors: int) -> FreeCDGA:
    """The canonical N-factor model of each quotient type."""
    if kind not in _CANONICAL_FORMS:
        raise PreconditionError(f"unknown quotient kind {kind!r}")
    base = _CANONICAL_FORMS[kind]
    if n_factors < len(base):
        raise PreconditionError(f"{kind} needs at least {len(base)} factors")
    return model_from_forms(base + ((0, 0, 0),) * (n_factors - len(base)))


def build_d_alpha_model(alpha, m: int) -> FreeCDGA:
    """The dimension 3m+4 model with d(x1) = u1*u2, d(x2) = u1^2 + alpha*u2^2.

    Distinct square classes of alpha give non-isomorphic models with
    identical Betti numbers, so alpha is required to be nonzero.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise PreconditionError("alpha must be nonzero")
    if m < 0:
        raise PreconditionError("m must be >= 0")
    gens = [Generator("u1", 2), Generator("u2", 2)]
    gens += [Generator(f"x{i+1}", 3) for i in range(m + 2)]
    u1u1 = Monomial(((0, 2),))
    u1u2 = Monomial(((0, 1), (1, 1)))
    u2u2 = Monomial(((1, 2),))
    differential = {
        2: Polynomial({u1u2: Fraction(1)}),
        3: Polynomial({u1u1: Fraction(1), u2u2: alpha}),
    }
    return FreeCDGA(gens, differential, kind="minimal")


def square_class_isomorphic(alpha, beta) -> bool:
    """True iff beta = c^2 * alpha for some rational c (both nonzero)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha == 0 or beta == 0:
        raise PreconditionError("square classes are defined for nonzero rationals")
    return is_rational_square(beta / alpha)


# -- the rank-2 substitution lemma ------------------------------------------------


@dataclass(frozen=True)
class SubstitutionWitness:
    """Invertible rewrite (s1, s2) -> (s~1, s~2), (x1, x2) -> (x~1, x~2).

    s_map rows give s~i in the s basis, x_map rows give x~i in the x basis;
    verified on construction by re-expanding the transformed differentials.
    Entries are ints: the witness is scaled so that no division is needed.
    """

    s_map: tuple[tuple[int, int], tuple[int, int]]
    x_map: tuple[tuple[int, int], tuple[int, int]]


def _square_of_linear(p, q) -> Form:
    return (p * p, 2 * p * q, q * q)


def lemma64_substitution(d1: Form, d2: Form) -> SubstitutionWitness:
    """Rewrite a rank-2 pencil in normal position as (s~1^2, s~2^2).

    Accepts either d1 = alpha*s1^2, d2 = beta*s1*s2 + gamma*s2^2 with
    alpha, gamma != 0, or the special pair d1 = s1*s2, d2 = s1^2 + s2^2.
    In the first position the witness is scaled by alpha (and beta, gamma) so
    that it needs no division and stays integral.  The returned substitution
    is verified exactly: applying x_map to (d1, d2) must reproduce the
    squares of the s_map rows.
    """
    (A1, B1, C1), (A2, B2, C2) = d1, d2
    if B1 == 0 and C1 == 0 and A1 != 0 and A2 == 0 and C2 != 0:
        alpha, beta, gamma = A1, B2, C2
        if beta == 0:
            s_map = x_map = ((alpha, 0), (0, gamma))
        else:
            p, c = alpha * beta, alpha * beta * beta
            s_map = ((p, 0), (p, 2 * alpha * gamma))
            x_map = ((c, 0), (c, 4 * alpha * alpha * gamma))
    elif (A1, B1, C1, A2, B2, C2) == (0, 1, 0, 1, 0, 1):
        s_map = ((1, -1), (1, 1))
        x_map = ((-2, 1), (2, 1))
    else:
        raise PreconditionError(
            f"pencil ({BinaryQuadraticForm(*d1)}; {BinaryQuadraticForm(*d2)}) "
            "is not in either normal position"
        )

    for (c1, c2), (p, q) in zip(x_map, s_map):
        transformed = (c1 * A1 + c2 * A2, c1 * B1 + c2 * B2, c1 * C1 + c2 * C2)
        if transformed != _square_of_linear(p, q):
            raise ClassificationViolation(
                "substitution failed to reduce the pencil to squares",
                witness=((A1, B1, C1), (A2, B2, C2)), stage="substitution",
            )
    if s_map[0][0] * s_map[1][1] - s_map[0][1] * s_map[1][0] == 0:
        raise ClassificationViolation("substitution is not invertible", stage="substitution")
    return SubstitutionWitness(s_map, x_map)


# -- the epsilon invariant -------------------------------------------------------------


def _reduced_first_pair(rows: Sequence[Row]) -> tuple[int, int]:
    """(b1, l1) of normalized rows divided by their gcd.

    This is the model-level rescale of the first generator: it divides the
    whole first relation row, and it preserves the freeness condition (every
    minor against the first row is divisible by the gcd being removed).
    """
    _, b1, _, l1 = rows[0]
    g = math.gcd(b1, l1)
    return b1 // g, l1 // g


def _epsilon(rows: Sequence[Row], bh: int, lh: int) -> int:
    """epsilon of normalized rows whose reduced first pair is (bh, lh != 0)."""
    sides = [
        (det2(bh, aj, lh, kj) * det2(bh, bj, lh, lj), kj * lj)
        for (aj, bj, kj, lj) in rows[1:]
    ]
    # factor 2 fixes epsilon (k2*l2 != 0 in normalized form); the rest must agree
    x2, y2 = sides[0]
    if y2 == 0 or x2 % y2 != 0:
        raise ClassificationViolation(
            f"epsilon identity fails at factor 2: {x2} vs {y2}", witness=rows, stage="epsilon"
        )
    eps = x2 // y2
    if eps not in (1, -1):
        raise ClassificationViolation(f"epsilon = {eps} is not a sign", witness=rows, stage="epsilon")
    for j, (xj, yj) in enumerate(sides[1:], start=3):
        if xj != eps * yj:
            raise ClassificationViolation(
                f"epsilon identity fails at factor {j}: {xj} != {eps}*{yj}",
                witness=rows,
                stage="epsilon",
            )
    return eps


def epsilon_invariant(norm: NormalizedActionS3) -> int:
    """The sign epsilon in {+1, -1} attached to a rank-2 relation pencil.

    Requires the normalized form with l1 != 0 after the gcd reduction of
    (b1, l1), and relation rank exactly 2.  Defined by

        det[[b1, a2], [l1, k2]] * det[[b1, b2], [l1, l2]] = epsilon * k2 * l2

    and the same identity is asserted for every factor j >= 2; any failure,
    or epsilon outside {+1, -1}, is a ClassificationViolation (it would
    contradict the rank-2 classification).
    """
    bh, lh = _reduced_first_pair(norm.action.rows)
    if lh == 0:
        raise PreconditionError("epsilon is defined only when l1 != 0")
    if _pencil(_forms(norm.action.rows))[0] != 2:
        raise PreconditionError("epsilon is defined only for rank-2 pencils")
    return _epsilon(norm.action.rows, bh, lh)


# -- the three-type classifier ------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    """The verdict, with the integer relation forms it was decided from.

    ``rank_d3`` (2 or 3) is the rank of the span of ``forms`` and ``phi`` the
    cross product of its `_pencil` state; each of the other ``trailing_s3``
    forms adds an S^3 factor.  ``pencil``, the reduced echelon basis of the
    span, is read off ``phi`` on first read.  Campaigns build no result.
    """

    kind: str
    rank_d3: int
    epsilon: int | None
    forms: tuple[Form, ...]
    phi: Form

    def __post_init__(self):
        if self.kind not in T2_KINDS:
            raise PreconditionError(f"unknown kind {self.kind!r}")
        if self.rank_d3 not in (2, 3):
            raise PreconditionError(f"rank_d3 = {self.rank_d3} is not 2 or 3")
        if (self.kind == T1_S2XS2_PRODUCT) != (self.rank_d3 == 3):
            raise PreconditionError("T1 type corresponds exactly to rank 3")
        if self.epsilon is not None and (self.rank_d3 != 2 or self.epsilon not in (1, -1)):
            raise PreconditionError("epsilon only accompanies rank-2 results")

    @property
    def trailing_s3(self) -> int:
        return len(self.forms) - self.rank_d3

    @cached_property
    def pencil(self) -> tuple[BinaryQuadraticForm, ...]:
        return _echelon_pencil(self.rank_d3, self.phi)

    def to_record(self) -> dict:
        record = {"kind": self.kind, "trailing_s3": self.trailing_s3, "rank_d3": self.rank_d3}
        if self.epsilon is not None:
            record["epsilon"] = self.epsilon
        record["pencil"] = [[str(c) for c in f.coefficients()] for f in self.pencil]
        record["violations"] = []
        return record


def _pencil(forms: Sequence[Form], rank: int = 0, u: Form | None = None, phi=None):
    """(rank, u, phi) of the span of the relation forms, from one cross product.

    u is the first nonzero form and phi = u x v for the first form v off u's
    line; each is None until it exists.  The rank is 3 exactly when phi.w != 0
    for a later form w; at rank 2, phi spans the functionals that kill the span.
    A left fold: _pencil(forms[k:], *_pencil(forms[:k])) == _pencil(forms).
    """
    forms = iter(forms)
    if rank == 0:
        u = next((f for f in forms if f[0] or f[1] or f[2]), None)
        if u is None:
            return 0, None, None
    if rank <= 1:
        u0, u1, u2 = u
        for v0, v1, v2 in forms:
            p0, p1, p2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
            if p0 or p1 or p2:
                phi = p0, p1, p2
                break
        else:
            return 1, u, None
    if rank <= 2:
        p0, p1, p2 = phi
        for w0, w1, w2 in forms:
            if p0 * w0 + p1 * w1 + p2 * w2:
                return 3, u, phi
        return 2, u, phi
    return 3, u, phi


def _ratio(num: int, den: int):
    """num/den as an int when it is one, else as a Fraction."""
    return Fraction(num, den) if num % den else num // den


def _echelon_pencil(rank: int, phi: Form) -> tuple[BinaryQuadraticForm, ...]:
    """Reduced row echelon basis of a span of relation forms of rank 2 or 3,
    read off the rank and phi of its `_pencil` state.

    At rank 3 it is the identity; at rank 2 the span is the kernel of
    phi = (p0, p1, p2), whose echelon basis is read off the last nonzero p_i.
    """
    p0, p1, p2 = phi
    F = BinaryQuadraticForm
    if rank == 3:
        return F(1, 0, 0), F(0, 1, 0), F(0, 0, 1)
    if p2:
        return F(1, 0, _ratio(-p0, p2)), F(0, 1, _ratio(-p1, p2))
    if p1:
        return F(1, _ratio(-p0, p1), 0), F(0, 0, 1)
    return F(0, 1, 0), F(0, 0, 1)


def _quotient_square_form(forms: Sequence[Form]) -> BinaryQuadraticForm:
    """The square map (alpha, beta) -> [(alpha*s1 + beta*s2)^2] mod the pencil.

    At rank 2 `_pencil`'s phi has the pencil as kernel, so the induced form
    phi(alpha^2, 2*alpha*beta, beta^2) is defined up to a nonzero scalar.
    """
    rank, _, phi = _pencil(forms)
    if rank < 2:
        raise PreconditionError("zero pencil" if rank == 0 else "pencil has rank < 2")
    return BinaryQuadraticForm(phi[0], 2 * phi[1], phi[2])


def _proof_path_kind(rows: Sequence[Row]) -> tuple[str, int | None]:
    """Classify effective, free rank-2 rows along the normalization/epsilon route."""
    norm_rows, _, _ = _normalize_rows(rows)
    bh, lh = _reduced_first_pair(norm_rows)
    if lh == 0:
        # gcd-reduced (b1, 0) forces b1 = +-1; kill the s1^2 part of row 2 and
        # land in the first normal position of the substitution lemma
        if abs(bh) != 1:
            raise ClassificationViolation(
                f"gcd-reduced first pair ({bh}, 0) is not a unit vector",
                witness=rows, stage="proof_path",
            )
        a2, b2, k2, l2 = norm_rows[1]
        eps, pencil = None, ((bh, 0, 0), (0, a2 * l2 + b2 * k2, k2 * l2))
    try:
        if lh:
            eps = _epsilon(norm_rows, bh, lh)
            if eps != 1:
                return CP2_CONNSUM_PRODUCT, eps
            pencil = ((0, 1, 0), (1, 0, 1))  # D(x1) = s1*s~2, D(x2') = s1^2 + s~2^2
        lemma64_substitution(*pencil)
    except ClassificationViolation as exc:  # name the action, not its normalized rows or pencil
        raise ClassificationViolation(str(exc), witness=rows, stage=exc.stage) from exc
    return S2XS2_PRODUCT, eps


def _classify_free_rows(rows: Sequence[Row], pencil: tuple) -> tuple[str, int | None]:
    """(kind, epsilon) of at least two rows already known effective and free.

    pencil is their `_pencil(_forms(rows))`.  Campaigns call this on rows their
    filter passed, with the pencil folded on from their prefix's;
    `classify_t2_quotient` calls it after its own checks.
    """
    rank, _, phi = pencil
    if rank <= 1:
        raise ClassificationViolation(
            f"relation pencil has rank {rank} < 2 for a free action",
            witness=rows, stage="invariant",
        )
    if rank == 3:
        return T1_S2XS2_PRODUCT, None

    p0, p1, p2 = phi
    disc = 4 * p1 * p1 - 4 * p0 * p2  # of the square map (p0, 2*p1, p2)
    if disc and is_rational_square(disc):
        kind = S2XS2_PRODUCT
    elif disc and is_rational_square(-disc):
        kind = CP2_CONNSUM_PRODUCT
    else:
        q = BinaryQuadraticForm(p0, 2 * p1, p2)
        if disc == 0:
            raise ClassificationViolation(
                f"quotient square map {q} is degenerate", witness=rows, stage="invariant"
            )
        raise ClassificationViolation(
            f"anisotropic square map {q} with discriminant {disc} outside "
            "both admissible square classes",
            witness=rows, stage="invariant",
        )
    proof_kind, eps = _proof_path_kind(rows)
    if proof_kind != kind:
        raise ClassificationViolation(
            f"invariant method says {kind}, proof path says {proof_kind}",
            witness=rows, stage="proof_path",
        )
    return kind, eps


def classify_t2_quotient(act: TorusActionS3) -> ClassificationResult:
    """Decide the rational homotopy type of (prod S^3) / T^2 for a free action.

    Normative algorithm: rank 3 of the relation pencil gives the unit
    tangent bundle type; rank 2 is split by the square class of the
    discriminant of the quotient square map (nonzero square = isotropic =
    S^2 x S^2 type, minus-a-square = CP^2 # CP^2 type).  The proof path
    (normalization, epsilon, explicit rewrites) runs as a cross-check and
    must agree.  Everything else raises ClassificationViolation.
    """
    if act.n_factors < 2:
        raise PreconditionError("classification needs at least two factors")
    if not is_effective(act):
        raise PreconditionError("action is not effective")
    if not is_free(act):
        raise PreconditionError("action is not free")
    forms = tuple(_forms(act.rows))
    kind, eps = _classify_free_rows(act.rows, pencil := _pencil(forms))
    return ClassificationResult(kind, pencil[0], eps, forms, pencil[2])


# -- circle quotients of S^5 x prod S^3 ----------------------------------------------


def classify_s1_quotient(lambdas: Sequence[int], alpha: int) -> str:
    """Dichotomy for free circle quotients of S^5 x prod S^3.

    Some lambda nonzero kills one S^3 factor into an S^2; all lambda zero
    forces alpha != 0 (else the quotient would have infinite cohomological
    dimension, impossible for a free action) and yields the CP^2 type.
    """
    if any(lambdas):
        return S2XS5_PRODUCT
    if alpha != 0:
        return CP2_PRODUCT
    raise FreenessViolation(
        "all Euler coefficients vanish; no free action produces this"
    )
