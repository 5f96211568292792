import json
import math
import random
from itertools import product
from typing import Iterable

import pytest

from torquot import FreeCDGA, PreconditionError, TorusActionS3
from torquot.classify import _pencil, model_from_forms
from torquot.exact import rational
from torquot.quadforms import BinaryQuadraticForm

# the three reference actions used throughout: the unit-tangent-bundle
# action, Hopf x Hopf x trivial, and the mixed action with anisotropic pencil
T1_ROWS = ((1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 2))
HOPF_ROWS = ((1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0))
CP2_ROWS = ((1, 0, 0, 1), (1, 1, 1, -1), (0, 0, 0, 0))

# N=3, B=1 odometer blocks, by prefix: slots 1 and 2 in the prefix; slot 2 on
# the last row (epsilon -1 and +1 among the tuples); slot 1 on the last row
# (l1 = 0 and epsilon -1 among the tuples)
FAULT_BLOCKS = (
    ((1, 1, 1, 0), (0, 0, 1, 1)),
    ((-1, -1, -1, 1), (-1, -1, -1, 1)),
    ((1, 0, 0, 1), (0, 1, 1, 0)),
)


@pytest.fixture
def t1_action():
    return TorusActionS3(T1_ROWS)


@pytest.fixture
def hopf_action():
    return TorusActionS3(HOPF_ROWS)


@pytest.fixture
def cp2_action():
    return TorusActionS3(CP2_ROWS)


def lattice_spans_z2(pairs) -> bool:
    """Independent freeness oracle: do the (c, m) pairs generate all of Z^2?

    Folds the pairs into a triangular lattice basis [[g, x], [0, y]] by
    Euclidean steps; the pairs generate Z^2 iff |g * y| = 1.  Deliberately a
    different algorithm from the gcd-of-minors criterion in the package.
    """
    g, x = 0, 0
    y = 0
    for a, b in pairs:
        while a:
            if g == 0:
                g, x, a, b = a, b, 0, 0
                break
            q = a // g
            a, b = a - q * g, b - q * x
            if a:
                g, x, a, b = a, b, g, x
        y = math.gcd(y, b)
    return abs(g * y) == 1


def oracle_is_free(rows) -> bool:
    """Freeness by direct isotropy reasoning: every selection of one
    exponent pair per factor must generate the full weight lattice."""
    choices = [((a, k), (b, l)) for (a, b, k, l) in rows]
    return all(lattice_spans_z2(sel) for sel in product(*choices))


def random_action(rng: random.Random, n_factors: int, bound: int) -> TorusActionS3:
    return TorusActionS3(
        tuple(
            tuple(rng.randint(-bound, bound) for _ in range(4))
            for _ in range(n_factors)
        )
    )


def random_unimodular(rng: random.Random, steps: int = 4):
    """Random determinant +-1 integer 2x2 matrix from shears and swaps."""
    m = [[1, 0], [0, 1]]
    for _ in range(steps):
        t = rng.randint(-3, 3)
        if rng.random() < 0.5:
            m = [[m[0][0] + t * m[1][0], m[0][1] + t * m[1][1]], m[1]]
        else:
            m = [m[0], [m[1][0] + t * m[0][0], m[1][1] + t * m[0][1]]]
        if rng.random() < 0.3:
            m = [m[1], m[0]]
        if rng.random() < 0.3:
            m = [[-m[0][0], -m[0][1]], m[1]]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert abs(det) == 1
    return m


def quotient_square_form(forms) -> BinaryQuadraticForm:
    """The square map (alpha, beta) -> [(alpha*s1 + beta*s2)^2] mod a rank-2 pencil.

    `_pencil`'s phi has the pencil as kernel, so the induced form
    phi(alpha^2, 2*alpha*beta, beta^2) is defined up to a nonzero scalar.
    """
    rank, _, phi = _pencil(forms)
    assert rank == 2
    return BinaryQuadraticForm(phi[0], 2 * phi[1], phi[2])


def permuted(act: TorusActionS3, perm) -> TorusActionS3:
    """Action with its sphere factors reordered: row i is act.rows[perm[i]]."""
    return TorusActionS3(tuple(act.rows[p] for p in perm))


def reparametrized(act: TorusActionS3, m) -> TorusActionS3:
    """Action after the torus substitution (x, y) = (z^m00 w^m01, z^m10 w^m11)."""
    (p, q), (r, s) = m
    det = p * s - q * r
    rows = []
    for a, b, k, l in act.rows:
        # (a', k') solves (a, k) = a'(p, q) + k'(r, s); inverse has det +-1
        rows.append(
            (
                (a * s - k * r) * det,
                (b * s - l * r) * det,
                (-a * q + k * p) * det,
                (-b * q + l * p) * det,
            )
        )
    return TorusActionS3(tuple(rows))


def poincare_polynomial_spheres(dims: Iterable[int]) -> list[int]:
    """Coefficients of prod_i (1 + t^{n_i}) for a product of spheres."""
    coeffs = [1]
    for n in dims:
        if n < 2:
            raise PreconditionError(f"sphere dimension {n} < 2")
        out = coeffs + [0] * n
        for i, c in enumerate(coeffs):
            out[i + n] += c
        coeffs = out
    return coeffs


def build_d_alpha_model(alpha, m: int) -> FreeCDGA:
    """The dimension 3m+4 model with d(x1) = s1*s2, d(x2) = s1^2 + alpha*s2^2.

    Distinct square classes of alpha give non-isomorphic models with
    identical Betti numbers, so alpha is required to be nonzero.
    """
    if rational(alpha, "alpha") == 0:
        raise PreconditionError("alpha must be nonzero")
    if m < 0:
        raise PreconditionError("m must be >= 0")
    return model_from_forms(((0, 1, 0), (1, 0, alpha)) + ((0, 0, 0),) * m)


def comparable(report) -> dict:
    """A campaign report's record without its wall time: identical across worker counts."""
    record = report.to_record()
    record.pop("wall_time")
    return record


# -- writers for the input files the parsers read (round-trip tests) ------------------


def format_action(act: TorusActionS3) -> str:
    rows = [{"a": a, "b": b, "k": k, "l": l} for (a, b, k, l) in act.rows]
    return json.dumps({"n_factors": act.n_factors, "rows": rows})


def format_circle_action(act) -> str:
    factors = [{"sphere_dim": dim, "weights": list(w)} for dim, w in act.factors]
    return json.dumps({"factors": factors})


def format_polynomial(p, generators) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in sorted(p.terms.items()):
        if not mono.powers:
            ms = "1"
        else:
            ms = "*".join(
                f"{generators[i].name}^{e}" if e > 1 else generators[i].name
                for i, e in mono.powers
            )
        parts.append(f"{coeff} {ms}")
    return " + ".join(parts)


def format_model(a) -> str:
    lines = [f"model {a.kind}"]
    lines += [f"gen {g.name} {g.degree}" for g in a.generators]
    lines += [f"d {g.name} = {format_polynomial(a._diff[i], a.generators)}"
              for i, g in enumerate(a.generators)]
    return "\n".join(lines) + "\n"
