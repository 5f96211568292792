"""Free graded-commutative differential algebras over Q.

A model here is a free algebra on finitely many generators of degree >= 2
(odd generators square to zero, even generators are polynomial) together
with a degree +1 derivation d with d.d = 0.  Cohomology is computed degree
by degree from exact ranks of the differential on the monomial basis; this
is the ground-truth oracle that the classification code is checked against,
so ``FreeCDGA`` knows nothing about torus actions (only the ellipticity
constraints of homotopy profiles below take a torus rank).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import InputFormatError, PreconditionError
from .exact import int_tuple, parse_rational, rank_int_rows, rational

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_EXPONENT_RE = re.compile(r"[0-9]+\Z")  # ASCII digits: int() also takes "٢", "+2", "1_0"


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise PreconditionError(f"bad generator name {self.name!r}")
        if int_tuple((self.degree,), "generator degree")[0] < 2:
            raise PreconditionError(
                f"generator {self.name} has degree {self.degree}; "
                "models in scope are simply connected (degree >= 2)"
            )


@dataclass(frozen=True, order=True)
class Monomial:
    """Product of generator powers, stored as sorted (index, exponent) pairs."""

    powers: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        int_tuple(chain.from_iterable(self.powers), "monomial indices and exponents")
        idxs = [i for i, _ in self.powers]
        if idxs != sorted(set(idxs)):
            raise PreconditionError("monomial indices must be strictly ascending")
        if any(e <= 0 for _, e in self.powers):
            raise PreconditionError("monomial exponents must be positive")

    @property
    def word_length(self) -> int:
        return sum(e for _, e in self.powers)

    def degree(self, generators: Sequence[Generator]) -> int:
        return sum(e * generators[i].degree for i, e in self.powers)


UNIT = Monomial()


class Polynomial:
    """Q-linear combination of monomials; zero coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(rational(coeff, "coefficient"))
                if c:
                    clean[mono] = c
        self.terms = clean

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def monomial(cls, mono: Monomial, coeff=1) -> "Polynomial":
        return cls({mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def homogeneous_degree(self, generators: Sequence[Generator]) -> int | None:
        """Common degree of all terms, or None (zero polynomial has no degree)."""
        degs = {m.degree(generators) for m in self.terms}
        if len(degs) != 1:
            if not degs:
                return None
            raise PreconditionError("polynomial is not homogeneous")
        return degs.pop()

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


def _merge_monomials(
    p1: tuple[tuple[int, int], ...],
    p2: tuple[tuple[int, int], ...],
    odd: Sequence[bool],
) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """Koszul product of two monomials: (sign, merged powers), or None if zero.

    The sign is (-1)^inversions where an inversion is an odd generator of the
    right factor that must move past a strictly larger odd generator of the
    left factor.
    """
    o1 = [i for i, _ in p1 if odd[i]]
    # o1 is ascending: the o1 entries > x are the last len(o1) - bisect_right(o1, x)
    inversions = sum(len(o1) - bisect_right(o1, i) for i, _ in p2 if odd[i]) if o1 else 0
    merged: list[tuple[int, int]] = []
    i = j = 0
    while i < len(p1) and j < len(p2):
        (gi, ei), (gj, ej) = p1[i], p2[j]
        if gi < gj:
            merged.append((gi, ei))
            i += 1
        elif gi > gj:
            merged.append((gj, ej))
            j += 1
        else:
            if odd[gi]:
                return None  # odd square
            merged.append((gi, ei + ej))
            i += 1
            j += 1
    merged.extend(p1[i:])
    merged.extend(p2[j:])
    return (-1 if inversions % 2 else 1), tuple(merged)


@dataclass(frozen=True)
class HomotopyProfile:
    """Dimensions of the rational homotopy groups of a formal-dimension-n space."""

    n: int
    d: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        int_tuple((self.n, *chain.from_iterable(self.d)), "profile dimension, degrees and counts")
        pairs = tuple(sorted((j, v) for j, v in self.d if v))
        for j, v in pairs:
            if j < 2 or v < 0:
                raise PreconditionError(f"invalid homotopy dimension d_{j} = {v}")
        object.__setattr__(self, "d", pairs)

    @classmethod
    def from_dict(cls, n: int, d: Mapping[int, int]) -> "HomotopyProfile":
        return cls(n, tuple(d.items()))

    def dim(self, j: int) -> int:
        for jj, v in self.d:
            if jj == j:
                return v
        return 0


def chi_pi(p: HomotopyProfile) -> int:
    """Homotopy Euler characteristic: alternating sum of the d_j."""
    return sum(v if j % 2 == 0 else -v for j, v in p.d)


@dataclass(frozen=True)
class EllipticReport:
    """Outcome of the almost-free ellipticity constraints for torus rank k.

    even_slack    : n - sum 2j*d_2j                     (>= 0 required)
    dim_residual  : n - (sum (2j+1)d_{2j+1} - sum (2j-1)d_{2j})   (= 0 required)
    rank_slack    : -chi_pi - k                          (>= 0 required)
    """

    even_ok: bool
    even_slack: int
    dim_ok: bool
    dim_residual: int
    rank_ok: bool
    rank_slack: int

    @property
    def all_ok(self) -> bool:
        return self.even_ok and self.dim_ok and self.rank_ok


def check_elliptic_constraints(p: HomotopyProfile, k: int) -> EllipticReport:
    int_tuple((k,), "rank")
    even_load = sum(j * v for j, v in p.d if j % 2 == 0)
    odd_weight = sum(j * v for j, v in p.d if j % 2 == 1)
    even_weight = sum((j - 1) * v for j, v in p.d if j % 2 == 0)
    even_slack = p.n - even_load
    dim_residual = p.n - (odd_weight - even_weight)
    rank_slack = -chi_pi(p) - k
    return EllipticReport(
        even_ok=even_slack >= 0,
        even_slack=even_slack,
        dim_ok=dim_residual == 0,
        dim_residual=dim_residual,
        rank_ok=rank_slack >= 0,
        rank_slack=rank_slack,
    )


@lru_cache(maxsize=None)
def _degree_basis(degrees: tuple[int, ...], q: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree q (odd generators at most once)."""
    if q == 0:
        return ((0,) * len(degrees),)
    if q < 0 or not degrees:
        return ()
    out = []
    deg0 = degrees[0]
    max_e = 1 if deg0 % 2 else q // deg0
    for e in range(max_e + 1):
        for rest in _degree_basis(degrees[1:], q - e * deg0):
            out.append((e,) + rest)
    return tuple(out)


def _pack(powers: Iterable[tuple[int, int]], radix: int) -> int:
    return sum(e * radix ** i for i, e in powers)


@lru_cache(maxsize=None)
def _differential_shape(degrees: tuple[int, ...], q: int):
    """The model-free part of d_q: for each basis monomial v of degree q, one
    (i, e_i * (-1)^(degree before i), packed v - e_i, its odd-generator bitmask)
    per generator i in v; and the column of each packed monomial of degree q + 1.
    Packing is base q + 2, which no exponent in degree q + 1 reaches."""
    radix = q + 2
    index = {_pack(enumerate(v), radix): j for j, v in enumerate(_degree_basis(degrees, q + 1))}
    shape = []
    for v in _degree_basis(degrees, q):
        key = _pack(enumerate(v), radix)
        mask = sum(1 << i for i, e in enumerate(v) if e * degrees[i] % 2)
        entries, parity = [], 0
        for i, e in enumerate(v):
            if e:
                odd = degrees[i] % 2
                entries.append((i, -e if parity else e, key - radix ** i, mask & ~(odd << i)))
                parity ^= odd
        shape.append(tuple(entries))
    return tuple(shape), index


class FreeCDGA:
    """A free CDGA with named generators and a derivation differential.

    d is given on generators and checked at construction: each image is
    homogeneous of the generator's degree + 1, d.d vanishes on every
    generator, and for kind='minimal' every image monomial has word length
    >= 2 (decomposability).
    """

    def __init__(
        self,
        generators: Sequence[Generator],
        differential: Mapping[int, Polynomial] | None = None,
        kind: str = "minimal",
    ):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise PreconditionError("duplicate generator names")
        if kind not in ("minimal", "relative"):
            raise PreconditionError(f"unknown model kind {kind!r}")
        differential = differential or {}

        self.generators = gens
        self.kind = kind
        self._odd = tuple(g.degree % 2 == 1 for g in gens)
        self._diff = tuple(differential.get(i) or Polynomial.zero() for i in range(len(gens)))
        self._validate()

    # -- construction checks ------------------------------------------------

    def _validate(self):
        for i, img in enumerate(self._diff):
            for mono in img.terms:
                for gi, e in mono.powers:
                    if not 0 <= gi < len(self.generators):
                        raise PreconditionError("differential references unknown generator")
                    if self._odd[gi] and e > 1:
                        raise PreconditionError("odd generator raised to a power > 1")
            if not img.is_zero():
                deg = img.homogeneous_degree(self.generators)
                if deg != self.generators[i].degree + 1:
                    raise PreconditionError(
                        f"d({self.generators[i].name}) has degree {deg}, "
                        f"expected {self.generators[i].degree + 1}"
                    )
                if self.kind == "minimal":
                    for mono in img.terms:
                        if mono.word_length < 2:
                            raise PreconditionError(
                                f"d({self.generators[i].name}) is not decomposable; "
                                "construct with kind='relative'"
                            )
        for i in range(len(self.generators)):
            if not self.apply_differential(self._diff[i]).is_zero():
                raise PreconditionError(
                    f"d o d != 0 on generator {self.generators[i].name}"
                )

    # -- structural identity -------------------------------------------------

    def __eq__(self, other):
        """Structural equality: degrees and differential coefficients, not names."""
        if not isinstance(other, FreeCDGA):
            return NotImplemented
        return (
            tuple(g.degree for g in self.generators)
            == tuple(g.degree for g in other.generators)
            and self._diff == other._diff
            and self.kind == other.kind
        )

    # -- algebra operations ----------------------------------------------------

    def multiply(self, p: Polynomial, q: Polynomial) -> Polynomial:
        """Graded-commutative product with Koszul signs."""
        out: dict[Monomial, Fraction] = {}
        odd = self._odd
        for m1, c1 in p.terms.items():
            for m2, c2 in q.terms.items():
                merged = _merge_monomials(m1.powers, m2.powers, odd)
                if merged is None:
                    continue
                sign, powers = merged
                mono = Monomial(powers)
                c = out.get(mono, 0) + sign * c1 * c2
                if c:
                    out[mono] = c
                else:
                    out.pop(mono, None)
        res = Polynomial.__new__(Polynomial)
        res.terms = out
        return res

    def apply_differential(self, p: Polynomial) -> Polynomial:
        """Extend the generator differential as a degree +1 derivation.

        d(v.w) = d(v).w + (-1)^deg(v) v.d(w), applied factor by factor along
        each monomial.
        """
        gens = self.generators
        result = Polynomial.zero()
        for mono, coeff in p.terms.items():
            powers = mono.powers
            prefix_parity = 0
            for pos, (gi, e) in enumerate(powers):
                dg = self._diff[gi]
                if not dg.is_zero():
                    left = powers[:pos] + (((gi, e - 1),) if e > 1 else ())
                    right = powers[pos + 1:]
                    sign = -1 if prefix_parity % 2 else 1
                    term = Polynomial.monomial(Monomial(left), sign * coeff * e)
                    term = self.multiply(term, dg)
                    term = self.multiply(term, Polynomial.monomial(Monomial(right)))
                    result = result + term
                prefix_parity += e * gens[gi].degree
        return result

    # -- cohomology --------------------------------------------------------------

    def basis(self, q: int) -> list[Monomial]:
        degs = tuple(g.degree for g in self.generators)
        out = []
        for expo in _degree_basis(degs, q):
            out.append(Monomial(tuple((i, e) for i, e in enumerate(expo) if e)))
        return out

    def betti_numbers(self, max_degree: int) -> list[int]:
        """b_0 .. b_max_degree by exact rank computation per degree.

        b_q = dim ker(d_q) - rank(d_{q-1})
            = (#basis_q - rank d_q) - rank d_{q-1}.

        d_q is filled as integer rows: _differential_shape, plus each d(x_i)
        times L, the lcm of every image coefficient's denominator.  d_q is
        linear in the images, so that scales each d_q by L and no rank changes.
        """
        if int_tuple((max_degree,), "max_degree")[0] < 0:
            raise PreconditionError("max_degree must be >= 0")
        scale = 1
        for img in self._diff:
            for c in img.terms.values():
                scale = math.lcm(scale, c.denominator)
        images = []
        for i, img in enumerate(self._diff):
            terms = []
            for mono, c in img.terms.items():
                odd = [gi for gi, _ in mono.powers if self._odd[gi]]
                sign_mask = 0  # Koszul sign: odd generators strictly between gi and i
                for gi in odd:
                    sign_mask ^= (1 << max(gi, i)) - (1 << (min(gi, i) + 1))
                c = c.numerator * (scale // c.denominator)
                terms.append((mono.powers, c, sum(1 << gi for gi in odd), sign_mask))
            images.append(terms)
        degrees = tuple(g.degree for g in self.generators)
        betti, ranks = [], [0]
        for q in range(max_degree + 1):
            shape, index = _differential_shape(degrees, q)
            packed = [[(_pack(p, q + 2), *rest) for p, *rest in terms] for terms in images]
            rows = []
            for entries in shape:
                row = [0] * len(index)
                for i, f, base, mask in entries:
                    for t, c, odd_mask, sign_mask in packed[i]:
                        if odd_mask:
                            if mask & odd_mask:
                                continue  # odd square
                            if (mask & sign_mask).bit_count() & 1:
                                c = -c
                        row[index[base + t]] += f * c
                rows.append(row)
            ranks.append(rank_int_rows(rows))
            betti.append(len(shape) - ranks[-1] - ranks[-2])
        return betti


# -- serialization ---------------------------------------------------------------
#
# Line format read by parse_model (rationals as num or num/den strings):
#
#     model minimal
#     gen u1 2
#     gen x1 3
#     d u1 = 0
#     d x1 = 1 u1^2 + -1/2 u1*u2


def parse_polynomial(text: str, name_to_index: Mapping[str, int], where: str = "poly") -> Polynomial:
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    terms: dict[Monomial, Fraction] = {}
    for chunk in text.split(" + "):
        bits = chunk.strip().split()
        if len(bits) != 2:
            raise InputFormatError(f"{where}: term {chunk!r} is not '<coeff> <monomial>'")
        coeff = parse_rational(bits[0], where)
        if bits[1] == "1":
            mono = UNIT
        else:
            powers = []
            for factor in bits[1].split("*"):
                if "^" in factor:
                    base, _, exp = factor.partition("^")
                    try:
                        e = int(exp) if _EXPONENT_RE.match(exp) else None
                    except ValueError:  # more digits than int() converts
                        e = None
                    if e is None:
                        raise InputFormatError(f"{where}: bad exponent in {factor!r}")
                else:
                    base, e = factor, 1
                if base not in name_to_index:
                    raise InputFormatError(f"{where}: unknown generator {base!r}")
                powers.append((name_to_index[base], e))
            powers.sort()
            try:
                mono = Monomial(tuple(powers))
            except PreconditionError as exc:  # a zero exponent or a repeated generator
                raise InputFormatError(f"{where}: {exc}")
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(terms)


def parse_model(text: str) -> FreeCDGA:
    kind = "minimal"
    gens: list[Generator] = []
    name_to_index: dict[str, int] = {}
    diff_lines: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("model "):
            kind = line.split(None, 1)[1].strip()
        elif line.startswith("gen "):
            bits = line.split()
            if len(bits) != 3:
                raise InputFormatError(f"line {lineno}: expected 'gen <name> <degree>'")
            try:
                degree = int(bits[2])
            except ValueError:
                raise InputFormatError(f"line {lineno}: bad degree {bits[2]!r}")
            if bits[1] in name_to_index:
                raise InputFormatError(f"line {lineno}: duplicate generator {bits[1]!r}")
            name_to_index[bits[1]] = len(gens)
            try:
                gens.append(Generator(bits[1], degree))
            except PreconditionError as exc:
                raise InputFormatError(f"line {lineno}: {exc}")
        elif line.startswith("d "):
            head, sep, rhs = line[2:].partition("=")
            if not sep:
                raise InputFormatError(f"line {lineno}: expected 'd <name> = <poly>'")
            diff_lines.append((head.strip(), rhs.strip(), lineno))
        else:
            raise InputFormatError(f"line {lineno}: unrecognized directive {line!r}")
    if not gens:
        raise InputFormatError("model file declares no generators")
    differential: dict[int, Polynomial] = {}
    for name, rhs, lineno in diff_lines:
        if name not in name_to_index:
            raise InputFormatError(f"line {lineno}: d of unknown generator {name!r}")
        differential[name_to_index[name]] = parse_polynomial(
            rhs, name_to_index, where=f"line {lineno}"
        )
    try:
        return FreeCDGA(gens, differential, kind=kind)
    except PreconditionError as exc:
        raise InputFormatError(str(exc))
