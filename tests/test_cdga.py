import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torquot import (
    FreeCDGA,
    Generator,
    HomotopyProfile,
    InputFormatError,
    Monomial,
    Polynomial,
    PreconditionError,
    TorusActionS3,
    check_elliptic_constraints,
    chi_pi,
)
from torquot.cdga import parse_model, parse_polynomial
from torquot.classify import canonical_quotient_model, quotient_model
from torquot.cli import cli_main
from torquot.exact import rank_int_rows

from conftest import (
    CP2_ROWS,
    HOPF_ROWS,
    T1_ROWS,
    build_d_alpha_model,
    format_model,
    format_polynomial,
    poincare_polynomial_spheres,
)
from test_classify import _circle_quotient_model


def gen(algebra, name):
    """The generator called name, as a polynomial."""
    names = [g.name for g in algebra.generators]
    return Polynomial.monomial(Monomial(((names.index(name), 1),)))


def scaled(poly, c):
    return Polynomial({m: v * c for m, v in poly.terms.items()})


def two_sphere_model():
    # minimal model of S^2: du = 0, dx = u^2
    return FreeCDGA(
        [Generator("u", 2), Generator("x", 3)],
        {1: Polynomial({Monomial(((0, 2),)): Fraction(1)})},
    )


def t1_model():
    # minimal model of T^1(S^2 x S^2): dx1 = u1^2, dx2 = u2^2, dx3 = u1 u2
    gens = [
        Generator("u1", 2),
        Generator("u2", 2),
        Generator("x1", 3),
        Generator("x2", 3),
        Generator("x3", 3),
    ]
    u1u1 = Monomial(((0, 2),))
    u2u2 = Monomial(((1, 2),))
    u1u2 = Monomial(((0, 1), (1, 1)))
    return FreeCDGA(
        gens,
        {
            2: Polynomial({u1u1: Fraction(1)}),
            3: Polynomial({u2u2: Fraction(1)}),
            4: Polynomial({u1u2: Fraction(1)}),
        },
    )


def test_sum_drops_cancelled_terms():
    u, x = Monomial(((0, 1),)), Monomial(((1, 1),))
    p = Polynomial({u: 1, x: Fraction(1, 2)})
    assert (p + Polynomial({u: -1})).terms == {x: Fraction(1, 2)}
    assert (p + Polynomial({u: -1, x: Fraction(-1, 2)})).is_zero()


# -- multiplication -----------------------------------------------------------


def test_multiply_odd_anticommute():
    a = FreeCDGA([Generator("x1", 3), Generator("x2", 3)])
    x1, x2 = gen(a, "x1"), gen(a, "x2")
    x1x2 = a.multiply(x1, x2)
    assert x1x2.terms == {Monomial(((0, 1), (1, 1))): Fraction(1)}
    assert a.multiply(x2, x1) == scaled(x1x2, -1)


def test_multiply_odd_square_zero():
    a = FreeCDGA([Generator("x1", 3)])
    assert a.multiply(gen(a, "x1"), gen(a, "x1")).is_zero()


def test_multiply_even_binomial():
    a = FreeCDGA([Generator("s1", 2), Generator("s2", 2)])
    s = gen(a, "s1") + gen(a, "s2")
    sq = a.multiply(s, s)
    assert sq.terms == {
        Monomial(((0, 2),)): Fraction(1),
        Monomial(((0, 1), (1, 1))): Fraction(2),
        Monomial(((1, 2),)): Fraction(1),
    }


@st.composite
def homogeneous_polys(draw):
    # polynomials in a fixed algebra with two even and three odd generators
    gens = (2, 2, 3, 3, 3)
    degree = draw(st.sampled_from([2, 3, 4, 5, 6, 7]))
    algebra = FreeCDGA([Generator(f"g{i}", d) for i, d in enumerate(gens)])
    basis = algebra.basis(degree)
    if not basis:
        return algebra, Polynomial.zero()
    coeffs = draw(
        st.lists(
            st.integers(-3, 3), min_size=len(basis), max_size=len(basis)
        )
    )
    return algebra, Polynomial(
        {m: Fraction(c) for m, c in zip(basis, coeffs) if c}
    )


@given(homogeneous_polys(), homogeneous_polys(), homogeneous_polys())
@settings(max_examples=60, deadline=None)
def test_multiply_associative_and_graded_commutative(t1, t2, t3):
    a, p = t1
    _, q = t2
    _, r = t3
    assert a.multiply(a.multiply(p, q), r) == a.multiply(p, a.multiply(q, r))
    dp = p.homogeneous_degree(a.generators)
    dq = q.homogeneous_degree(a.generators)
    if dp is not None and dq is not None:
        sign = -1 if (dp % 2) and (dq % 2) else 1
        assert a.multiply(p, q) == scaled(a.multiply(q, p), sign)


# -- the derivation ------------------------------------------------------------


def test_leibniz_on_s2_model():
    a = two_sphere_model()
    xu = a.multiply(gen(a, "x"), gen(a, "u"))
    assert a.apply_differential(xu).terms == {Monomial(((0, 3),)): Fraction(1)}


def test_leibniz_sign_on_t1_model():
    a = t1_model()
    x1x2 = a.multiply(gen(a, "x1"), gen(a, "x2"))
    image = a.apply_differential(x1x2)
    # d(x1 x2) = u1^2 x2 - x1 u2^2
    u1u1x2 = Monomial(((0, 2), (3, 1)))
    x1u2u2 = Monomial(((1, 2), (2, 1)))
    assert image.terms == {u1u1x2: Fraction(1), x1u2u2: Fraction(-1)}


def test_closed_generators():
    a = t1_model()
    for name in ("u1", "u2"):
        assert a.apply_differential(gen(a, name)).is_zero()


def test_d_squared_enforced():
    # du = 0, dx = u^2, dy = x u^2 has d(dy) = u^4 != 0
    gens = [Generator("u", 2), Generator("x", 3), Generator("y", 6)]
    bad = Polynomial({Monomial(((0, 2), (1, 1))): Fraction(1)})
    with pytest.raises(PreconditionError, match="d o d"):
        FreeCDGA(gens, {1: Polynomial({Monomial(((0, 2),)): Fraction(1)}), 2: bad})


def test_degree_and_minimality_enforced():
    gens = [Generator("u", 2), Generator("x", 3)]
    wrong_degree = Polynomial({Monomial(((0, 1),)): Fraction(1)})
    with pytest.raises(PreconditionError, match="degree"):
        FreeCDGA(gens, {1: wrong_degree})
    gens4 = [Generator("u", 2), Generator("w", 4), Generator("x", 3)]
    linear = Polynomial({Monomial(((1, 1),)): Fraction(1)})
    with pytest.raises(PreconditionError, match="decomposable"):
        FreeCDGA(gens4, {2: linear})
    FreeCDGA(gens4, {2: linear}, kind="relative")  # allowed when relative


_U, _X, _Y = Generator("u", 2), Generator("x", 3), Generator("y", 7)


@pytest.mark.parametrize("make, error, message", [
    (lambda: FreeCDGA([_U, Generator("u", 3)]), PreconditionError, "duplicate generator names"),
    (lambda: FreeCDGA([_U, _X], {1: Polynomial({Monomial(((2, 2),)): 1})}),
     PreconditionError, "unknown generator"),
    # d(y) = u*x^2 has the right degree 8, but x is odd
    (lambda: FreeCDGA([_U, _X, _Y], {2: Polynomial({Monomial(((0, 1), (1, 2))): 1})}),
     PreconditionError, "odd generator raised"),
    (lambda: parse_polynomial("u^2", {"u": 0}), InputFormatError, "is not '<coeff> <monomial>'"),
    (lambda: Generator("x", 3.0), PreconditionError, "expected integer"),
    (lambda: HomotopyProfile.from_dict(10, {3.0: 2}), PreconditionError, "expected integer"),
    (lambda: HomotopyProfile.from_dict(10, {3: 2.5}), PreconditionError, "expected integer"),
    (lambda: HomotopyProfile(10.5, ((3, 2),)), PreconditionError, "expected integer"),
    (lambda: FreeCDGA([_U, _X]).betti_numbers(True), PreconditionError, "expected integer"),
    (lambda: FreeCDGA([_U, _X]).betti_numbers(3.5), PreconditionError, "expected integer"),
    (lambda: Monomial(((0, 2.0),)), PreconditionError, "expected integer"),
    (lambda: Monomial(((True, 1),)), PreconditionError, "expected integer"),
    # a fractional rank would pass every comparison: .all_ok was True
    (lambda: check_elliptic_constraints(HomotopyProfile(6, ((3, 2),)), 0.5),
     PreconditionError, "expected integer"),
], ids=["duplicate names", "unknown generator index", "odd generator squared",
        "term without coefficient", "float degree", "float profile degree",
        "float profile count", "float profile dimension", "bool max degree",
        "float max degree", "float exponent", "bool generator index", "float rank"])
def test_cdga_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_generator_degree_validation():
    with pytest.raises(PreconditionError):
        Generator("t", 1)


def test_homogeneous_degree_accessor():
    a = FreeCDGA([Generator("u", 2), Generator("x", 3)])
    mixed = gen(a, "u") + gen(a, "x")
    with pytest.raises(PreconditionError):
        mixed.homogeneous_degree(a.generators)
    assert gen(a, "x").homogeneous_degree(a.generators) == 3
    assert Polynomial.zero().homogeneous_degree(a.generators) is None


# -- cohomology ------------------------------------------------------------------


def test_betti_product_of_three_s3():
    a = FreeCDGA([Generator(f"x{i}", 3) for i in range(3)])
    assert a.betti_numbers(9) == [1, 0, 0, 3, 0, 0, 3, 0, 0, 1]


def test_betti_t1_model():
    b = t1_model().betti_numbers(7)
    assert b == [1, 0, 2, 0, 0, 2, 0, 1]
    # cross-checks: the rank-3 relation space kills all of degree 4,
    # and the vector is Poincare dual in formal dimension 7
    assert b[4] == 0
    assert b == b[::-1]


def test_betti_s2s2_times_s3_matches_kuenneth():
    gens = [
        Generator("u1", 2),
        Generator("u2", 2),
        Generator("x1", 3),
        Generator("x2", 3),
        Generator("x3", 3),
    ]
    a = FreeCDGA(
        gens,
        {
            2: Polynomial({Monomial(((0, 2),)): Fraction(1)}),
            3: Polynomial({Monomial(((1, 2),)): Fraction(1)}),
        },
    )
    got = a.betti_numbers(7)
    assert got == [1, 0, 2, 1, 1, 2, 0, 1]
    # independent oracle: coefficients of (1 + t^2)^2 (1 + t^3)
    poly = [0] * 8
    for i, c in enumerate([1, 0, 2, 0, 1]):
        for j, d in enumerate([1, 0, 0, 1]):
            if i + j <= 7:
                poly[i + j] += c * d
    assert got == poly


def test_betti_rejects_negative_degree():
    with pytest.raises(PreconditionError):
        t1_model().betti_numbers(-1)


def _series_product_free_algebra(degrees, max_degree):
    """Hilbert series of the free graded algebra, truncated: product of
    1/(1 - t^even) and (1 + t^odd) factors."""
    coeffs = [1] + [0] * max_degree
    for d in degrees:
        if d % 2:
            out = list(coeffs)
            for i in range(max_degree - d + 1):
                out[i + d] += coeffs[i]
            coeffs = out
        else:
            for i in range(d, max_degree + 1):
                coeffs[i] += coeffs[i - d]
    return coeffs


def test_betti_zero_differential_equals_hilbert_series():
    rng = random.Random(7)
    for _ in range(10):
        degrees = [rng.choice([2, 3, 4, 5]) for _ in range(rng.randint(1, 4))]
        a = FreeCDGA([Generator(f"g{i}", d) for i, d in enumerate(degrees)])
        top = 8
        assert a.betti_numbers(top) == _series_product_free_algebra(degrees, top)
    # pure odd case agrees with the sphere-product polynomial
    dims = [3, 5, 3]
    a = FreeCDGA([Generator(f"x{i}", d) for i, d in enumerate(dims)])
    full = poincare_polynomial_spheres(dims)
    assert a.betti_numbers(len(full) - 1) == full


def reference_betti(a, max_degree):
    """Betti numbers from d_q matrices built by apply_differential."""
    bases = [a.basis(q) for q in range(max_degree + 2)]
    ranks = []
    for q in range(max_degree + 1):
        index = {m: j for j, m in enumerate(bases[q + 1])}
        rows = []
        for mono in bases[q]:
            row = [Fraction(0)] * len(index)
            image = a.apply_differential(Polynomial.monomial(mono))
            for m, c in image.terms.items():
                row[index[m]] = c
            scale = math.lcm(*(c.denominator for c in row))
            rows.append([int(c * scale) for c in row])
        ranks.append(rank_int_rows(rows))
    return [
        len(bases[q]) - ranks[q] - (ranks[q - 1] if q else 0)
        for q in range(max_degree + 1)
    ]


@st.composite
def two_stage_models(draw):
    """Closed first-stage generators, then generators whose differentials
    are random polynomials in the first stage, in a shuffled order."""
    first = draw(st.lists(st.sampled_from([2, 3, 3, 3, 4, 5]), min_size=2, max_size=4))
    second = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["minimal", "relative"]))
    degrees = first + second
    order = draw(st.permutations(range(len(degrees))))
    gens = [Generator(f"g{i}", degrees[j]) for i, j in enumerate(order)]
    position = {j: i for i, j in enumerate(order)}
    closed = FreeCDGA([Generator(f"f{j}", d) for j, d in enumerate(first)])
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    differential = {}
    for j, d in enumerate(second, start=len(first)):
        image = {}
        for mono in closed.basis(d + 1):
            if kind == "minimal" and mono.word_length < 2:
                continue
            c = draw(coeffs)
            moved = tuple(sorted((position[g], e) for g, e in mono.powers))
            image[Monomial(moved)] = c
        differential[position[j]] = Polynomial(image)
    return FreeCDGA(gens, differential, kind=kind)


@given(two_stage_models(), st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_betti_matches_apply_differential_reference(model, max_degree):
    assert model.betti_numbers(max_degree) == reference_betti(model, max_degree)


def _koszul_models():
    # odd x, y, z on both sides of the generators whose differentials
    # contain them, so that the ranks of d_q depend on the Koszul signs
    def poly(*terms):
        return Polynomial({Monomial(powers): c for powers, c in terms})

    gens = [Generator("x", 3), Generator("u", 2), Generator("y", 3),
            Generator("w", 5), Generator("z", 3)]
    du = poly((((0, 1),), -1), (((2, 1),), 2), (((4, 1),), 1))
    for c in (0, -2, Fraction(3, 4)):
        dw = poly((((0, 1), (2, 1)), c))
        yield FreeCDGA(gens, {1: du, 3: dw}, kind="relative")
    gens = [Generator("z", 7), Generator("x", 3), Generator("u", 2),
            Generator("y", 3), Generator("s", 2)]
    du = poly((((1, 1),), -1), (((3, 1),), 2))
    for c in (1, -2, Fraction(3, 4)):
        dz = poly((((4, 4),), 2), (((1, 1), (3, 1), (4, 1)), c))
        yield FreeCDGA(gens, {0: dz, 2: du}, kind="relative")


@pytest.mark.parametrize("model", list(_koszul_models()))
def test_betti_koszul_signs_against_reference(model):
    assert model.betti_numbers(12) == reference_betti(model, 12)


QUOTIENT_MODELS = [
    *(
        (_circle_quotient_model(lambdas, alpha), 5 + 3 * len(lambdas) - 1)
        for lambdas, alpha in [((2, 0), 3), ((1, 1), 0), ((0, 0, 5), -2), ((0, 0), 4), ((0,), 1)]
    ),
    (build_d_alpha_model(-1, 0), 7),
    (build_d_alpha_model(1, 0), 7),
    (build_d_alpha_model(Fraction(2, 3), 2), 10),
    *((quotient_model(TorusActionS3(rows)), 7) for rows in (T1_ROWS, HOPF_ROWS, CP2_ROWS)),
    *(
        (canonical_quotient_model(kind, 4), 10)
        for kind in ("S2xS2_PRODUCT", "CP2_CONNSUM_PRODUCT", "T1_S2xS2_PRODUCT")
    ),
]


@pytest.mark.parametrize("model, max_degree", QUOTIENT_MODELS)
def test_betti_matches_reference_on_quotient_models(model, max_degree):
    assert model.betti_numbers(max_degree) == reference_betti(model, max_degree)


def test_poincare_polynomial_spheres_examples():
    assert poincare_polynomial_spheres([3, 3]) == [1, 0, 0, 2, 0, 0, 1]
    assert poincare_polynomial_spheres([2, 5]) == [1, 0, 1, 0, 0, 1, 0, 1]
    assert poincare_polynomial_spheres([4, 3]) == [1, 0, 0, 1, 1, 0, 0, 1]
    with pytest.raises(PreconditionError):
        poincare_polynomial_spheres([1])


# -- profiles ----------------------------------------------------------------------


def test_chi_pi_examples():
    assert chi_pi(HomotopyProfile.from_dict(3, {3: 1})) == -1
    assert chi_pi(HomotopyProfile.from_dict(4, {4: 1, 7: 1})) == 0
    assert chi_pi(HomotopyProfile.from_dict(10, {2: 2, 3: 4})) == -2


def test_profile_validation():
    with pytest.raises(PreconditionError):
        HomotopyProfile.from_dict(3, {1: 1})
    with pytest.raises(PreconditionError):
        HomotopyProfile.from_dict(3, {3: -1})
    p = HomotopyProfile.from_dict(6, {3: 2, 5: 0})
    assert p.d == ((3, 2),)  # zero entries dropped


def test_elliptic_constraints_s7():
    report = check_elliptic_constraints(HomotopyProfile.from_dict(7, {7: 1}), 0)
    assert report.all_ok
    assert report.dim_residual == 0  # 7 = 7 exactly


def test_elliptic_constraints_s3_rank2_fails():
    report = check_elliptic_constraints(HomotopyProfile.from_dict(3, {3: 1}), 2)
    assert not report.rank_ok
    assert report.rank_slack == -1
    assert report.even_ok and report.dim_ok


def test_elliptic_constraints_dim8():
    report = check_elliptic_constraints(
        HomotopyProfile.from_dict(8, {3: 1, 5: 1}), 2
    )
    assert report.all_ok
    assert report.rank_slack == 0


# -- serialization -------------------------------------------------------------------


def test_model_round_trip():
    a = t1_model()
    assert parse_model(format_model(a)) == a


def test_model_round_trip_fractions():
    gens = [Generator("u1", 2), Generator("u2", 2), Generator("x", 3)]
    diff = {
        2: Polynomial(
            {
                Monomial(((0, 2),)): Fraction(-3, 2),
                Monomial(((0, 1), (1, 1))): Fraction(7, 5),
            }
        )
    }
    a = FreeCDGA(gens, diff)
    text = format_model(a)
    assert "-3/2" in text and "7/5" in text
    assert parse_model(text) == a


def test_polynomial_format_round_trip():
    names = {"u1": 0, "u2": 1}
    p = parse_polynomial("1/2 u1^2 + -2 u1*u2", names)
    gens = [Generator("u1", 2), Generator("u2", 2)]
    assert parse_polynomial(format_polynomial(p, gens), names) == p


def test_parse_model_diagnostics():
    with pytest.raises(InputFormatError, match="line 2"):
        parse_model("gen u 2\ngen u 3\n")
    with pytest.raises(InputFormatError, match="unknown generator"):
        parse_model("gen u 2\nd u = 1 v^2\n")
    with pytest.raises(InputFormatError):
        parse_model("gen u 2\nbogus line\n")


@pytest.mark.parametrize("coeff", ["1e5", "0.5", "1.5e3", "1/0", "3/-4", "1" * 5000])
def test_parse_model_refuses_rationals_outside_the_grammar(coeff):
    # num or num/den only: an exponent could ask for an unbounded power of ten
    with pytest.raises(InputFormatError, match="bad rational"):
        parse_model(f"gen u 2\ngen x 3\nd x = {coeff} u^2\n")


@pytest.mark.parametrize("exponent", ["\u0662", "+2", "1_0", "1" * 5000])
def test_betti_refuses_exponents_outside_ascii_digits(exponent, tmp_path, capsys):
    # int() alone reads "\u0662" (Arabic-Indic two) and "+2" as 2 and "1_0" as 10
    path = tmp_path / "model.txt"
    path.write_text(f"gen u1 2\ngen x 3\nd x = 1 u1^{exponent}\n", encoding="utf-8")
    assert cli_main(["betti", str(path), "--max-deg", "5"]) == 1
    assert "bad exponent" in capsys.readouterr().err
    path.write_text("gen u1 2\ngen x 3\nd x = 1 u1^2\n")
    assert cli_main(["betti", str(path), "--max-deg", "5"]) == 0


@pytest.mark.parametrize(
    "monomial, message",
    [("u1^0", "exponents must be positive"), ("u1*u1", "indices must be strictly ascending")],
)
def test_betti_reports_the_line_of_a_bad_monomial(monomial, message, tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text(f"gen u1 2\ngen x 3\nd x = 1 {monomial}\n")
    assert cli_main(["betti", str(path), "--max-deg", "4"]) == 1
    err = capsys.readouterr().err
    assert "line 3:" in err and message in err


def test_parse_model_reads_signed_rationals():
    names = {"u": 0}
    p = parse_polynomial("-3/4 u^2 + +2 u + 7 1", names)
    assert sorted(p.terms.values()) == [Fraction(-3, 4), 2, 7]


def test_structural_equality_ignores_names():
    a = FreeCDGA(
        [Generator("u", 2), Generator("x", 3)],
        {1: Polynomial({Monomial(((0, 2),)): Fraction(1)})},
    )
    b = FreeCDGA(
        [Generator("v", 2), Generator("y", 3)],
        {1: Polynomial({Monomial(((0, 2),)): Fraction(1)})},
    )
    assert a == b
