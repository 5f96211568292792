import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torquot import (
    BinaryQuadraticForm,
    FreenessViolation,
    HomotopyProfile,
    PreconditionError,
    SphereFactorization,
    TorusActionS3,
    build_d_alpha_model,
    classify_s1_quotient,
    classify_t2_quotient,
    enumerate_profiles,
    epsilon_invariant,
    is_effective,
    is_free,
    lemma64_substitution,
    max_almost_free_rank,
    max_effective_rank,
    normalize,
    profile_to_models,
    slice_invariants,
    square_class_isomorphic,
)
from torquot.classify import (
    CP2_CONNSUM_PRODUCT,
    S2XS2_PRODUCT,
    T1_S2XS2_PRODUCT,
    _echelon_pencil,
    _pencil,
    _quotient_square_form,
    canonical_quotient_model,
    quotient_model,
)
from torquot.actions import _forms
from torquot.exact import rank_int_rows

from conftest import permuted, random_action, random_unimodular, reparametrized


# -- rank bounds -------------------------------------------------------------------


def test_rank_bounds_spot_values():
    assert (max_effective_rank(6), max_almost_free_rank(6)) == (4, (2, True))
    assert (max_effective_rank(7), max_almost_free_rank(7)) == (4, (2, False))
    assert (max_effective_rank(3), max_almost_free_rank(3)) == (2, (1, True))


def test_slice_invariants_spot_values():
    assert slice_invariants(9) == (6, 3, 3)
    assert slice_invariants(10) == (6, 4, 2)
    assert slice_invariants(8) == (5, 3, 2)


# -- profile enumeration --------------------------------------------------------------


def test_profiles_dim9_rank3():
    got = enumerate_profiles(9, 3, "almost_free")
    assert got == [HomotopyProfile.from_dict(9, {3: 3})]


def test_profiles_dim8_rank2():
    got = set(enumerate_profiles(8, 2, "almost_free"))
    assert got == {
        HomotopyProfile.from_dict(8, {3: 1, 5: 1}),
        HomotopyProfile.from_dict(8, {2: 1, 3: 3}),
    }


def test_profiles_dim7_rank2_empty():
    assert enumerate_profiles(7, 2, "almost_free") == []


def test_profiles_dim10_effective_max_table():
    got = set(enumerate_profiles(10, 6, "effective_max"))
    expected = {
        HomotopyProfile.from_dict(10, {3: 2, 4: 1, 7: 1}),
        HomotopyProfile.from_dict(10, {3: 1, 7: 1}),
        HomotopyProfile.from_dict(10, {5: 2}),
        HomotopyProfile.from_dict(10, {2: 1, 3: 2, 5: 1}),
        HomotopyProfile.from_dict(10, {2: 2, 3: 4}),
    }
    assert got == expected
    # the arithmetically admissible pattern (d4, d5) = (1, 2) is excluded by
    # sphere realizability: d4 = 1 forces an S^4, hence d7 >= 1
    excluded = HomotopyProfile.from_dict(10, {3: 1, 4: 1, 5: 2})
    assert excluded not in got
    assert profile_to_models(excluded) == []


def test_profiles_mode_validation():
    with pytest.raises(PreconditionError):
        enumerate_profiles(10, 5, "effective_max")  # k != floor(2n/3)
    with pytest.raises(PreconditionError):
        enumerate_profiles(10, 3, "bogus")
    with pytest.raises(PreconditionError):
        enumerate_profiles(2, 1, "almost_free")


def test_profiles_rank_above_bound_empty():
    assert enumerate_profiles(9, 4, "almost_free") == []


def test_profiles_satisfy_elliptic_constraints():
    from torquot import check_elliptic_constraints

    cases = [(n, n // 3, "almost_free") for n in range(3, 18)] + [
        (n, max_effective_rank(n), "effective_max") for n in range(4, 17, 3)
    ]
    for n, k, mode in cases:
        if k < 1:
            continue
        k_eff = k if mode == "almost_free" else 2 * k - n
        for p in enumerate_profiles(n, k, mode):
            assert check_elliptic_constraints(p, k_eff).all_ok, (n, k, mode, p)


# -- profile factorization ---------------------------------------------------------------


def test_models_two_s3():
    p = HomotopyProfile.from_dict(6, {3: 2})
    assert profile_to_models(p) == [SphereFactorization((3, 3), 0)]


def test_models_circle_quotient():
    p = HomotopyProfile.from_dict(5, {2: 1, 3: 2})
    assert profile_to_models(p) == [SphereFactorization((3, 3), 1)]


def test_models_s4():
    # d4 = d7 = 1 satisfies the dimension identity only at n = 4: the
    # profile of S^4 itself, realized by the single-factor product
    p = HomotopyProfile.from_dict(4, {4: 1, 7: 1})
    assert profile_to_models(p) == [SphereFactorization((4,), 0)]


def test_models_rejects_bad_profile():
    with pytest.raises(PreconditionError):
        profile_to_models(HomotopyProfile.from_dict(7, {4: 1, 7: 1}))


# -- T^2 quotient classification ----------------------------------------------------------


def test_classify_t1_example(t1_action):
    res = classify_t2_quotient(t1_action)
    assert res.kind == T1_S2XS2_PRODUCT
    assert res.rank_d3 == 3
    assert res.trailing_s3 == 0
    assert res.epsilon is None


def test_classify_hopf_hopf_trivial(hopf_action):
    res = classify_t2_quotient(hopf_action)
    assert res.kind == S2XS2_PRODUCT
    assert res.rank_d3 == 2
    assert res.trailing_s3 == 1
    # the pencil is {s1^2, s2^2}; the square map is 2*alpha*beta up to
    # scale, an isotropic form with square discriminant
    assert {f.coefficients() for f in res.pencil} == {(1, 0, 0), (0, 0, 1)}
    q = _quotient_square_form(res.pencil)
    assert q.isotropy() == "isotropic"


def test_classify_connected_sum(cp2_action):
    res = classify_t2_quotient(cp2_action)
    assert res.kind == CP2_CONNSUM_PRODUCT
    assert res.rank_d3 == 2
    assert res.trailing_s3 == 1
    assert res.epsilon == -1
    q = _quotient_square_form(res.pencil)
    assert q.isotropy() == "anisotropic"
    disc = q.discriminant
    from torquot import is_rational_square

    assert not is_rational_square(disc) and is_rational_square(-disc)


def test_classify_preconditions():
    with pytest.raises(PreconditionError):
        classify_t2_quotient(TorusActionS3(((1, 0, 0, 1),)))
    with pytest.raises(PreconditionError):  # not free
        classify_t2_quotient(TorusActionS3(((1, 1, 0, 0), (1, 1, 0, 0))))
    with pytest.raises(PreconditionError):  # not effective
        classify_t2_quotient(TorusActionS3(((2, 2, 0, 0), (0, 0, 1, 1))))


def test_classify_n2_works():
    # the machinery applies verbatim to two factors (4-dimensional quotients)
    res = classify_t2_quotient(TorusActionS3(((1, 1, 0, 0), (0, 0, 1, 1))))
    assert res.kind == S2XS2_PRODUCT and res.trailing_s3 == 0


# -- the relation pencil ------------------------------------------------------------------


def _reference_echelon(forms):
    """Reduced row echelon basis of the span of the forms, by Fraction Gauss-Jordan."""
    rows = [[Fraction(c) for c in f.coefficients()] for f in forms if not f.is_zero()]
    r = 0
    for col in range(3):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        r += 1
    return [[str(v) for v in row] for row in rows[:r]]


@st.composite
def form_lists(draw):
    """1 to 6 forms, each a small integer combination of a random basis of 0 to 3 forms."""
    small = st.integers(-4, 4)
    basis = draw(st.lists(st.tuples(small, small, small), min_size=0, max_size=3))
    row = st.lists(small, min_size=len(basis), max_size=len(basis))
    coeffs = draw(st.lists(row, min_size=1, max_size=6))
    return [
        BinaryQuadraticForm(*(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(3)))
        for cs in coeffs
    ]


@given(form_lists())
def test_pencil_matches_reference_elimination(forms):
    rank, u, phi = _pencil(forms)
    assert rank == rank_int_rows([f.coefficients() for f in forms])
    assert u == next((f for f in forms if not f.is_zero()), None)
    assert (phi is None) == (rank < 2)
    if rank >= 2:
        echelon = [[str(c) for c in f.coefficients()] for f in _echelon_pencil(rank, phi)]
        assert echelon == _reference_echelon(forms)


@st.composite
def relation_rows(draw):
    """2 to 7 weight rows in [-B, B], B in 1..4, among them rows with a zero pair
    (a zero form), rows whose form is a multiple of an earlier row's (one pair
    scaled, or the pairs swapped) and repeated rows."""
    bound = draw(st.integers(1, 4))
    entry = st.integers(-bound, bound)
    rows = []
    for _ in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(("any", "zero", "scaled", "swapped", "repeated")))
        if kind == "any" or not rows:
            row = tuple(draw(entry) for _ in range(4))
        elif kind == "zero":
            row = (0, draw(entry), 0, draw(entry))
        else:
            a, b, k, l = draw(st.sampled_from(rows))
            m = draw(st.integers(-3, 3))
            row = {"scaled": (m * a, b, m * k, l), "swapped": (b, a, l, k)}.get(kind, (a, b, k, l))
        rows.append(row)
    return tuple(rows)


@given(relation_rows())
@settings(max_examples=300)
def test_pencil_fold_is_exact(rows):
    # the odometer folds a tuple's last form into its prefix's state; any split
    # of the forms, and one form at a time, gives the pencil of the whole tuple
    forms = _forms(rows)
    whole = _pencil(forms)
    assert whole[0] == rank_int_rows(forms)
    for k in range(len(forms) + 1):
        assert _pencil(forms[k:], *_pencil(forms[:k])) == whole
    state = _pencil(())
    for form in forms:
        state = _pencil((form,), *state)
    assert state == whole


# -- epsilon --------------------------------------------------------------------------------


def test_epsilon_example(cp2_action):
    # both 2x2 minors are -1 and k2*l2 = -1, so epsilon = -1
    norm = normalize(cp2_action)
    assert epsilon_invariant(norm) == -1


def test_epsilon_plus_one_instance():
    # frozen from the grid scan: an S^2 x S^2 type action whose normalized
    # form has l1 != 0, giving epsilon = +1
    act = TorusActionS3(((-1, -1, -1, 0), (-1, -1, -1, 0), (0, 0, -1, -1)))
    res = classify_t2_quotient(act)
    assert res.kind == S2XS2_PRODUCT
    assert res.epsilon == 1
    assert epsilon_invariant(normalize(act)) == 1


def test_epsilon_rejects_rank3(t1_action):
    with pytest.raises(PreconditionError):
        epsilon_invariant(normalize(t1_action))


def test_epsilon_matches_kind_on_samples():
    rng = random.Random(314)
    seen = {1: 0, -1: 0}
    while min(seen.values()) < 10:
        act = random_action(rng, 3, 1)
        if not (is_effective(act) and is_free(act)):
            continue
        res = classify_t2_quotient(act)
        if res.epsilon is None:
            continue
        seen[res.epsilon] += 1
        expected = S2XS2_PRODUCT if res.epsilon == 1 else CP2_CONNSUM_PRODUCT
        assert res.kind == expected


# -- the substitution lemma ----------------------------------------------------------------


def _all_int(w) -> bool:
    return all(type(v) is int for row in w.s_map + w.x_map for v in row)


def test_lemma64_diagonal_case():
    w = lemma64_substitution(
        BinaryQuadraticForm(1, 0, 0), BinaryQuadraticForm(0, 0, 1)
    )
    assert w.s_map == ((1, 0), (0, 1))
    assert w.x_map == ((1, 0), (0, 1))
    # beta = 0: s~i and x~i are alpha, gamma times s_i and x_i
    w = lemma64_substitution(
        BinaryQuadraticForm(-1, 0, 0), BinaryQuadraticForm(0, 0, 2)
    )
    assert w.s_map == ((-1, 0), (0, 2))
    assert w.x_map == ((-1, 0), (0, 2))
    assert _all_int(w)


def test_lemma64_generic_case():
    # (2 s1^2, 3 s1 s2 + s2^2): verified by re-expansion inside the call
    w = lemma64_substitution(
        BinaryQuadraticForm(2, 0, 0), BinaryQuadraticForm(0, 3, 1)
    )
    assert w.s_map == ((6, 0), (6, 4))
    assert w.x_map == ((18, 0), (18, 16))
    assert _all_int(w)


def test_lemma64_integer_witness_sweep():
    # every call re-expands its witness and raises on a mismatch
    for alpha in range(-6, 7):
        for gamma in range(-6, 7):
            if alpha == 0 or gamma == 0:
                continue
            for beta in range(-9, 10):
                w = lemma64_substitution(
                    BinaryQuadraticForm(alpha, 0, 0), BinaryQuadraticForm(0, beta, gamma)
                )
                assert _all_int(w)


def test_lemma64_special_case():
    w = lemma64_substitution(
        BinaryQuadraticForm(0, 1, 0), BinaryQuadraticForm(1, 0, 1)
    )
    assert w.s_map == ((1, -1), (1, 1))
    assert w.x_map == ((-2, 1), (2, 1))
    assert _all_int(w)


def test_lemma64_rejects_other_pencils():
    with pytest.raises(PreconditionError):
        lemma64_substitution(
            BinaryQuadraticForm(0, 1, 0), BinaryQuadraticForm(1, 0, -1)
        )
    with pytest.raises(PreconditionError):
        lemma64_substitution(
            BinaryQuadraticForm(1, 1, 0), BinaryQuadraticForm(0, 1, 1)
        )


# -- circle quotients --------------------------------------------------------------------


def test_classify_s1_examples():
    assert classify_s1_quotient((0, 0), 1) == "CP2_PRODUCT"
    assert classify_s1_quotient((1, 0), 7) == "S2xS5_PRODUCT"
    with pytest.raises(FreenessViolation):
        classify_s1_quotient((0,), 0)


def _circle_quotient_model(lambdas, alpha):
    """Model Q[u] (x) Lambda(x_1..x_m, y) with d(x_i) = lambda_i u^2,
    d(y) = alpha u^3: the quotient of S^5 x prod S^3 by the circle with
    those Euler coefficients."""
    from torquot import FreeCDGA, Generator, Monomial, Polynomial

    m = len(lambdas)
    gens = [Generator("u", 2)]
    gens += [Generator(f"x{i+1}", 3) for i in range(m)]
    gens += [Generator("y", 5)]
    uu = Monomial(((0, 2),))
    uuu = Monomial(((0, 3),))
    diff = {1 + i: Polynomial({uu: Fraction(lam)}) for i, lam in enumerate(lambdas)}
    diff[1 + m] = Polynomial({uuu: Fraction(alpha)})
    return FreeCDGA(gens, diff)


def _sphere_product_poincare(dims, max_degree):
    from torquot import poincare_polynomial_spheres

    full = poincare_polynomial_spheres(dims)
    full += [0] * (max_degree + 1)
    return full[: max_degree + 1]


def test_classify_s1_agrees_with_cohomology_oracle():
    # the dichotomy's claimed product is verified degree by degree against
    # the quotient model's actual cohomology
    cases = [
        ((2, 0), 3),   # some lambda nonzero
        ((1, 1), 0),
        ((0, 0, 5), -2),
        ((0, 0), 4),   # all lambda zero, alpha nonzero
        ((0,), 1),
    ]
    for lambdas, alpha in cases:
        m = len(lambdas)
        n = 5 + 3 * m - 1  # quotient dimension
        got = _circle_quotient_model(lambdas, alpha).betti_numbers(n)
        kind = classify_s1_quotient(lambdas, alpha)
        if kind == "S2xS5_PRODUCT":
            want = _sphere_product_poincare([2, 5] + [3] * (m - 1), n)
        else:
            # CP^2 x prod S^3: (1 + t^2 + t^4) * (1 + t^3)^m truncated
            cp2 = [0] * (n + 1)
            base = _sphere_product_poincare([3] * m, n) if m else [1] + [0] * n
            for shift in (0, 2, 4):
                for i, c in enumerate(base):
                    if i + shift <= n:
                        cp2[i + shift] += c
            want = cp2
        assert got == want, (lambdas, alpha, got, want)
        assert got == got[::-1]  # Poincare duality in the quotient dimension


# -- square classes ----------------------------------------------------------------------


def test_square_class_examples():
    assert square_class_isomorphic(1, 4)
    assert not square_class_isomorphic(1, 2)
    assert square_class_isomorphic(3, 27)
    with pytest.raises(PreconditionError):
        square_class_isomorphic(0, 2)


def test_square_class_equivalence_relation():
    values = [1, 2, 3, 4, 6, 8, 9, 12, Fraction(1, 2), Fraction(9, 4), -1, -2]
    for a in values:
        assert square_class_isomorphic(a, a)
        for b in values:
            assert square_class_isomorphic(a, b) == square_class_isomorphic(b, a)
            for c in values:
                if square_class_isomorphic(a, b) and square_class_isomorphic(b, c):
                    assert square_class_isomorphic(a, c)


# -- the d_alpha family --------------------------------------------------------------------


def test_d_alpha_betti_frozen():
    # dimension 4 member: Betti numbers (1,0,2,0,1), zero above the formal
    # dimension; identical for every alpha (frozen from the cohomology oracle)
    assert build_d_alpha_model(-1, 0).betti_numbers(7) == [1, 0, 2, 0, 1, 0, 0, 0]
    assert build_d_alpha_model(1, 0).betti_numbers(7) == [1, 0, 2, 0, 1, 0, 0, 0]


def test_d_alpha_rejects_zero():
    with pytest.raises(PreconditionError):
        build_d_alpha_model(0, 1)
    with pytest.raises(PreconditionError):
        build_d_alpha_model(1, -1)


def test_d_alpha_dimension_scaling():
    model = build_d_alpha_model(Fraction(2, 3), 2)
    assert len(model.generators) == 6  # u1, u2, x1..x4
    betti = model.betti_numbers(10)
    assert betti[0] == 1 and betti[10] == 1  # n = 3m + 4 = 10, duality top


# -- invariance and totality -----------------------------------------------------------------


def test_classification_invariant_under_symmetry():
    rng = random.Random(2718)
    checked = 0
    while checked < 40:
        act = random_action(rng, 3, 1)
        if not (is_effective(act) and is_free(act)):
            continue
        checked += 1
        kind = classify_t2_quotient(act).kind
        perm = list(range(3))
        rng.shuffle(perm)
        assert classify_t2_quotient(permuted(act, perm)).kind == kind
        reparam = reparametrized(act, random_unimodular(rng))
        # a torus automorphism preserves effectiveness and freeness
        assert is_effective(reparam) and is_free(reparam)
        assert classify_t2_quotient(reparam).kind == kind


def test_quotient_model_matches_canonical_betti(t1_action, hopf_action, cp2_action):
    for act in (t1_action, hopf_action, cp2_action):
        res = classify_t2_quotient(act)
        n = 3 * act.n_factors - 2
        got = quotient_model(act).betti_numbers(n)
        want = canonical_quotient_model(res.kind, act.n_factors).betti_numbers(n)
        assert got == want
        assert got == got[::-1]  # Poincare duality


def test_canonical_model_requires_enough_factors():
    with pytest.raises(PreconditionError):
        canonical_quotient_model(T1_S2XS2_PRODUCT, 2)


def test_cp2_model_truncates_at_formal_dimension():
    # CP^2 as du = 0, dy = u^3: Betti (1,0,1,0,1) and nothing above degree 4
    from torquot import FreeCDGA, Generator, Monomial, Polynomial

    model = FreeCDGA(
        [Generator("u", 2), Generator("y", 5)],
        {1: Polynomial({Monomial(((0, 3),)): Fraction(1)})},
    )
    assert model.betti_numbers(8) == [1, 0, 1, 0, 1, 0, 0, 0, 0]


def test_quotient_oracle_agreement_larger_actions():
    # oracle agreement at four and five factors (quotient dimensions 10, 13)
    rng = random.Random(1001)
    for n_factors in (4, 5):
        checked = 0
        while checked < 5:
            act = random_action(rng, n_factors, 1)
            if not (is_effective(act) and is_free(act)):
                continue
            checked += 1
            res = classify_t2_quotient(act)
            assert res.trailing_s3 == n_factors - (3 if res.rank_d3 == 3 else 2)
            n = 3 * n_factors - 2
            got = quotient_model(act).betti_numbers(n)
            want = canonical_quotient_model(res.kind, n_factors).betti_numbers(n)
            assert got == want
            assert got == got[::-1]
