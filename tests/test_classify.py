import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from torquot import (
    BinaryQuadraticForm,
    ClassificationResult,
    FreenessViolation,
    HomotopyProfile,
    PreconditionError,
    SphereFactorization,
    TorusActionS3,
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
    canonical_quotient_model,
    quotient_model,
)
import torquot.actions as actions
import torquot.classify as classify
from torquot.actions import _forms
from torquot.exact import rank_int_rows, unimodular_complement

from conftest import (
    build_d_alpha_model,
    permuted,
    poincare_polynomial_spheres,
    quotient_square_form,
    random_action,
    random_unimodular,
    reparametrized,
)


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


def _profiles_by_brute_force(n):
    """Every profile of formal dimension n meeting the first two constraints of
    enumerate_profiles, as (profile, odd count - even count, shifted even load).

    The even load sum 2j*d_2j is at most n, so even degrees are at most n and
    there are at most n // 2 of them; the odd weight is then at most 2n, so odd
    degrees are at most 2n and there are at most 2n // 3 of them.  The odd
    multisets are looked up by the weight the dimension identity asks for.
    """
    evens, odds = range(2, n + 1, 2), range(3, 2 * n + 1, 2)
    odd_by_weight = collections.defaultdict(list)
    for size in range(2 * n // 3 + 1):
        for combo in itertools.combinations_with_replacement(odds, size):
            odd_by_weight[sum(combo)].append(combo)
    out = []
    for size in range(n // 2 + 1):
        for even_combo in itertools.combinations_with_replacement(evens, size):
            if sum(even_combo) > n:
                continue
            for odd_combo in odd_by_weight[n + sum(j - 1 for j in even_combo)]:
                d = collections.Counter(even_combo + odd_combo)
                shifted = 2 * d[2] + sum(j * v for j, v in d.items() if j % 2 == 0 and j >= 4)
                out.append((HomotopyProfile.from_dict(n, d), len(odd_combo) - size, shifted))
    return out


def test_profile_search_is_complete():
    # the search finds every profile an independent brute force over degree
    # multisets admits, for every rank and both modes
    for n in range(3, 13):
        candidates = _profiles_by_brute_force(n)
        cases = [(k, "almost_free", k) for k in range(1, n)]
        k_max = max_effective_rank(n)
        cases.append((k_max, "effective_max", 2 * k_max - n))
        for k, mode, k_eff in cases:
            expected = {
                p for p, minus_chi, shifted in candidates
                if k_eff <= minus_chi and n - k_eff >= 2 * k_eff + shifted
                and (mode == "almost_free" or profile_to_models(p))
            }
            got = enumerate_profiles(n, k, mode)
            assert len(set(got)) == len(got) and set(got) == expected, (n, k, mode)


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
    q = quotient_square_form(res.pencil)
    assert q.isotropy() == "isotropic"


def test_classify_connected_sum(cp2_action):
    res = classify_t2_quotient(cp2_action)
    assert res.kind == CP2_CONNSUM_PRODUCT
    assert res.rank_d3 == 2
    assert res.trailing_s3 == 1
    assert res.epsilon == -1
    q = quotient_square_form(res.pencil)
    assert q.isotropy() == "anisotropic"
    disc = q.discriminant
    from torquot import is_rational_square

    assert not is_rational_square(disc) and is_rational_square(-disc)


def test_classify_preconditions():
    with pytest.raises(PreconditionError):
        classify_t2_quotient(TorusActionS3(((1, 0, 0, 1),)))
    # effective, but the selection (1, 0), (0, 2) spans only an index-2 lattice
    with pytest.raises(PreconditionError, match="not free"):
        classify_t2_quotient(TorusActionS3(((1, 2, 0, 0), (0, 0, 2, 1))))
    with pytest.raises(PreconditionError):  # not effective
        classify_t2_quotient(TorusActionS3(((2, 2, 0, 0), (0, 0, 1, 1))))


@pytest.mark.parametrize("make, message", [
    (lambda: SphereFactorization((1, 3), 0), "sphere dimensions must be >= 2"),
    (lambda: SphereFactorization((3,), 4), "invalid circle rank"),
    (lambda: canonical_quotient_model("S4_PRODUCT", 3), "unknown quotient kind"),
    (lambda: max_effective_rank(0), "dimension must be >= 1"),
    (lambda: max_almost_free_rank(0), "dimension must be >= 1"),
    (lambda: slice_invariants(2), "dimension must be >= 3"),
    (lambda: epsilon_invariant(normalize(TorusActionS3(((1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, 1))))),
     "only for rank-2 pencils"),
    (lambda: ClassificationResult("S4_PRODUCT", 2, None, (), (1, 0, 0)), "unknown kind"),
    (lambda: ClassificationResult(S2XS2_PRODUCT, 1, None, (), (1, 0, 0)), "is not 2 or 3"),
    (lambda: ClassificationResult(T1_S2XS2_PRODUCT, 2, None, (), (1, 0, 0)), "exactly to rank 3"),
    (lambda: ClassificationResult(T1_S2XS2_PRODUCT, 3, 1, (), (1, 0, 0)), "only accompanies rank-2"),
    (lambda: max_effective_rank(10.5), "expected integer"),
    (lambda: max_almost_free_rank(10.5), "expected integer"),
    (lambda: slice_invariants(10.0), "expected integer"),
    (lambda: classify_s1_quotient([0.0], 0.5), "expected integer"),
    (lambda: classify_s1_quotient([1], 0.5), "expected integer"),
    (lambda: enumerate_profiles(10, True, "almost_free"), "expected integer"),
    (lambda: enumerate_profiles(10.0, 1, "almost_free"), "expected integer"),
    (lambda: canonical_quotient_model(S2XS2_PRODUCT, 3.0), "expected integer"),
    (lambda: SphereFactorization((3.0, 5), 1.0), "expected integer"),
    (lambda: SphereFactorization((3, 5), True), "expected integer"),
], ids=["sphere below S^2", "circle rank above dimension", "unknown kind",
        "effective rank at n = 0", "almost-free rank at n = 0", "slice at n = 2",
        "epsilon at rank 3", "result of unknown kind", "result of rank 1",
        "T1 result of rank 2", "epsilon with a rank-3 result", "effective rank of a float",
        "almost-free rank of a float", "slice of a float", "float Euler coefficients",
        "float alpha beside a nonzero lambda", "bool rank", "float dimension",
        "float factor count", "float sphere dimension", "bool circle rank"])
def test_classify_refusals(make, message):
    with pytest.raises(PreconditionError, match=message):
        make()


def test_classify_n2_works():
    # the machinery applies verbatim to two factors (4-dimensional quotients)
    res = classify_t2_quotient(TorusActionS3(((1, 1, 0, 0), (0, 0, 1, 1))))
    assert res.kind == S2XS2_PRODUCT and res.trailing_s3 == 0


# -- the relation pencil ------------------------------------------------------------------


def _reference_echelon(forms):
    """Reduced row echelon basis of the span of the forms, by Fraction Gauss-Jordan."""
    rows = [[Fraction(c) for c in f.coefficients()] for f in forms if any(f)]
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
@example([BinaryQuadraticForm(0, 1, 0), BinaryQuadraticForm(0, 0, 1)])  # phi = (1, 0, 0)
def test_pencil_matches_reference_elimination(forms):
    rank, u, phi = _pencil(forms)
    assert rank == rank_int_rows([f.coefficients() for f in forms])
    assert u == next((f for f in forms if any(f)), None)
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


# -- the proof path, alone and with a block's shared dict ------------------------------------


def _one_pass_normalize(rows):
    # normalization in one pass over the whole tuple, sharing nothing with
    # other tuples: (normalized rows, permutation, reparametrization)
    rows, perm = list(rows), list(range(len(rows)))
    s1 = next(i for i, (a, b, _, _) in enumerate(rows) if a * b)
    rows[0], rows[s1], perm[0], perm[s1] = rows[s1], rows[0], perm[s1], perm[0]
    a1, _, k1, _ = rows[0]
    d = math.gcd(a1, k1)
    (m, n), (r, s) = reparam = unimodular_complement(a1 // d, k1 // d)
    rows = [(a * s - k * r, b * s - l * r, -a * n + k * m, -b * n + l * m) for a, b, k, l in rows]
    s2 = next(i for i in range(1, len(rows)) if rows[i][2] * rows[i][3])
    rows[1], rows[s2], perm[1], perm[s2] = rows[s2], rows[1], perm[s2], perm[1]
    return tuple(rows), tuple(perm), reparam


def _one_pass_proof_path(norm_rows):
    # (kind, epsilon) read off normalized rows: l1 = 0 after the gcd reduction
    # of (b1, l1) is the S^2 x S^2 type, else epsilon decides
    _, b1, _, l1 = norm_rows[0]
    g = math.gcd(b1, l1)
    bh, lh = b1 // g, l1 // g
    if lh == 0:
        assert abs(bh) == 1
        return S2XS2_PRODUCT, None
    sides = [((bh * k - a * lh) * (bh * l - b * lh), k * l) for a, b, k, l in norm_rows[1:]]
    eps = sides[0][0] // sides[0][1]
    assert all(x == eps * y for x, y in sides)
    return (S2XS2_PRODUCT if eps == 1 else CP2_CONNSUM_PRODUCT), eps


@st.composite
def rank2_blocks(draw):
    """(prefix of 1 to 5 rows, 1 to 8 last rows) with entries in [-B, B], B in
    1..4.  Two core rows hold the pairs {u, v} and {w, x}: u primitive, w its
    unimodular complement, v = u + s*w and x = w + t*u with s*t in {0, 2}, so
    every selection has determinant +-1.  Each row is a core row or a row with
    a zero pair (a zero form, never slot 1 or slot 2), as it is, with its pairs
    swapped, with a pair negated, or negated.  So a tuple holding both core rows
    is free, of rank 2."""
    bound = draw(st.integers(1, 4))
    entry = st.integers(-bound, bound)
    u = draw(st.tuples(entry, entry).filter(lambda pair: math.gcd(*pair) == 1))
    w = unimodular_complement(*u)[1]
    cores = [
        ((u[0], v[0], u[1], v[1]), (w[0], x[0], w[1], x[1]))
        for s in range(-2, 3) for t in range(-2, 3) if s * t in (0, 2)
        for v in ((u[0] + s * w[0], u[1] + s * w[1]),)
        for x in ((w[0] + t * u[0], w[1] + t * u[1]),)
        if max(map(abs, v + w + x)) <= bound
    ]
    assume(cores)
    pair = (draw(entry), draw(entry))
    bases = draw(st.sampled_from(cores)) + ((pair[0], 0, pair[1], 0),)
    rows = st.sampled_from([
        variant for a, b, k, l in bases
        for variant in ((a, b, k, l), (b, a, l, k), (-a, b, -k, l), (-a, -b, -k, -l))
    ])
    return tuple(draw(st.lists(rows, min_size=1, max_size=5))), draw(st.lists(rows, min_size=1, max_size=8))


# slots 1 and 2 in the prefix; slot 2 on the last row, with l1 != 0 and l1 = 0;
# slot 1 on the last row
@example((((1, 1, 1, 0), (0, 0, 1, 1)), [(-1, -1, -1, 0), (-1, 0, -1, 0)]))
@example((((-1, -1, -1, 1), (-1, -1, -1, 1)), [(-1, -1, 0, 0), (-1, 0, 0, -1)]))
@example((((1, 1, 0, 0), (1, 1, 0, 0)), [(-1, -1, -1, -1)]))
@example((((1, 0, 0, 1), (0, 1, 1, 0)), [(-1, -1, -1, -1), (-1, -1, -1, 1), (1, 1, 1, -1)]))
@given(rank2_blocks())
@settings(max_examples=300, deadline=None)
def test_shared_proof_path_equals_one_pass(case):
    # each tuple is normalized and classified alone and with one dict per block
    # for the work its tuples share, as by the one-pass route
    prefix, last_rows = case
    tuples = [prefix + (row,) for row in last_rows]
    tuples = [t for t in tuples if is_effective(TorusActionS3(t)) and is_free(TorusActionS3(t))]
    tuples = [t for t in tuples if _pencil(_forms(t))[0] == 2]
    assume(tuples)
    normalize_shared, proof_path_shared = {}, {}
    for rows in tuples:
        normalized = _one_pass_normalize(rows)
        assert actions._normalize_rows(rows) == normalized
        assert actions._normalize_rows(rows, normalize_shared) == normalized
        verdict = _one_pass_proof_path(normalized[0])
        assert classify._proof_path_kind(rows) == verdict
        assert classify._proof_path_kind(rows, proof_path_shared) == verdict


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
    assert len(model.generators) == 6  # s1, s2, x1..x4
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
