import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import torquot.actions as actions
from torquot import (
    CircleActionSpheres,
    ClassificationViolation,
    InputFormatError,
    PreconditionError,
    TorusActionS3,
    circle_euler_data,
    differential_rows,
    is_effective,
    is_free,
    is_free_circle,
    normalize,
)
from torquot.actions import (
    NormalizationWitness,
    NormalizedActionS3,
    _normalize_rows,
    parse_action,
    parse_circle_action,
)
from torquot.quadforms import pulled_back

from conftest import (
    FAULT_BLOCKS,
    T1_ROWS,
    format_action,
    format_circle_action,
    oracle_is_free,
    permuted,
    random_action,
    random_unimodular,
    reparametrized,
)


# -- effectiveness ---------------------------------------------------------------


def test_effective_examples(t1_action):
    assert is_effective(t1_action)
    assert not is_effective(TorusActionS3(((2, 2, 0, 0), (0, 0, 1, 1))))
    assert is_effective(TorusActionS3(((1, 0, 0, 1),)))


# -- freeness ---------------------------------------------------------------------


def test_free_t1_example(t1_action):
    assert is_free(t1_action)


def test_free_repeated_z_factors():
    # (z q1, z q2, w q3): isotropy is trivial at every point, hence free;
    # frozen from the selection oracle (every selection contains the pair
    # (1,0),(0,1) of determinant 1)
    rows = ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1))
    assert oracle_is_free(rows)
    assert is_free(TorusActionS3(rows))


def test_free_mixed_with_trivial_factor(cp2_action):
    assert is_free(cp2_action)


def test_not_free_rank_deficient():
    assert not is_free(TorusActionS3(((1, 1, 0, 0), (1, 1, 0, 0))))
    # single factor: a rank-2 torus cannot act freely on one S^3
    assert not is_free(TorusActionS3(((1, 0, 0, 1),)))


CONTENT_HEAVY = (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 12, -12)


def content_heavy_rows(rng: random.Random, n_factors: int):
    """Rows with entries of large common content, repeated rows, zero pairs."""
    rows = []
    for _ in range(n_factors):
        a, b, k, l = (rng.choice(CONTENT_HEAVY) for _ in range(4))
        shape = rng.random()
        if rows and shape < 0.15:
            a, b, k, l = rng.choice(rows)
        elif shape < 0.3:
            a, k = 0, 0
        elif shape < 0.4:
            b, l = a, k
        rows.append((a, b, k, l))
    return tuple(rows)


def carries_a_modulus(rows) -> bool:
    """Does the freeness test carry a content g != 1 past its first pivot?

    The first factor with no zero pair is the pivot.  It carries g on when
    one of its pairs has content g > 1 and neither of its primitive pairs
    v' has every later factor on line(v') mod some p.
    """
    for i, (a, b, k, l) in enumerate(rows):
        pairs = {(a, k), (b, l)}
        if (0, 0) in pairs:
            continue
        later = rows[i + 1:]

        def on_no_line(x, y):
            g = math.gcd(x, y)
            x, y = x // g, y // g
            return math.gcd(*[(x * k2 - y * a2) * (x * l2 - y * b2)
                              for a2, b2, k2, l2 in later]) == 1

        return any(math.gcd(*v) > 1 for v in pairs) and all(
            on_no_line(*v) for v in pairs
        )
    return False


def test_free_agrees_with_lattice_oracle():
    rng = random.Random(123)
    free = not_free = 0
    for i in range(500):
        act = random_action(rng, rng.randint(2, 3), 1 if i % 2 else 2)
        got = is_free(act)
        assert got == oracle_is_free(act.rows)
        free += got
        not_free += not got
    assert free > 20 and not_free > 20  # both outcomes exercised

    # entries sharing the factors 2 and 3 drive the zero-pair and moduli
    # branches; count the actions decided after a modulus was carried on
    carried = {True: 0, False: 0}
    for _ in range(3000):
        rows = content_heavy_rows(rng, rng.randint(1, 6))
        got = is_free(TorusActionS3(rows))
        assert got == oracle_is_free(rows), rows
        if carries_a_modulus(rows):
            carried[got] += 1
    assert carried[True] > 20 and carried[False] > 20

    # every N = 2, B = 1 action
    verdicts = set()
    for t in product(range(-1, 2), repeat=8):
        rows = (t[:4], t[4:])
        got = is_free(TorusActionS3(rows))
        assert got == oracle_is_free(rows), rows
        verdicts.add(got)
    assert verdicts == {True, False}


def _whole_tuple_free(rows) -> bool:
    # the freeness walk over the whole tuple in one pass, each pivot's h taken
    # over every later factor at once: `_free_rows` before it was split into a
    # prefix state and a last-row step
    moduli = {0}
    for i, (a, b, k, l) in enumerate(rows):
        if not (a or k) or not (b or l):
            continue
        carried = set()
        for x, y in ((a, k),) if a == b and k == l else ((a, k), (b, l)):
            g = math.gcd(x, y)
            x, y = x // g, y // g
            for c in moduli:
                h = c
                for u, s, v, t in rows[i + 1:]:
                    h = math.gcd(h, (x * v - y * u) * (x * t - y * s))
                if h != 1:
                    return False
                if math.gcd(c, g) != 1:
                    carried.add(math.gcd(c, g))
        if not carried:
            return True
        moduli = carried
    return False


def _folds_match(prefix, last) -> bool:
    # each fold, prefix state then last row, against the whole-tuple test;
    # returns the freeness verdict
    rows = prefix + (last,)
    free = _whole_tuple_free(rows)
    assert actions._free_last(actions._free_prefix(prefix), last) == free, rows
    assert actions._free_rows(rows) == free, rows
    effective = math.gcd(*(v for a, b, _, _ in rows for v in (a, b))) == 1 == math.gcd(
        *(v for _, _, k, l in rows for v in (k, l)))
    assert actions._effective_last(actions._effective_prefix(prefix), last) == effective, rows
    assert actions._effective_rows(rows) == effective, rows
    return free


def test_folds_equal_the_whole_tuple_test_on_grids():
    values = list(product(range(-1, 2), repeat=4))
    # every N = 2, B = 1 tuple, then the last rows of each N = 3 fault block
    verdicts = {_folds_match((head,), last) for head in values for last in values}
    assert verdicts == {True, False}
    verdicts = {_folds_match(prefix, last) for prefix in FAULT_BLOCKS for last in values}
    assert verdicts == {True, False}


_ENTRY = st.one_of(st.integers(-30, 30), st.sampled_from((0, 2, -2, 6, -6, 12, 30, -30)))
_ROW = st.one_of(
    st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY),
    st.tuples(_ENTRY, _ENTRY).map(lambda p: (p[0], p[0], p[1], p[1])),  # (a, k) = (b, l)
    st.tuples(_ENTRY, _ENTRY).map(lambda p: (p[0], 0, p[1], 0)),  # a zero pair
    st.tuples(_ENTRY, _ENTRY).map(lambda p: (0, p[0], 0, p[1])),
)


@example(((1, 1, 0, 0),), (0, 0, 1, 1))
@example(((2, 2, 0, 0),), (0, 0, 2, 2))
@example((), (1, 0, 0, 1))
@given(st.lists(_ROW, max_size=5).map(tuple), _ROW)
@settings(max_examples=500, deadline=None)
def test_folds_equal_the_whole_tuple_test(prefix, last):
    # prefixes of 0 to 5 rows, so N = 1..6, with entries up to 30 that share
    # factors, zero pairs and rows whose two pairs coincide
    _folds_match(prefix, last)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_free_invariant_under_permutation_and_reparam(data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    act = random_action(rng, 3, 2)
    verdict = is_free(act)
    perm = list(range(3))
    rng.shuffle(perm)
    assert is_free(permuted(act, perm)) == verdict
    assert is_free(reparametrized(act, random_unimodular(rng))) == verdict


def test_free_circle_examples():
    assert is_free_circle(
        CircleActionSpheres(((5, (1, 1, 1)), (3, (1, -1))))
    )
    # every selection of one weight per factor shares the divisor 2
    assert not is_free_circle(
        CircleActionSpheres(((5, (2, 2, 2)), (3, (2, 4))))
    )
    # a single factor with all weights zero is pointwise fixed
    assert not is_free_circle(CircleActionSpheres(((3, (0, 0)),)))


def test_free_circle_even_factor_never_helps():
    # the polar axis of an even sphere is fixed: its weights cannot rescue
    # freeness, and a lone even factor is never free
    assert not is_free_circle(CircleActionSpheres(((4, (1, 1)),)))
    assert is_free_circle(CircleActionSpheres(((4, (5, 7)), (3, (1, 1)))))
    assert not is_free_circle(CircleActionSpheres(((4, (1, 1)), (3, (2, 2)))))


def oracle_is_free_circle(act: CircleActionSpheres) -> bool:
    """Every selection of one weight per odd factor has gcd 1."""
    odd = [w for dim, w in act.factors if dim % 2 == 1]
    return bool(odd) and all(math.gcd(*sel) == 1 for sel in product(*odd))


def test_free_circle_agrees_with_selection_oracle():
    rng = random.Random(31)
    weights = (0, 1, -1, 2, -2, 3, 4, 6, -6, 10, 12, 15)
    verdicts = set()
    for _ in range(2000):
        factors = []
        for _ in range(rng.randint(1, 5)):
            dim = rng.choice((2, 3, 4, 5, 7))
            factors.append(
                (dim, tuple(rng.choice(weights) for _ in range((dim + 1) // 2)))
            )
        act = CircleActionSpheres(tuple(factors))
        got = is_free_circle(act)
        assert got == oracle_is_free_circle(act), factors
        verdicts.add(got)
    assert verdicts == {True, False}


def test_free_circle_many_factors():
    # a selection scan would try 3^31 selections; the partial gcds stay
    # among 6, 10, 15, 2, 3, 5, so the last factor decides
    wide = ((5, (6, 10, 15)),) * 30
    assert is_free_circle(CircleActionSpheres(wide + ((5, (1, 1, 1)),)))
    assert not is_free_circle(CircleActionSpheres(wide + ((5, (2, 4, 8)),)))
    assert not is_free_circle(CircleActionSpheres(wide))


def test_circle_weight_count_validation():
    with pytest.raises(PreconditionError):
        CircleActionSpheres(((5, (1, 1)),))
    with pytest.raises(PreconditionError):
        CircleActionSpheres(((3, (1, 1, 1)),))


@pytest.mark.parametrize("make, message", [
    (lambda: TorusActionS3(()), "at least one sphere factor"),
    (lambda: TorusActionS3(((1, 1, 0),)), "quadruple"),
    (lambda: CircleActionSpheres(()), "at least one sphere factor"),
    (lambda: NormalizedActionS3(TorusActionS3(((0, 1, 0, 1), (1, 1, 1, 1))),
                                NormalizationWitness((0, 1), ((1, 0), (0, 1)))),
     "do not satisfy the normalized form"),
], ids=["no rows", "row of three", "no sphere factors", "a1 = 0 as normalized"])
def test_action_refusals(make, message):
    with pytest.raises(PreconditionError, match=message):
        make()


@pytest.mark.parametrize("entry", [1.5, 1.9, 2.0, True, Fraction(1, 2), Fraction(2), "1"])
def test_actions_reject_non_integer_entries(entry):
    # a non-integer weight is refused, never truncated: (1.5, 1, 0, 0) must
    # not classify as the Hopf factor (1, 1, 0, 0)
    with pytest.raises(PreconditionError):
        TorusActionS3(((entry, 1, 0, 0), (0, 0, 1, 1)))
    with pytest.raises(PreconditionError):
        CircleActionSpheres(((3, (entry, 1)),))
    with pytest.raises(PreconditionError):
        CircleActionSpheres(((entry, (1,)),))


def test_actions_keep_integer_entries_as_tuples():
    act = TorusActionS3([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert act.rows == ((1, 1, 0, 0), (0, 0, 1, 1))
    circle = CircleActionSpheres([(5, [1, 1, 1]), (3, [1, -1])])
    assert circle.factors == ((5, (1, 1, 1)), (3, (1, -1)))


# -- differential rows ----------------------------------------------------------------


def test_differential_rows_examples():
    rows = differential_rows(
        TorusActionS3(((1, 1, 0, 0), (1, 0, 0, 1), (2, 0, 0, 2)))
    )
    assert rows[0].coefficients() == (1, 0, 0)
    assert rows[1].coefficients() == (0, 1, 0)
    assert rows[2].coefficients() == (0, 4, 0)
    # integer weights give integer forms: the classifier never builds a Fraction
    assert all(type(c) is int for f in rows for c in f.coefficients())
    assert type(rows[2].discriminant) is int


def test_circle_euler_data_examples():
    lambdas, alphas = circle_euler_data(
        CircleActionSpheres(((3, (1, -1)), (5, (1, 1, 1)), (3, (1, 0))))
    )
    assert lambdas == (-1, 0)
    assert alphas == (1,)
    with pytest.raises(PreconditionError):
        circle_euler_data(CircleActionSpheres(((7, (1, 1, 1, 1)),)))


# -- normalization ------------------------------------------------------------------


def test_normalize_already_normal(t1_action):
    norm = normalize(t1_action)
    assert norm.action.rows == T1_ROWS
    assert norm.witness.permutation == (0, 1, 2)
    assert norm.witness.reparam == ((1, 0), (0, 1))


def test_normalize_swaps_first_factor():
    act = TorusActionS3(((0, 0, 1, 1), (1, 1, 0, 0), (2, 0, 0, 2)))
    norm = normalize(act)
    assert norm.action.rows == T1_ROWS
    assert norm.witness.permutation == (1, 0, 2)


def test_normalize_reparametrizes_to_kill_k1():
    act = TorusActionS3(((1, 1, 1, 1), (0, 0, 1, 1), (2, 0, 0, 2)))
    norm = normalize(act)
    assert norm.witness.reparam == ((1, 1), (0, 1))
    assert norm.action.rows == ((1, 1, 0, 0), (0, 0, 1, 1), (2, 0, -2, 2))
    assert is_effective(norm.action) and is_free(norm.action)


def test_normalize_rejects_non_free():
    with pytest.raises(PreconditionError):
        normalize(TorusActionS3(((1, 1, 0, 0), (1, 1, 0, 0))))
    # effective but not free: the selection (1,0),(0,2) only spans index 2
    act = TorusActionS3(((1, 2, 0, 0), (0, 0, 2, 1)))
    assert is_effective(act) and not is_free(act)
    with pytest.raises(PreconditionError):
        normalize(act)
    # not effective
    with pytest.raises(PreconditionError):
        normalize(TorusActionS3(((2, 2, 0, 0), (0, 0, 1, 1))))


def test_normalizing_rows_without_slot_1_is_a_violation():
    # no row has a*b != 0, which only a non-free action allows: rows handed on
    # by a broken filter.  A campaign records the violation, the CLI exits 2
    rows = ((1, 0, 0, 1), (0, 1, 1, 0))
    assert is_effective(TorusActionS3(rows)) and not is_free(TorusActionS3(rows))
    with pytest.raises(ClassificationViolation, match=r"no factor has a_i\*b_i != 0") as raised:
        _normalize_rows(rows)
    assert (raised.value.stage, raised.value.witness) == ("normalization", rows)


@pytest.mark.parametrize("factor", [0, 1, 2])
def test_each_factor_pull_back_is_checked(factor, monkeypatch):
    # a pull-back that fails at one factor only, among the first N-1 rows, which
    # a block's dict keeps, or the last row, fails the pencil postcondition
    rows = ((1, 1, 1, 0), (0, 0, 1, 1), (-1, 0, -1, 0))
    assert is_effective(TorusActionS3(rows)) and is_free(TorusActionS3(rows))
    _normalize_rows(rows)
    a, b, k, l = rows[factor]
    source = (a * b, a * l + b * k, k * l)

    def bump_one(form, m, n, r, s):
        A, B, C = pulled_back(form, m, n, r, s)
        return (A + 1, B, C) if (A, B, C) == source else (A, B, C)

    monkeypatch.setattr(actions, "pulled_back", bump_one)
    for shared in (None, {}):
        with pytest.raises(ClassificationViolation, match="broke the differential pencil"):
            _normalize_rows(rows, shared)


def _sample_free_actions(count, seed, n_factors=3, bound=2):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        act = random_action(rng, n_factors, bound)
        if is_effective(act) and is_free(act):
            out.append(act)
    return out


def test_normalize_postconditions_on_samples():
    for act in _sample_free_actions(60, seed=5):
        norm = normalize(act)
        a1, b1, k1, l1 = norm.action.rows[0]
        _, _, k2, l2 = norm.action.rows[1]
        assert a1 != 0 and k1 == 0 and (b1, l1) != (0, 0) and k2 * l2 != 0
        assert is_effective(norm.action) and is_free(norm.action)


def test_normalize_carries_pencil_by_substitution():
    # differential rows of the normalized action, pushed through the torus
    # substitution, must reproduce the original rows (up to the permutation)
    for act in _sample_free_actions(40, seed=11):
        norm = normalize(act)
        (m, n), (r, s) = norm.witness.reparam
        old = differential_rows(act)
        new = differential_rows(norm.action)
        for i, p in enumerate(norm.witness.permutation):
            pulled = new[i].substituted(m, n, r, s)
            assert pulled == old[p]
            assert all(type(c) is int for c in pulled.coefficients())


def test_free_actions_have_nonzero_rows():
    # Lemma-level fact used by normalization: a free action has a factor
    # with a_i b_i != 0 and a factor with k_i l_i != 0
    for act in _sample_free_actions(80, seed=23):
        assert any(a * b != 0 for a, b, _, _ in act.rows)
        assert any(k * l != 0 for _, _, k, l in act.rows)


def test_reparametrization_transforms_differential_rows():
    rng = random.Random(99)
    for act in _sample_free_actions(30, seed=37):
        m = random_unimodular(rng)
        new = reparametrized(act, m)
        (p, q), (r, s) = m
        old_forms = differential_rows(act)
        new_forms = differential_rows(new)
        # pulling each transformed row back along (s1,s2) -> M(s1,s2)
        # reproduces the original row exactly
        for i in range(len(old_forms)):
            assert new_forms[i].substituted(p, q, r, s) == old_forms[i]


# -- file formats ---------------------------------------------------------------------


def test_action_file_round_trip(t1_action):
    assert parse_action(format_action(t1_action)) == t1_action


def test_action_file_diagnostics():
    with pytest.raises(InputFormatError, match="float"):
        parse_action('{"rows": [{"a": 1.5, "b": 1, "k": 0, "l": 0}]}')
    with pytest.raises(InputFormatError, match="rows\\[0\\]\\.k"):
        parse_action('{"rows": [{"a": 1, "b": 1, "l": 0}]}')
    with pytest.raises(InputFormatError, match="n_factors"):
        parse_action('{"n_factors": 2, "rows": [{"a":1,"b":1,"k":0,"l":0}]}')
    with pytest.raises(InputFormatError, match="expected integer"):
        parse_action('{"rows": [{"a": true, "b": 1, "k": 0, "l": 0}]}')
    with pytest.raises(InputFormatError, match="line 1"):
        parse_action("{not json")


def test_circle_file_round_trip():
    act = CircleActionSpheres(((5, (1, 1, 1)), (3, (1, -1))))
    assert parse_circle_action(format_circle_action(act)) == act


def test_circle_file_diagnostics():
    with pytest.raises(InputFormatError, match="factors"):
        parse_circle_action('{"rows": []}')
    with pytest.raises(InputFormatError, match="weights"):
        parse_circle_action('{"factors": [{"sphere_dim": 3}]}')
