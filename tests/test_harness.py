import ast
import concurrent.futures
import functools
import itertools
import json
import math
import operator
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import torquot.actions as actions
import torquot.classify as classify
import torquot.exact as exact
import torquot.harness as harness
from torquot import ClassificationViolation, PreconditionError, TorusActionS3
from torquot.actions import format_action
from torquot.classify import classify_t2_quotient
from torquot.cli import cli_main
from torquot.harness import (
    CampaignReport,
    GridSpec,
    expected_effective_max_profiles,
    resolve_jobs,
    run_profile_campaign,
    run_t2_campaign,
)


def test_grid_spec_validation():
    with pytest.raises(PreconditionError):
        GridSpec(1, 1)
    with pytest.raises(PreconditionError):
        GridSpec(2, 0)
    with pytest.raises(PreconditionError):
        GridSpec(2, 1, mode="random", count=10)  # no seed
    with pytest.raises(PreconditionError):
        GridSpec(2, 1, mode="random", count=0, seed=1)
    with pytest.raises(PreconditionError):
        GridSpec(2, 1, mode="exhaustive", seed=3)
    with pytest.raises(PreconditionError):
        GridSpec(2, 1, mode="random", count=5, seed=2 ** 64)
    # the word-wise draw covers 2B+1 < 2**32 only, in either mode
    with pytest.raises(PreconditionError):
        GridSpec(2, 2 ** 31, mode="random", count=5, seed=1)
    with pytest.raises(PreconditionError):
        GridSpec(2, 2 ** 40, mode="random", count=5, seed=1)
    with pytest.raises(PreconditionError):
        GridSpec(2, 2 ** 31)
    # an exhaustive grid is filtered by row masks, tabulated up to MASK_BOUND
    with pytest.raises(PreconditionError, match=r"11\^8 tuples.*random mode"):
        GridSpec(2, 5)
    assert GridSpec(2, 4).tuple_count == 9 ** 8
    widest = GridSpec(2, 2 ** 31 - 1, mode="random", count=5, seed=1)
    assert run_t2_campaign(widest).totals["tested"] == 5
    assert GridSpec(2, 1).tuple_count == 3 ** 8
    assert GridSpec(3, 2).tuple_count == 5 ** 12


def test_exhaustive_small_grid_counts():
    report = run_t2_campaign(GridSpec(2, 1))
    totals = report.totals
    assert totals["tested"] == 3 ** 8
    assert totals["violations"] == 0
    assert totals["effective"] >= totals["free"] >= sum(totals["kinds"].values())
    assert totals["free"] == sum(totals["kinds"].values())
    # rank 3 needs three factors
    assert totals["kinds"]["T1_S2xS2_PRODUCT"] == 0
    assert totals["kinds"]["S2xS2_PRODUCT"] > 0
    assert totals["kinds"]["CP2_CONNSUM_PRODUCT"] > 0


def test_random_campaign_reproducible():
    grid = GridSpec(3, 2, mode="random", count=1500, seed=77)
    a = run_t2_campaign(grid)
    b = run_t2_campaign(grid)
    assert a.comparable() == b.comparable()
    other = run_t2_campaign(GridSpec(3, 2, mode="random", count=1500, seed=78))
    assert other.totals != a.totals or other.violation_witnesses != a.violation_witnesses


def _randint_rows(rng, bound, n_factors, count):
    # the documented sampler: one randint(-B, B) per slot, row-major
    out = []
    for _ in range(count):
        flat = [rng.randint(-bound, bound) for _ in range(4 * n_factors)]
        out.append(tuple(tuple(flat[4 * i: 4 * i + 4]) for i in range(n_factors)))
    return out


@pytest.mark.parametrize("bound", [1, 3, 4, 7, 8, 2 ** 31 - 1])
@pytest.mark.parametrize("n_factors", [2, 3, 4])
def test_draw_is_the_randint_stream(bound, n_factors):
    for seed in (0, 42, 2 ** 64 - 1):
        bulk, slot = random.Random(seed), random.Random(seed)
        for count in (1, 7, 100):  # drawn in sequence from one generator
            assert harness._draw(bulk, bound, n_factors, count) == _randint_rows(
                slot, bound, n_factors, count
            )
            assert bulk.getstate() == slot.getstate()  # no word over-drawn


def test_random_campaign_calls_no_randint(monkeypatch):
    def refuse(*args):
        raise AssertionError("randint called")

    monkeypatch.setattr(random.Random, "randint", refuse)
    report = run_t2_campaign(GridSpec(3, 2, mode="random", count=300, seed=9))
    assert report.totals["tested"] == 300


class InlinePool:  # stands in for the process pool: scans each chunk in this process
    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, chunk):
        future = concurrent.futures.Future()
        future.set_result(fn(chunk))
        return future


def test_exhaustive_chunks_are_the_odometer_in_rows(monkeypatch):
    seen, chunks = [], []

    class RecordingPool(InlinePool):
        def submit(self, fn, chunk):
            seen.clear()
            future = super().submit(fn, chunk)
            chunks.append((chunk[1], chunk[2], list(seen), future.result()[0]))
            return future

    def recording_classify(rows, pencil):
        seen.append(rows)
        return classify._classify_free_rows(rows, pencil)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_classify_free_rows", recording_classify)
    run_t2_campaign(GridSpec(2, 1), jobs=3)
    odometer = [(flat[0:4], flat[4:8]) for flat in itertools.product(range(-1, 2), repeat=8)]
    assert len(chunks) == 12
    assert [lo for lo, _, _, _ in chunks[1:]] == [hi for _, hi, _, _ in chunks[:-1]]
    assert chunks[0][0] == 0 and chunks[-1][1] == len(odometer)
    for lo, hi, rows, tally in chunks:
        effective = [r for r in odometer[lo:hi] if actions._effective_rows(r)]
        free = [r for r in effective if actions._free_rows(r)]
        assert rows == free
        assert (tally["tested"], tally["effective"], tally["free"]) == (
            hi - lo, len(effective), len(free)
        )


@functools.lru_cache(maxsize=2)
def _per_tuple_report(n_factors, bound):
    # the campaign's totals and epsilon count, tallied one odometer tuple at a
    # time with the per-tuple filter and the pencil of the whole tuple, and
    # each free tuple's (kind, epsilon), one shared object per outcome
    tally, verdicts, outcomes = harness._fresh_tally(), {}, {}
    row_values = list(itertools.product(range(-bound, bound + 1), repeat=4))
    for rows in itertools.product(row_values, repeat=n_factors):
        tally["tested"] += 1
        if actions._effective_rows(rows):
            tally["effective"] += 1
            if actions._free_rows(rows):
                tally["free"] += 1
                pencil = classify._pencil(actions._forms(rows))
                outcome = classify._classify_free_rows(rows, pencil)
                verdicts[rows] = outcomes.setdefault(outcome, outcome)
                tally["kinds"][outcome[0]] += 1
                tally["epsilon_checked"] += outcome[1] is not None
    checked = tally.pop("epsilon_checked")
    return tally, {"checked": checked, "failures": 0}, verdicts


@pytest.mark.parametrize("jobs", [1, 3, 7])
@pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
def test_exhaustive_scan_equals_the_per_tuple_filter(shape, jobs, monkeypatch):
    # 4 * jobs chunks of a grid whose blocks of (2B+1)^4 tuples share their
    # leading rows: at jobs 3 and 7 chunk boundaries cut blocks.  The
    # classifier looks up the reference's verdicts, so each run costs one
    # scan, and a tuple the reference did not pass fails it with a KeyError
    totals, epsilon_checks, verdicts = _per_tuple_report(*shape)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness, "_classify_free_rows", lambda rows, pencil: verdicts[rows])
    report = run_t2_campaign(GridSpec(*shape), jobs=jobs)
    assert report.totals == totals and report.violation_witnesses == []
    assert report.epsilon_checks == epsilon_checks


@pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
def test_block_pencils_equal_the_per_tuple_pencils(shape, monkeypatch):
    # the odometer folds each free last row's form into its prefix's pencil:
    # that must be the whole tuple's pencil, give the reference's (kind,
    # epsilon), and send a rank-2 tuple down the proof path exactly once
    _, _, verdicts = _per_tuple_report(*shape)
    proof_path = _count_calls(monkeypatch, classify, "_proof_path_kind")
    rank2 = [0]

    def checked_classify(rows, pencil):
        assert pencil == classify._pencil(actions._forms(rows))
        proof_path.clear()
        outcome = classify._classify_free_rows(rows, pencil)
        assert outcome == verdicts[rows]
        assert proof_path == ([] if outcome[0] == "T1_S2xS2_PRODUCT" else [rows])
        rank2[0] += len(proof_path)
        return outcome

    monkeypatch.setattr(harness, "_classify_free_rows", checked_classify)
    report = run_t2_campaign(GridSpec(*shape), jobs=1)
    assert report.totals["free"] == len(verdicts)
    assert rank2[0] == sum(kind != "T1_S2xS2_PRODUCT" for kind, _ in verdicts.values()) > 0


@st.composite
def filter_rows(draw):
    # (B, 1 to 6 rows) with entries in [-B, B]: rows with zero pairs, repeated pairs
    # (a, k) = (b, l) and pairs on one line through 0, so that selections of
    # rank <= 1 occur
    bound = draw(st.integers(1, actions.MASK_BOUND))
    entry = st.integers(-bound, bound)
    line = (draw(entry), draw(entry))
    multiples = [m for m in range(-2, 3) if max(abs(m * line[0]), abs(m * line[1])) <= bound]

    def pair():
        kind = draw(st.sampled_from(("any", "zero", "line")))
        if kind == "zero":
            return (0, 0)
        if kind == "line":
            m = draw(st.sampled_from(multiples))
            return (m * line[0], m * line[1])
        return (draw(entry), draw(entry))

    rows = []
    for _ in range(draw(st.integers(1, 6))):
        (a, k) = pair()
        (b, l) = (a, k) if draw(st.booleans()) else pair()
        rows.append((a, b, k, l))
    return bound, tuple(rows)


# effective, and its one selection's minor 3*3 + 2*2 = 13 is prime: it fails
# freeness only on a line mod 13, which masks stopping below 2B^2 = 18 miss
@example((3, ((3, 3, 2, 2), (-2, -2, 3, 3))))
@given(filter_rows())
@settings(max_examples=400, deadline=None)
def test_row_masks_equal_the_walk(case):
    bound, rows = case
    table, effective_bits = actions._row_masks(bound)
    m = functools.reduce(operator.and_, map(table.__getitem__, rows))
    effective = actions._effective_rows(rows)
    assert (not m & effective_bits, not m) == (effective, effective and actions._free_rows(rows))


@pytest.mark.parametrize("jobs", [2, 3])
def test_pool_draws_at_most_one_chunk_past_the_window(jobs, monkeypatch):
    grid = GridSpec(3, 1, mode="random", count=3000, seed=5)
    expected = run_t2_campaign(grid, jobs=1).comparable()
    drawn, consumed, ahead = [0], [0], []

    class LazyFuture:  # scans its chunk only when the campaign asks for the result
        def __init__(self, fn, chunk):
            self.fn, self.chunk = fn, chunk

        def result(self):
            consumed[0] += 1
            return self.fn(self.chunk)

    class LazyPool:
        def __init__(self, max_workers):
            assert max_workers == jobs

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, chunk):
            return LazyFuture(fn, chunk)

    def counted_draw(*args):
        drawn[0] += 1
        ahead.append(drawn[0] - consumed[0])
        return draw(*args)

    draw = harness._draw
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LazyPool)
    monkeypatch.setattr(harness, "_draw", counted_draw)
    assert run_t2_campaign(grid, jobs=jobs).comparable() == expected
    assert drawn[0] == consumed[0] == 4 * jobs
    assert max(ahead) == jobs + 1


def test_jobs_do_not_change_report():
    grid = GridSpec(2, 1)
    seq = run_t2_campaign(grid, jobs=1)
    par = run_t2_campaign(grid, jobs=2)
    assert seq.comparable() == par.comparable()
    # 12 chunks of 6,561 tuples: uneven chunk sizes
    assert run_t2_campaign(grid, jobs=3).comparable() == seq.comparable()
    rnd = GridSpec(3, 1, mode="random", count=2000, seed=5)
    assert (
        run_t2_campaign(rnd, jobs=1).comparable()
        == run_t2_campaign(rnd, jobs=2).comparable()
    )
    # fewer tuples than jobs * 4: one tuple per chunk
    tiny = GridSpec(2, 1, mode="random", count=5, seed=5)
    tiny_seq = run_t2_campaign(tiny, jobs=1)
    assert tiny_seq.totals["tested"] == 5
    assert run_t2_campaign(tiny, jobs=2).comparable() == tiny_seq.comparable()


def test_report_is_json_serializable():
    report = run_t2_campaign(GridSpec(2, 1, mode="random", count=50, seed=9))
    record = json.loads(json.dumps(report.to_record()))
    assert set(record) >= {"totals", "violation_witnesses", "wall_time", "config"}
    assert record["config"]["prng"] == "mt19937"
    assert record["config"]["seed"] == 9


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    with pytest.raises(PreconditionError):
        resolve_jobs(0)


def test_violation_witnesses_recorded(monkeypatch):
    # force violations for one specific action to exercise the reporting path
    target = ((1, 1, 0, 0), (0, 0, 1, 1))

    def fake_classify(rows, pencil):
        if rows == target:
            raise ClassificationViolation(
                "epsilon identity fails (forced)", witness=rows, stage="epsilon"
            )
        return classify._classify_free_rows(rows, pencil)

    monkeypatch.setattr(harness, "_classify_free_rows", fake_classify)
    report = run_t2_campaign(GridSpec(2, 1), jobs=1)
    assert report.totals["violations"] == 1
    [witness] = report.violation_witnesses
    assert witness["rows"] == [list(r) for r in target]
    assert witness["epsilon_related"] is True
    assert report.epsilon_checks["failures"] == 1
    # the recorded witness reproduces the violation through the same classifier
    refed = TorusActionS3(tuple(tuple(r) for r in witness["rows"]))
    with pytest.raises(ClassificationViolation):
        fake_classify(refed.rows, classify._pencil(actions._forms(refed.rows)))
    # and the genuine classifier handles the rows cleanly (the theorem holds)
    assert classify_t2_quotient(refed).kind == "S2xS2_PRODUCT"


def test_witnesses_sorted_canonically(monkeypatch):
    def fake_classify(rows, pencil):
        raise ClassificationViolation("forced", witness=rows)

    monkeypatch.setattr(harness, "_classify_free_rows", fake_classify)
    report = run_t2_campaign(GridSpec(2, 1), jobs=1)
    rows_lists = [w["rows"] for w in report.violation_witnesses]
    assert rows_lists == sorted(rows_lists)
    assert report.totals["violations"] == report.totals["free"]


def test_campaign_report_invariants():
    # checked by raising, so the checks survive python -O
    with pytest.raises(PreconditionError):
        CampaignReport(
            totals={"tested": 1, "effective": 0, "free": 1, "violations": 0, "kinds": {}},
            violation_witnesses=[],
            wall_time=0.0,
            config={},
        )
    with pytest.raises(PreconditionError):
        CampaignReport(
            totals={"tested": 1, "effective": 1, "free": 1, "violations": 1, "kinds": {}},
            violation_witnesses=[],
            wall_time=0.0,
            config={},
        )


def test_profile_campaign_clean():
    report = run_profile_campaign(20)
    assert report.totals["violations"] == 0
    assert report.violation_witnesses == []


def test_expected_table_truncation():
    # s = 2: only three of the five rows survive the nonnegativity cut
    rows4 = {tuple(sorted(p.d)) for p in expected_effective_max_profiles(4)}
    assert rows4 == {
        ((4, 1), (7, 1)),
        ((2, 1), (5, 1)),
        ((2, 2), (3, 2)),
    }
    # s = 3: four rows
    assert len(expected_effective_max_profiles(7)) == 4
    # s >= 4: the full table
    assert len(expected_effective_max_profiles(10)) == 5
    with pytest.raises(PreconditionError):
        expected_effective_max_profiles(9)


def test_campaigns_never_build_the_pencil(monkeypatch):
    # the echelon basis is for output records only; a campaign that built
    # it would hit the forbidden stand-in and abort
    grids = [GridSpec(2, 1), GridSpec(3, 1, mode="random", count=2000, seed=41)]
    expected = [run_t2_campaign(grid, jobs=1).comparable() for grid in grids]

    def forbidden(rank, phi):
        raise AssertionError("a campaign built the echelon pencil")

    monkeypatch.setattr(classify, "_echelon_pencil", forbidden)
    assert [run_t2_campaign(grid, jobs=1).comparable() for grid in grids] == expected


# classify_t2_quotient's records of FAULT_ROWS and of one action of each kind,
# rank-2 echelon bases with Fraction entries among them
RESULT_RECORDS = {
    ((1, 1, 1, 0), (0, 0, 1, 1)): {
        "kind": "S2xS2_PRODUCT", "trailing_s3": 0, "rank_d3": 2, "epsilon": 1,
        "pencil": [["1", "1", "0"], ["0", "0", "1"]], "violations": [],
    },
    ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)): {
        "kind": "S2xS2_PRODUCT", "trailing_s3": 1, "rank_d3": 2,
        "pencil": [["1", "0", "1"], ["0", "1", "0"]], "violations": [],
    },
    ((2, 1, 1, 0), (-1, 1, -1, 1), (1, -2, 1, -2)): {
        "kind": "S2xS2_PRODUCT", "trailing_s3": 1, "rank_d3": 2, "epsilon": 1,
        "pencil": [["1", "0", "-1/3"], ["0", "1", "2/3"]], "violations": [],
    },
    ((-1, -1, 1, 0), (2, 0, -1, 1), (0, 1, 0, -2)): {
        "kind": "CP2_CONNSUM_PRODUCT", "trailing_s3": 1, "rank_d3": 2, "epsilon": -1,
        "pencil": [["1", "0", "-1/2"], ["0", "1", "-1/2"]], "violations": [],
    },
    ((1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1), (1, 0, 0, 1)): {
        "kind": "T1_S2xS2_PRODUCT", "trailing_s3": 1, "rank_d3": 3,
        "pencil": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "violations": [],
    },
}


def test_campaigns_build_no_result_objects(monkeypatch):
    # campaigns tally the classifier's (kind, epsilon); only
    # classify_t2_quotient builds a ClassificationResult, for its record
    grids = [GridSpec(2, 1), GridSpec(3, 1, mode="random", count=2000, seed=41)]
    expected = [run_t2_campaign(grid, jobs=1).comparable() for grid in grids]

    def forbidden(*args):
        raise AssertionError("a campaign built a ClassificationResult")

    monkeypatch.setattr(classify, "ClassificationResult", forbidden)
    assert [run_t2_campaign(grid, jobs=1).comparable() for grid in grids] == expected
    monkeypatch.undo()
    for rows, record in RESULT_RECORDS.items():
        assert classify_t2_quotient(TorusActionS3(rows)).to_record() == record


def test_classify_and_record_scan_the_pencil_once(monkeypatch):
    # the record's echelon basis is read off the state the verdict was
    # decided from, not from a second scan of the forms
    scans = _count_calls(monkeypatch, classify, "_pencil")
    for rows, record in RESULT_RECORDS.items():
        scans.clear()
        assert classify_t2_quotient(TorusActionS3(rows)).to_record() == record
        assert len(scans) == 1


def test_campaigns_build_no_fraction(monkeypatch):
    # lemma 6.4 and the unimodular complement run on ints: a campaign that
    # built a Fraction would hit the stand-in and abort
    grids = [GridSpec(2, 1), GridSpec(3, 1, mode="random", count=2000, seed=41)]
    expected = [run_t2_campaign(grid, jobs=1).comparable() for grid in grids]
    assert expected[1]["totals"]["free"] > 0

    class NoFraction:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a campaign built a Fraction")

    monkeypatch.setattr(classify, "Fraction", NoFraction)
    monkeypatch.setattr(exact, "Fraction", NoFraction)
    assert [run_t2_campaign(grid, jobs=1).comparable() for grid in grids] == expected


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(rows, *state):
        calls.append(rows)
        return original(rows, *state)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_campaign_filters_each_action_once(monkeypatch):
    # the scanner's filter is the only precondition test; the one call per
    # rank-2 action seen here is normalization's postcondition, and a rank-3
    # action never reaches normalization
    free_calls = _count_calls(monkeypatch, actions, "_free_rows")
    effective_calls = _count_calls(monkeypatch, actions, "_effective_rows")
    for grid in (GridSpec(2, 1), GridSpec(3, 1, mode="random", count=2000, seed=41)):
        free_calls.clear()
        effective_calls.clear()
        totals = run_t2_campaign(grid, jobs=1).totals
        rank2 = totals["free"] - totals["kinds"]["T1_S2xS2_PRODUCT"]
        assert rank2 > 0 and totals["violations"] == 0
        assert len(free_calls) == len(effective_calls) == rank2
    assert totals["kinds"]["T1_S2xS2_PRODUCT"] > 0


# -- fault injection on the invariant method and the proof path ------------------------
#
# Each fake corrupts one row (or one form) of a step inside normalization or
# the proof path, or the relation pencil the invariant method reads.  The
# re-checks must turn that into a ClassificationViolation: recorded as a
# witness by a campaign, exit 2 from the CLI.

FAULT_ROWS = ((1, 1, 1, 0), (0, 0, 1, 1))  # free, rank 2, k1 != 0 before normalizing
_transform_rows = actions._transform_rows
_pulled_back = actions.pulled_back
_square_of_linear = classify._square_of_linear


def _shift_first_pair(rows, m, n, r, s):
    out = list(_transform_rows(rows, m, n, r, s))
    a, b, k, l = out[0]
    out[0] = (a, b, k + 1, l)
    return tuple(out)


def _double_second_row(rows, m, n, r, s):
    out = list(_transform_rows(rows, m, n, r, s))
    out[1] = tuple(2 * v for v in out[1])  # every minor of two factors doubles
    return tuple(out)


def _bump_pulled_back(form, p, q, r, s):
    A, B, C = _pulled_back(form, p, q, r, s)
    return (A + 1, B, C)


def _bump_middle_of_square(p, q):
    A, B, C = _square_of_linear(p, q)
    return (A, B + 1, C)


FAULTS = {  # module, name, fake, message, stage
    "reparametrized first pair": (
        actions, "_transform_rows", _shift_first_pair, "reparametrization took", "normalization"
    ),
    "freeness postcondition": (
        actions,
        "_transform_rows",
        _double_second_row,
        "destroyed effectiveness/freeness",
        "normalization",
    ),
    "pencil postcondition": (
        actions, "pulled_back", _bump_pulled_back, "broke the differential pencil", "normalization"
    ),
    "unit first pair": (
        classify, "_reduced_first_pair", lambda rows: (2, 0), "is not a unit vector", "proof_path"
    ),
    "pencil rank": (  # a fake _pencil takes the folded state too
        classify,
        "_pencil",
        lambda forms, *state: (1, None, None),
        "relation pencil has rank",
        "invariant",
    ),
    "degenerate square map": (
        classify,
        "_pencil",
        lambda forms, *state: (2, None, (1, 1, 1)),
        "is degenerate",
        "invariant",
    ),
    "square class": (  # discriminant 8: neither a square nor minus one
        classify,
        "_pencil",
        lambda forms, *state: (2, None, (1, 0, -2)),
        "outside both admissible square classes",
        "invariant",
    ),
    "lemma 6.4 re-expansion": (  # FAULT_ROWS take the epsilon = +1 rewrite
        classify,
        "_square_of_linear",
        _bump_middle_of_square,
        "failed to reduce the pencil to squares",
        "substitution",
    ),
    "epsilon sign": (  # every determinant product comes out 0
        classify, "det2", lambda a, b, c, d: 0, "is not a sign", "epsilon"
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_proof_path_faults_are_violations(fault, monkeypatch, tmp_path, capsys):
    module, name, fake, message, stage = FAULTS[fault]
    original = getattr(module, name)
    for holder in (actions, classify, harness):  # the fake replaces every copy
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, fake)

    report = run_t2_campaign(GridSpec(2, 1), jobs=1)
    totals = report.totals
    assert totals["violations"] > 0
    assert totals["free"] == totals["violations"] + sum(totals["kinds"].values())
    assert all(message in w["error"] for w in report.violation_witnesses)
    assert [list(r) for r in FAULT_ROWS] in [w["rows"] for w in report.violation_witnesses]

    with pytest.raises(ClassificationViolation) as raised:
        classify_t2_quotient(TorusActionS3(FAULT_ROWS))
    assert message in str(raised.value)
    assert (raised.value.stage, raised.value.witness) == (stage, FAULT_ROWS)

    path = tmp_path / "action.json"
    path.write_text(format_action(TorusActionS3(FAULT_ROWS)))
    assert cli_main(["classify", str(path)]) == 2
    record = json.loads(capsys.readouterr().out)
    assert message in record["violations"][0]
    assert record["witness"] == [list(r) for r in FAULT_ROWS]


def test_no_bare_assert_in_package():
    # assert vanishes under python -O; certified-impossible states raise instead
    package = Path(harness.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_every_violation_names_its_stage():
    # campaigns and the CLI tell failures apart by ClassificationViolation.stage
    package = Path(harness.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "ClassificationViolation"
        and "stage" not in {keyword.arg for keyword in node.exc.keywords}
    ]
    assert offenders == []


def test_no_unused_imports():
    # an import nothing reads is left behind by deleted code; the package's
    # __init__ is exempt, its imports are re-exports
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "torquot").glob("*.py"))
    paths = [p for p in package if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        # a dotted use a.b.c has the Name a at its root
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert offenders == []


def test_import_does_not_load_multiprocessing():
    # the process pool is imported only when a campaign runs with jobs > 1
    code = "import sys, torquot; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_bad_unimodular_complement_is_violation(monkeypatch, tmp_path, capsys):
    # a NaN "inverse" fails m*s - n*r == 1 for every pair, m = +-1 included,
    # where every integer is an inverse mod |m|
    monkeypatch.setattr(exact, "pow", lambda *args: math.nan, raising=False)
    with pytest.raises(ClassificationViolation) as raised:
        exact.unimodular_complement(1, 1)
    assert raised.value.stage == "complement"
    report = run_t2_campaign(GridSpec(2, 1), jobs=1)
    assert report.totals["violations"] > 0
    assert all("unimodular complement" in w["error"] for w in report.violation_witnesses)

    path = tmp_path / "action.json"
    path.write_text(format_action(TorusActionS3(FAULT_ROWS)))
    assert cli_main(["normalize", str(path)]) == 2
    record = json.loads(capsys.readouterr().out)
    assert "unimodular complement" in record["violations"][0]
    assert record["witness"] == [1, 1]


def test_epsilon_related_comes_from_the_stage(monkeypatch):
    # a lemma 6.4 fault whose message mentions epsilon is not an epsilon fault
    def fake_lemma64(d1, d2):
        raise ClassificationViolation("rewrite after epsilon fails (forced)")

    monkeypatch.setattr(classify, "lemma64_substitution", fake_lemma64)
    report = run_t2_campaign(GridSpec(2, 1), jobs=1)
    assert report.totals["violations"] > 0
    assert not any(w["epsilon_related"] for w in report.violation_witnesses)
    assert report.epsilon_checks["failures"] == 0
    assert set(report.violation_witnesses[0]) == {"rows", "error", "epsilon_related"}

    # a genuine epsilon fault: every determinant product comes out 0
    monkeypatch.undo()
    monkeypatch.setattr(classify, "det2", lambda a, b, c, d: 0)
    report = run_t2_campaign(GridSpec(2, 1), jobs=1)
    assert report.totals["violations"] > 0
    assert all(w["epsilon_related"] for w in report.violation_witnesses)
    assert report.epsilon_checks["failures"] == report.totals["violations"]
