"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The two grid campaigns are computed once per session and shared;
the exhaustive one is driven through the CLI surface the criteria name.
"""

import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from torquot import (
    FreenessViolation,
    TorusActionS3,
    classify_s1_quotient,
    classify_t2_quotient,
    enumerate_profiles,
    is_effective,
    is_free,
    is_free_circle,
    max_almost_free_rank,
    max_effective_rank,
    slice_invariants,
    square_class_isomorphic,
)
from torquot.actions import CircleActionSpheres, _free_rows, circle_euler_data
from torquot.classify import canonical_quotient_model, quotient_model
from torquot.cli import cli_main
from torquot.harness import GridSpec, run_t2_campaign

from conftest import build_d_alpha_model, comparable, quotient_square_form

EXHAUSTIVE_GRID = GridSpec(3, 1)
RANDOM_GRID = GridSpec(4, 3, mode="random", count=100_000, seed=42)

# frozen after the first verified exhaustive run (B=1, N=3)
FROZEN_T2_TOTALS = {
    "tested": 531_441,
    "effective": 529_984,
    "free": 157_152,
    "violations": 0,
    "kinds": {
        "S2xS2_PRODUCT": 46_944,
        "CP2_CONNSUM_PRODUCT": 9_600,
        "T1_S2xS2_PRODUCT": 100_608,
    },
}


# criterion 2's sample (RANDOM_GRID), read before the bulk-word draw replaced
# one randint call per slot: the draw must reproduce the same tuples
FROZEN_RANDOM_TOTALS = {
    "tested": 100_000,
    "effective": 99_553,
    "free": 18_597,
    "violations": 0,
    "kinds": {
        "S2xS2_PRODUCT": 12,
        "CP2_CONNSUM_PRODUCT": 2,
        "T1_S2xS2_PRODUCT": 18_583,
    },
}
FROZEN_RANDOM_EPSILON_CHECKS = {"checked": 6, "failures": 0}


def _criterion(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_cli_record(argv) -> tuple[int, dict, float]:
    """Drive the real CLI surface and parse its single JSON record."""
    buffer = io.StringIO()
    start = time.monotonic()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    elapsed = time.monotonic() - start
    return code, json.loads(buffer.getvalue()), elapsed


@pytest.fixture(scope="session")
def exhaustive_cli():
    # the exhaustive verification as the criteria name it: one CLI call,
    # single-threaded
    return _run_cli_record(
        ["verify-t2", "--factors", "3", "--bound", "1", "--jobs", "1"]
    )


@pytest.fixture(scope="session")
def random_report():
    start = time.monotonic()
    report = run_t2_campaign(RANDOM_GRID, jobs=1)
    report.single_thread_time = time.monotonic() - start
    return report


def test_criterion_1_exhaustive_t2(exhaustive_cli):
    code, record, elapsed = exhaustive_cli
    totals = record["totals"]
    ok = (
        code == 0
        and totals == FROZEN_T2_TOTALS
        and totals["violations"] == 0
        and all(v > 0 for v in totals["kinds"].values())
        and totals["free"] == sum(totals["kinds"].values())
        and elapsed <= 300.0
    )
    _criterion(
        1,
        ok,
        f"verify-t2 --factors 3 --bound 1: exit {code}, 531441 tuples, "
        f"{totals['free']} free, kinds {totals['kinds']}, 0 violations, "
        f"{elapsed:.1f}s single-threaded (limit 300s)",
    )


def test_criterion_2_sampled_t2(random_report):
    totals = random_report.totals
    ok = (
        totals["tested"] == 100_000
        and totals["violations"] == 0
        and totals == FROZEN_RANDOM_TOTALS
        and random_report.epsilon_checks == FROZEN_RANDOM_EPSILON_CHECKS
        and random_report.single_thread_time <= 120.0
    )
    _criterion(
        2,
        ok,
        f"1e5 seeded tuples at N=4, B=3: {totals['free']} free, 0 violations, "
        f"{random_report.single_thread_time:.1f}s (limit 120s)",
    )


def test_criterion_3_epsilon_identity(exhaustive_cli, random_report):
    _, record, _ = exhaustive_cli
    checks = [record["epsilon_checks"], random_report.epsilon_checks]
    checked = sum(c["checked"] for c in checks)
    failures = sum(c["failures"] for c in checks)
    ok = checked > 0 and failures == 0
    _criterion(
        3,
        ok,
        f"epsilon identity verified on {checked} rank-2 instances with l1 != 0, "
        f"{failures} failures",
    )


def test_branch_census_exhaustive(exhaustive_cli):
    # proof-path branches of the N=3, B=1 grid, read off the report: rank 3
    # is the T1 kind, epsilon = -1 the CP2 kind, epsilon = +1 the other
    # epsilon checks, and l1 = 0 the rest of the S2xS2 kind
    _, record, _ = exhaustive_cli
    kinds, checked = record["totals"]["kinds"], record["epsilon_checks"]["checked"]
    eps_plus = checked - kinds["CP2_CONNSUM_PRODUCT"]
    census = (
        kinds["T1_S2xS2_PRODUCT"],
        kinds["S2xS2_PRODUCT"] - eps_plus,
        eps_plus,
        kinds["CP2_CONNSUM_PRODUCT"],
    )
    assert census == (100_608, 31_040, 15_904, 9_600)


def _stratified_actions(quota_per_kind: dict) -> list:
    """Deterministic scan of the B=1 grid until each kind's quota is filled."""
    vals = (-1, 0, 1)
    collected = {kind: [] for kind in quota_per_kind}
    for rows in itertools.product(itertools.product(vals, repeat=4), repeat=3):
        act = TorusActionS3(rows)
        if not (is_effective(act) and is_free(act)):
            continue
        result = classify_t2_quotient(act)
        bucket = collected[result.kind]
        if len(bucket) < quota_per_kind[result.kind]:
            bucket.append((act, result))
            if all(
                len(collected[k]) >= quota_per_kind[k] for k in quota_per_kind
            ):
                break
    return [pair for bucket in collected.values() for pair in bucket]


def test_criterion_4_betti_oracle_agreement():
    quotas = {
        "S2xS2_PRODUCT": 334,
        "CP2_CONNSUM_PRODUCT": 333,
        "T1_S2xS2_PRODUCT": 333,
    }
    pairs = _stratified_actions(quotas)
    assert len(pairs) == 1000
    canonical_betti = {
        kind: canonical_quotient_model(kind, 3).betti_numbers(7) for kind in quotas
    }
    canonical_isotropy = {
        "S2xS2_PRODUCT": "isotropic",
        "CP2_CONNSUM_PRODUCT": "anisotropic",
    }
    mismatches = 0
    for act, result in pairs:
        betti = quotient_model(act).betti_numbers(7)
        if betti != canonical_betti[result.kind]:
            mismatches += 1
        elif betti != betti[::-1]:  # Poincare duality
            mismatches += 1
        elif result.rank_d3 == 2:
            q = quotient_square_form(result.pencil)
            if q.isotropy() != canonical_isotropy[result.kind]:
                mismatches += 1
    _criterion(
        4,
        mismatches == 0,
        "1000 stratified actions: quotient Betti numbers match the canonical "
        f"model degree-by-degree with Poincare duality, {mismatches} mismatches",
    )


def test_criterion_4b_betti_oracle_on_every_15th_free_action():
    # every 15th free action of the N=3, B=1 grid in odometer order, checked
    # the same way as criterion 4
    vals = (-1, 0, 1)
    canonical_betti = {
        kind: canonical_quotient_model(kind, 3).betti_numbers(7)
        for kind in FROZEN_T2_TOTALS["kinds"]
    }
    canonical_isotropy = {
        "S2xS2_PRODUCT": "isotropic",
        "CP2_CONNSUM_PRODUCT": "anisotropic",
    }
    counts = {kind: 0 for kind in canonical_betti}
    free_seen = 0
    mismatches = 0
    for rows in itertools.product(itertools.product(vals, repeat=4), repeat=3):
        # the freeness test on the raw rows first: it rejects 70% of the grid
        if not (_free_rows(rows) and is_effective(TorusActionS3(rows))):
            continue
        free_seen += 1
        if (free_seen - 1) % 15:
            continue
        act = TorusActionS3(rows)
        result = classify_t2_quotient(act)
        counts[result.kind] += 1
        betti = quotient_model(act).betti_numbers(7)
        if betti != canonical_betti[result.kind] or betti != betti[::-1]:
            mismatches += 1
        elif result.rank_d3 == 2:
            q = quotient_square_form(result.pencil)
            if q.isotropy() != canonical_isotropy[result.kind]:
                mismatches += 1
    checked = sum(counts.values())
    _criterion(
        "4b",
        free_seen == FROZEN_T2_TOTALS["free"] and checked == 10_477 and mismatches == 0,
        f"every 15th of {free_seen} free N=3, B=1 actions: {checked} checked "
        f"against the canonical Betti numbers, Poincare duality and isotropy, "
        f"kinds {counts}, {mismatches} mismatches",
    )


def test_criterion_5_profile_reproduction():
    code, record, elapsed = _run_cli_record(["verify-profiles", "--n-max", "30"])
    start = time.monotonic()
    row_counts = {
        n: len(enumerate_profiles(n, max_effective_rank(n), "effective_max"))
        for n in (10, 13, 16)
    }
    elapsed += time.monotonic() - start
    ok = (
        code == 0
        and record["totals"]["violations"] == 0
        and row_counts == {10: 5, 13: 5, 16: 5}
        and elapsed <= 10.0
    )
    _criterion(
        5,
        ok,
        f"verify-profiles --n-max 30: exit {code}, 0 mismatches; effective-max "
        f"rows {row_counts}; {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_6_circle_dichotomy():
    kinds = set()
    tested = 0
    for lams in itertools.product(range(-2, 3), repeat=3):
        for alpha in range(-2, 3):
            if not any(lams) and alpha == 0:
                with pytest.raises(FreenessViolation):
                    classify_s1_quotient(lams, alpha)
                continue
            kinds.add(classify_s1_quotient(lams, alpha))
            tested += 1
    ok = kinds == {"S2xS5_PRODUCT", "CP2_PRODUCT"}

    free_configs = 0
    for weights in itertools.product(range(-2, 3), repeat=7):
        act = CircleActionSpheres(
            ((5, weights[:3]), (3, weights[3:5]), (3, weights[5:7]))
        )
        if not is_free_circle(act):
            continue
        free_configs += 1
        lambdas, alphas = circle_euler_data(act)
        classify_s1_quotient(lambdas, alphas[0])  # must not raise
    ok = ok and free_configs > 0
    _criterion(
        6,
        ok,
        f"{tested} (lambda, alpha) grid points split into exactly two kinds; "
        f"{free_configs} free S^5 x S^3 x S^3 weight configurations all classify",
    )


def test_criterion_7_square_class_family():
    primes = [2, 3, 5, 7, 11]
    values = primes + [p * q for p, q in itertools.combinations(primes, 2)]
    for a, b in itertools.combinations(values, 2):
        assert not square_class_isomorphic(a, b), (a, b)
    models = [build_d_alpha_model(v, 0) for v in values]
    bettis = {tuple(m.betti_numbers(4)) for m in models}
    ok = len(values) >= 10 and bettis == {(1, 0, 2, 0, 1)}
    _criterion(
        7,
        ok,
        f"{len(values)} pairwise non-equivalent square classes give "
        f"{len(values)} distinct dimension-4 models with common Betti "
        f"numbers {sorted(bettis)[0]}",
    )


def test_criterion_8_rank_bound_arithmetic():
    start = time.monotonic()
    for n in range(3, 101):
        k = max_effective_rank(n)
        assert 3 * k <= 2 * n < 3 * (k + 1)  # floor characterization
        af, attainable = max_almost_free_rank(n)
        assert 3 * af <= n < 3 * (af + 1)
        assert attainable == (n % 3 != 1)
        k2, s, sub = slice_invariants(n)
        a = 2 * n - 3 * k2
        assert k2 == k and a in (0, 1, 2)
        assert k2 == 2 * s - a and n == 3 * s - a and sub == s - a
    # attainability cross-check against the profile enumerator
    for n in range(3, 31):
        nonempty = bool(enumerate_profiles(n, n // 3 or 1, "almost_free"))
        assert nonempty == (n % 3 != 1), n
    assert max_effective_rank(6) == 4
    assert slice_invariants(10) == (6, 4, 2)
    elapsed = time.monotonic() - start
    _criterion(
        8,
        elapsed < 1.0,
        f"rank bounds, attainability and slice identities hold for 3 <= n <= 100 "
        f"in {elapsed:.3f}s (limit 1s)",
    )


def test_criterion_9_worker_determinism(exhaustive_cli):
    _, record1, _ = exhaustive_cli
    comparable1 = {k: v for k, v in record1.items() if k != "wall_time"}
    t4 = time.monotonic()
    report4 = run_t2_campaign(EXHAUSTIVE_GRID, jobs=4)
    t4 = time.monotonic() - t4
    t8 = time.monotonic()
    report8 = run_t2_campaign(EXHAUSTIVE_GRID, jobs=8)
    t8 = time.monotonic() - t8
    # the CLI record is the jobs=1 report after a JSON round trip
    identical = (
        comparable1
        == json.loads(json.dumps(comparable(report4)))
        == json.loads(json.dumps(comparable(report8)))
    )
    detail = (
        f"reports identical for 1/4/8 workers; 4 workers {t4:.1f}s, "
        f"8 workers {t8:.1f}s on {os.cpu_count()} CPUs"
    )
    ok = identical
    if (os.cpu_count() or 1) >= 8:
        ok = ok and t8 <= 60.0
        detail += " (8-worker limit 60s applied)"
    _criterion(9, ok, detail)


def _run_verification(*args):
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = root / "scripts" / "run_verification.py"
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, env=env, timeout=300
    )


def test_run_verification_script_smoke():
    # the desk-scale sweep end to end, its campaigns through a two-worker pool
    proc = _run_verification("--sample-count", "1000", "--n-max", "6", "--jobs", "2")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["campaign"] for r in records] == ["t2-exhaustive", "t2-random", "profiles"]
    assert all(r["totals"]["violations"] == 0 and r["violation_witnesses"] == [] for r in records)
    assert records[0]["totals"] == FROZEN_T2_TOTALS
    assert records[1]["totals"]["tested"] == 1000


def test_run_verification_script_refuses_bad_preconditions():
    # an exhaustive grid above the mask bound: exit 1 and an error line, no
    # traceback and no record, as the CLI does
    proc = _run_verification("--bound", "5")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
