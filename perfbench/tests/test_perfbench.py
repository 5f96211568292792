"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
tq = run.load_program(ROOT)
CLASSES = dict(W.WORKLOADS)  # run.WORKLOADS is patched with small versions below


def _tiny_grid_totals():
    rows = itertools.product(itertools.product((-1, 0, 1), repeat=4), repeat=2)
    return ref.tally(rows)


def tiny(name, **kwargs):
    """A factory for a small version of a workload, for run.main."""
    cls = CLASSES[name]
    overrides = {
        "grid-n3b1": dict(n_factors=2, bound=1, expected=_tiny_grid_totals(), expected_epsilon=None),
        "sample-n4b3": dict(shape=(4, 3, 200)),
        "betti-oracle": dict(pool_rounds=2),
        "wide-queries": dict(n_range=range(4, 7), pool_rounds=1),
    }[name]
    overrides.update(kwargs)

    def make(tq, seed, workdir):
        wl = cls(tq, seed, workdir, **overrides)
        wl.min_calls = 2
        wl.trace_rounds = 1
        return wl

    return make


def run_tiny(monkeypatch, capsys, name, trace, seed=7, argv=(), **kwargs):
    monkeypatch.setitem(run.WORKLOADS, name, tiny(name, **kwargs))
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace), *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(CLASSES))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(monkeypatch, capsys, name, trace):
    code, report, result = run_tiny(monkeypatch, capsys, name, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0
    assert report["fail_ratio"] == 0
    for key in ("seed", "git_rev", "python", "nproc", "cpu_model"):
        assert key in report
    if trace:
        assert report["missing_trace_targets"] == []
    else:
        for alias in CLASSES[name].aliases.values():
            assert report[alias] > 0


def test_traced_counts_repeat_exactly(monkeypatch, capsys):
    counts = []
    for _ in range(2):
        _, _, result = run_tiny(monkeypatch, capsys, "wide-queries", 1)
        counts.append({
            k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and k != "trace.overhead_ratio"
        })
    assert counts[0] == counts[1]
    assert counts[0]["classify.branch.rank3"] > 0
    assert counts[0]["classify.branch.eps_minus"] > 0


def test_spans_file_has_one_line_per_span(monkeypatch, capsys, tmp_path):
    path = tmp_path / "spans.csv"
    _, _, result = run_tiny(monkeypatch, capsys, "betti-oracle", 1, argv=["--spans", str(path)])
    lines = path.read_text().splitlines()
    assert lines[0] == "name,caller,start_s,end_s,parent"
    assert len(lines) - 1 == result["metrics"]["trace.spans"]["value"]
    assert any(line.startswith("exact.rank_int_rows,cdga,") for line in lines)


def test_tracer_restores_every_binding():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("torquot")}
    tracer = spans.Tracer()
    tracer.install()
    assert tq.actions.is_free is not before["torquot.actions"]["is_free"]
    assert tq.classify.is_free is not before["torquot.classify"]["is_free"]
    tracer.uninstall()
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name.startswith("torquot")}
    assert after == before


@pytest.mark.parametrize("name, corrupt", [
    ("grid-n3b1", {"expected": {**_tiny_grid_totals(), "free": 0}}),
    ("sample-n4b3", {"frozen": lambda shape, seed: {**ref.sample_totals(*shape, seed), "effective": 0}}),
])
def test_corrupted_campaign_reference_fails(monkeypatch, capsys, name, corrupt):
    code, report, result = run_tiny(monkeypatch, capsys, name, 0, **corrupt)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert report["fail_ratio"] > 0


def test_corrupted_betti_reference_fails(monkeypatch, capsys):
    monkeypatch.setattr(ref, "quotient_betti", lambda kind, n: [1] + [0] * (3 * n - 2))
    code, _, result = run_tiny(monkeypatch, capsys, "betti-oracle", 0)
    assert code != 0 and result["failed"] == result["attempted"]


def test_wrong_cli_answer_fails(monkeypatch, capsys):
    monkeypatch.setattr(W, "check_normalized", lambda rows, record: False)
    code, _, result = run_tiny(monkeypatch, capsys, "wide-queries", 0)
    assert code != 0 and result["failed"] > 0


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_tail_percentile_keeps_ten_calls_beyond(name):
    min_calls = CLASSES[name].min_calls
    p = run.tail_percentile(min_calls)
    if min_calls <= run.TAIL_BEYOND:
        assert p is None  # too few calls for a percentile: the tail is the maximum
        return
    latencies = [random.Random(i).random() for i in range(min_calls)]
    cut = run.percentile(latencies, p)
    assert sum(x > cut for x in latencies) >= run.TAIL_BEYOND


def test_benchmark_json_matches_contract():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(CLASSES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_without_program_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "betti-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the references against the program -------------------------------------------


def test_reference_agrees_with_program_on_random_actions():
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.choice((2, 3, 4, 5))
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(n))
        act = tq.TorusActionS3(rows)
        assert ref.is_effective(rows) == tq.is_effective(act)
        assert ref.is_free(rows) == tq.is_free(act)
        if ref.is_effective(rows) and ref.is_free(rows):
            assert ref.kind_of(rows) == tq.classify_t2_quotient(act).kind


def test_frozen_sample_totals_match_reference():
    shape = (4, 3, 500)
    for seed in (0, 17, 63):
        assert ref.frozen_sample_totals(shape, seed) == ref.sample_totals(*shape, seed)
    assert ref.frozen_sample_totals(shape, 64) is None
    assert ref.frozen_sample_totals((4, 3, 200), 0) is None


def test_sample_rows_match_program_sampler():
    report = tq.run_t2_campaign(tq.GridSpec(4, 3, mode="random", count=300, seed=5))
    assert report.totals == ref.sample_totals(4, 3, 300, 5)


@pytest.mark.parametrize("n", [3, 4])
def test_quotient_betti_matches_canonical_models(n):
    for kind in ref.KINDS:
        canonical = tq.canonical_quotient_model(kind, n).betti_numbers(3 * n - 2)
        assert ref.quotient_betti(kind, n) == canonical


def test_constructed_actions_have_their_type():
    rng = random.Random(3)
    for n in (3, 5, 8):
        for kind in ref.KINDS:
            rows = W.make_action(rng, n, kind, bound=3)
            assert tq.classify_t2_quotient(tq.TorusActionS3(rows)).kind == kind
