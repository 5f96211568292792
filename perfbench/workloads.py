"""The four workloads.

Each workload does its set-up in its constructor and then serves rounds: a
round is a list of calls into torquot, and a call is one campaign, one model
solved and checked, or one CLI query.  A round's calls are timed one by
one; checking the outputs of a campaign or a CLI call against the reference
happens after the call's timer stops.  Rounds are balanced (every stratum of
the workload once), so a run made of whole rounds has the same mix on every
seed.

All program calls go through the ``torquot`` package namespace at call
time, so a tracer that rebinds those names sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass

import reference as ref
from clock import cpu_seconds


@dataclass
class Call:
    start: float  # CPU clock (clock.cpu_seconds) at the call's start and end
    end: float
    wall: float
    items: int
    failed: int
    seconds: float = 0.0  # calibrated CPU time, set by the runner (see clock.py)

    @property
    def cpu(self) -> float:
        return self.end - self.start


def _timed(fn):
    """Run fn(); return (result, CPU clock at start and end, wall s); result None if fn raised."""
    start, wall = cpu_seconds(), time.perf_counter()
    try:
        result = fn()
    except Exception:  # one failed call must not end the run; it counts as failed
        traceback.print_exc()
        result = None
    wall = time.perf_counter() - wall
    return result, start, cpu_seconds(), wall


def campaign_mismatch(totals: dict, expected: dict) -> int:
    """Items a campaign got wrong: its violations plus every count off the reference."""
    wrong = totals.get("violations", 0)
    for key in ("tested", "effective", "free"):
        wrong += abs(totals.get(key, 0) - expected[key])
    for kind, count in expected["kinds"].items():
        wrong += abs(totals.get("kinds", {}).get(kind, 0) - count)
    return wrong


# -- grid-n3b1 --------------------------------------------------------------------


class GridCampaign:
    """The exhaustive N=3, B=1 grid: one run_t2_campaign call per round."""

    name = "grid-n3b1"
    aliases = {"items_per_s": "tuples_per_s"}
    min_calls = 1
    trace_rounds = 1

    def __init__(self, tq, seed, workdir, n_factors=3, bound=1,
                 expected=ref.FROZEN_T2_TOTALS,
                 expected_epsilon=ref.FROZEN_T2_EPSILON_CHECKED):
        self.tq = tq
        self.grid = tq.GridSpec(n_factors, bound)
        self.expected = expected
        self.expected_epsilon = expected_epsilon

    def round(self, i: int) -> list[Call]:
        tested = self.grid.tuple_count
        report, start, end, wall = _timed(lambda: self.tq.run_t2_campaign(self.grid, jobs=1))
        if report is None:
            return [Call(start, end, wall, tested, tested)]
        wrong = campaign_mismatch(report.totals, self.expected)
        if self.expected_epsilon is not None:
            checks = report.epsilon_checks
            wrong += abs(checks["checked"] - self.expected_epsilon) + checks["failures"]
        return [Call(start, end, wall, report.totals["tested"], min(wrong, tested))]


# -- sample-n4b3 ------------------------------------------------------------------


class SampleCampaign:
    """Seeded random campaigns of `count` tuples on the N=4, B=3 grid, one per round.

    `shape` is (n_factors, bound, count).  The first campaign uses the run's
    seed itself; later ones draw 64-bit seeds from it.  Every campaign is
    checked against reference.sample_totals and, where the seed has them,
    against totals frozen from the seed commit.
    """

    name = "sample-n4b3"
    aliases = {"items_per_s": "tuples_per_s"}
    min_calls = 100
    trace_rounds = 20

    def __init__(self, tq, seed, workdir, shape=(4, 3, 500), frozen=ref.frozen_sample_totals):
        self.tq = tq
        self.shape = shape
        self.frozen = frozen
        self._seed_rng = random.Random(seed)
        self._seeds = [seed]
        self._expected = {}

    def campaign_seed(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._seed_rng.getrandbits(64))
        return self._seeds[i]

    def expected(self, seed: int) -> dict:
        if seed not in self._expected:
            self._expected[seed] = ref.sample_totals(*self.shape, seed)
        return self._expected[seed]

    def round(self, i: int) -> list[Call]:
        n_factors, bound, count = self.shape
        seed = self.campaign_seed(i)
        grid = self.tq.GridSpec(n_factors, bound, mode="random", count=count, seed=seed)
        report, start, end, wall = _timed(lambda: self.tq.run_t2_campaign(grid, jobs=1))
        if report is None:
            return [Call(start, end, wall, count, count)]
        wrong = campaign_mismatch(report.totals, self.expected(seed))
        frozen = self.frozen(self.shape, seed) if i == 0 else None
        if frozen is not None:
            wrong += campaign_mismatch(report.totals, frozen)
        return [Call(start, end, wall, report.totals["tested"], min(wrong, count))]


# -- constructed actions of known type --------------------------------------------

# Base rows of each type: free and effective on their own, so every action
# extending them is too.  The first two rows of each already span Z^2 in
# every selection.
_BASE = {
    ref.S2XS2: ((1, 1, 0, 0), (0, 0, 1, 1)),
    ref.CP2: ((1, 0, 0, 1), (1, 1, 1, -1)),
    ref.T1: ((1, 1, 0, 0), (0, 0, 1, 1)),
}


def _extra_row(rng: random.Random, kind: str, bound: int, first: bool):
    """A factor whose form stays in the base pencil (rank 2) or leaves it (T1, first extra)."""
    while True:
        t, u = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if kind == ref.S2XS2:
            row = rng.choice(((t, t, u, -u), (t, -t, u, u), (t, u, 0, 0), (0, 0, t, u)))
        elif kind == ref.CP2:
            row = rng.choice(((t, u, u, -t), (t, u, -u, t)))
        else:
            row = tuple(rng.randint(-bound, bound) for _ in range(4))
            a, b, k, l = row
            if first and a * l + b * k == 0:
                continue
        a, b, k, l = row
        if (a, k) != (b, l):  # two distinct exponent pairs: a fixed 2^N freeness cost
            return row


def _unimodular(rng: random.Random, steps: int = 3):
    """Random determinant-1 matrix (m, n, r, s) from shears."""
    m, n, r, s = 1, 0, 0, 1
    for _ in range(steps):
        t = rng.randint(-2, 2)
        if rng.random() < 0.5:
            m, n = m + t * r, n + t * s
        else:
            r, s = r + t * m, s + t * n
    return m, n, r, s


def transform_rows(rows, m, n, r, s):
    """Exponents after reparametrizing the torus by [[m, n], [r, s]] (see torquot.actions)."""
    return tuple(
        (a * s - k * r, b * s - l * r, -a * n + k * m, -b * n + l * m)
        for a, b, k, l in rows
    )


def make_action(rng: random.Random, n_factors: int, kind: str, bound: int):
    """Rows of a free, effective N-factor action whose quotient has type `kind`.

    Base rows of the type, extra factors inside (rank 2) or outside (T1) its
    pencil, a random torus reparametrization and a random swap of the two
    exponent pairs in each factor, none of which changes freeness or type.
    """
    base = _BASE[kind]
    rows = list(base)
    rows += [_extra_row(rng, kind, bound, i == 0) for i in range(n_factors - len(base))]
    rows = transform_rows(rows, *_unimodular(rng))
    rows = tuple((b, a, l, k) if rng.random() < 0.5 else (a, b, k, l) for a, b, k, l in rows)
    if not (ref.is_effective(rows) and ref.is_free(rows) and ref.kind_of(rows) == kind):
        raise RuntimeError(f"constructed action is not a free {kind}: {rows}")
    return rows


# -- betti-oracle -----------------------------------------------------------------


class BettiOracle:
    """Betti numbers of quotient_model(act) up to the top degree, by stratum.

    A round is two N=3 and one N=4 action of each type.  Each model's Betti
    numbers must equal the type's (reference.quotient_betti), satisfy
    Poincare duality, and for rank 2 the quotient square map must have the
    type's isotropy class.  Checking is part of the timed call.
    """

    name = "betti-oracle"
    aliases = {"items_per_s": "models_per_s"}
    min_calls = 450
    trace_rounds = 20
    STRATA = tuple((n, kind) for n, reps in ((3, 2), (4, 1)) for kind in ref.KINDS for _ in range(reps))
    BOUND = 2  # extra factors' entries lie in [-BOUND, BOUND] before reparametrization

    def __init__(self, tq, seed, workdir, pool_rounds=150):
        self.tq = tq
        rng = random.Random(seed)
        self.pool = [
            [(n, kind, make_action(rng, n, kind, self.BOUND)) for n, kind in self.STRATA]
            for _ in range(pool_rounds)
        ]
        self.expected = {(n, kind): ref.quotient_betti(kind, n) for n, kind in self.STRATA}

    def _solve_and_check(self, n, kind, rows) -> bool:
        tq = self.tq
        act = tq.TorusActionS3(rows)
        betti = tq.quotient_model(act).betti_numbers(3 * n - 2)
        ok = betti == self.expected[(n, kind)] and betti == betti[::-1]
        if ok and kind != ref.T1:
            forms = [tuple(int(c) for c in f.coefficients()) for f in tq.differential_rows(act)]
            ok = tq.BinaryQuadraticForm(*ref.square_map(forms)).isotropy() == ref.isotropy_of_kind(kind)
        return ok

    def round(self, i: int) -> list[Call]:
        calls = []
        for n, kind, rows in self.pool[i % len(self.pool)]:
            ok, start, end, wall = _timed(lambda: self._solve_and_check(n, kind, rows))
            calls.append(Call(start, end, wall, 1, 0 if ok else 1))
        return calls


# -- wide-queries -----------------------------------------------------------------


def check_normalized(rows, record) -> bool:
    """The normalize output is the witnessed transform of the input, in reduced form."""
    perm = record["witness"]["permutation"]
    (m, n), (r, s) = record["witness"]["reparam"]
    if sorted(perm) != list(range(len(rows))) or m * s - n * r != 1:
        return False
    got = tuple(tuple(row) for row in record["rows"])
    if got != transform_rows([rows[p] for p in perm], m, n, r, s):
        return False
    (a1, b1, k1, l1), (_, _, k2, l2) = got[0], got[1]
    return a1 != 0 and k1 == 0 and (b1, l1) != (0, 0) and k2 * l2 != 0


class WideQueries:
    """One client calling cli_main on action files with 8..16 factors.

    A round asks, for every N in 8..16 and for two T1 actions, one S2xS2 and
    one CP2#CP2 action (half rank 2), each of classify, free-check and
    normalize: 108 CLI calls.  Set-up builds `pool_rounds` rounds of distinct
    actions; later rounds reuse them.  A round's action files are written the
    first time it runs, outside set-up and outside the timed calls: creating
    a file here took from next to nothing to 0.5 ms of kernel time, depending
    on the file system's state, which swamped the rest of set-up.
    """

    name = "wide-queries"
    aliases = {
        "items_per_s": "queries_per_s",
        "call_p50_ms": "query_p50_ms",
        "call_tail_ms": "query_tail_ms",
    }
    min_calls = 324
    trace_rounds = 1
    COMMANDS = ("classify", "free-check", "normalize")
    KIND_MIX = (ref.T1, ref.T1, ref.S2XS2, ref.CP2)
    BOUND = 3

    def __init__(self, tq, seed, workdir, n_range=range(8, 17), pool_rounds=6):
        self.tq = tq
        self.workdir = workdir
        rng = random.Random(seed)
        self.pool = [
            [
                (workdir / f"r{p}-n{n}-{j}.json", make_action(rng, n, kind, self.BOUND), kind)
                for n in n_range
                for j, kind in enumerate(self.KIND_MIX)
            ]
            for p in range(pool_rounds)
        ]
        self._written = set()

    def _write(self, p: int):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for path, rows, _ in self.pool[p]:
            path.write_text(json.dumps({
                "n_factors": len(rows),
                "rows": [dict(zip("abkl", row)) for row in rows],
            }))
        self._written.add(p)

    def _query(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tq.cli_main(argv)
        return code, out.getvalue()

    @staticmethod
    def _correct(cmd, rows, kind, code, text) -> bool:
        if code != 0:
            return False
        try:
            record = json.loads(text)
            if cmd == "classify":
                return record["kind"] == kind and record["rank_d3"] == (3 if kind == ref.T1 else 2)
            if cmd == "free-check":
                return record == {"n_factors": len(rows), "effective": True, "free": True}
            return check_normalized(rows, record)
        except (ValueError, LookupError, TypeError):  # a malformed record is a wrong answer
            return False

    def round(self, i: int) -> list[Call]:
        p = i % len(self.pool)
        if p not in self._written:
            self._write(p)
        calls = []
        for path, rows, kind in self.pool[p]:
            for cmd in self.COMMANDS:
                result, start, end, wall = _timed(lambda: self._query([cmd, str(path)]))
                ok = result is not None and self._correct(cmd, rows, kind, *result)
                calls.append(Call(start, end, wall, 1, 0 if ok else 1))
        return calls


WORKLOADS = {w.name: w for w in (GridCampaign, SampleCampaign, BettiOracle, WideQueries)}
