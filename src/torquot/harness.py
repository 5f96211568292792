"""Verification campaigns over integer parameter grids.

A campaign iterates a grid of weight tuples (exhaustively, or by seeded
sampling), filters to effective then free actions, classifies every
survivor, and tallies the outcome.  A ClassificationViolation is data, not
an error: it is recorded with a reproducible witness and the campaign keeps
going, because a nonempty witness list is exactly the "theorem falsified"
signal the harness exists to detect.  Up to MASK_BOUND the filter is the
AND of each tuple's row masks (`actions._row_masks`; 0 iff effective and
free), over a drawn chunk a factor's slice at a time and over the odometer a
block of (2B+1)^4 last rows at a time, whose survivors are kept by the AND of
the N-1 leading rows' masks.  A random grid above it walks each tuple.

Determinism contract: the grid is statically partitioned into contiguous
chunks, per-chunk tallies are merged by commutative addition, and witness
lists are sorted canonically, so identical grid specs (including the seed)
produce identical reports for any worker count.  Random mode draws from
Python's random.Random (MT19937), named in the report config: the chunks are
drawn in grid order from one generator, so the draw order does not depend on
the worker count either.  The draw reads MT19937 words in bulk but yields
the stream of one randint(-B, B) call per slot (see _draw).
"""

from __future__ import annotations

import random
import sys
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, islice, product, repeat
from operator import and_, not_

from .actions import MASK_BOUND, _effective_rows, _forms, _free_rows, _row_masks
from .cdga import HomotopyProfile
from .classify import (
    T2_KINDS,
    _classify_free_rows,
    _pencil,
    enumerate_profiles,
    max_effective_rank,
)
from .errors import ClassificationViolation, PreconditionError

PRNG_NAME = "mt19937"  # random.Random; seeded with the 64-bit campaign seed


@dataclass(frozen=True)
class GridSpec:
    """Parameter grid: N weight rows with entries in [-B, B].

    mode is "exhaustive" (all (2B+1)^(4N) tuples in odometer order, B <= MASK_BOUND)
    or "random" (count tuples from an explicitly seeded generator).
    """

    n_factors: int
    coefficient_bound: int
    mode: str = "exhaustive"
    count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.n_factors < 2:
            raise PreconditionError("grid needs n_factors >= 2")
        if not 1 <= self.coefficient_bound <= 2 ** 31 - 1:
            raise PreconditionError("grid needs 1 <= coefficient_bound <= 2**31 - 1")
        if self.mode == "exhaustive":
            if self.count is not None or self.seed is not None:
                raise PreconditionError("exhaustive mode takes no count/seed")
            if self.coefficient_bound > MASK_BOUND:
                w, e = 2 * self.coefficient_bound + 1, 4 * self.n_factors
                raise PreconditionError(f"an exhaustive grid has {w}^{e} tuples; "
                                        f"it needs bound <= {MASK_BOUND}: use random mode")
        elif self.mode == "random":
            if not self.count or self.count < 1:
                raise PreconditionError("random mode needs a positive count")
            if self.seed is None or not 0 <= self.seed < 2 ** 64:
                raise PreconditionError("random mode needs an explicit 64-bit seed")
        else:
            raise PreconditionError(f"unknown sample mode {self.mode!r}")

    @property
    def tuple_count(self) -> int:
        if self.mode == "exhaustive":
            return (2 * self.coefficient_bound + 1) ** (4 * self.n_factors)
        return self.count

    def config_echo(self) -> dict:
        echo = {
            "n_factors": self.n_factors,
            "coefficient_bound": self.coefficient_bound,
            "mode": self.mode,
        }
        if self.mode == "random":
            echo["count"] = self.count
            echo["seed"] = self.seed
            echo["prng"] = PRNG_NAME
        return echo


@dataclass
class CampaignReport:
    totals: dict
    violation_witnesses: list
    wall_time: float
    config: dict
    epsilon_checks: dict = field(default_factory=dict)

    def __post_init__(self):
        kinds_sum = sum(self.totals.get("kinds", {}).values())
        if not self.totals.get("effective", 0) >= self.totals.get("free", 0) >= kinds_sum:
            raise PreconditionError("report totals need effective >= free >= sum of kinds")
        if (len(self.violation_witnesses) == 0) != (self.totals.get("violations", 0) == 0):
            raise PreconditionError("report has violations without witnesses or vice versa")

    def to_record(self) -> dict:
        record = {
            "totals": self.totals,
            "violation_witnesses": self.violation_witnesses,
            "wall_time": self.wall_time,
            "config": self.config,
        }
        if self.epsilon_checks:
            record["epsilon_checks"] = self.epsilon_checks
        return record

    def comparable(self) -> dict:
        """Everything except wall time; must be identical across worker counts."""
        record = self.to_record()
        record.pop("wall_time")
        return record


def _classify_rows(rows, pencil, tally, witnesses):
    try:
        kind, epsilon = _classify_free_rows(rows, pencil)
    except ClassificationViolation as exc:
        tally["violations"] += 1
        witnesses.append(
            {
                "rows": [list(r) for r in rows],
                "error": str(exc),
                "epsilon_related": exc.stage == "epsilon",
            }
        )
        return
    tally["kinds"][kind] += 1
    if epsilon is not None:
        tally["epsilon_checked"] += 1


def _fresh_tally() -> dict:
    return {
        "tested": 0,
        "effective": 0,
        "free": 0,
        "violations": 0,
        "epsilon_checked": 0,
        "kinds": {kind: 0 for kind in T2_KINDS},
    }


def _draw(rng, bound: int, n_factors: int, count: int) -> list:
    """The next count weight tuples of a random grid, as row tuples.

    The values are those of one rng.randint(-bound, bound) call per slot,
    row-major, and rng is left where those calls leave it.  CPython's randint
    keeps the top k = (2B+1).bit_length() bits of one 32-bit MT19937 word and
    rejects values >= 2B+1; getrandbits(32 * m) returns the next m words,
    least significant first.  Asking for m = the values still needed never
    takes a word that randint would not have taken.
    """
    width = 2 * bound + 1
    shift = 32 - width.bit_length()
    total = 4 * n_factors * count
    values: list[int] = []
    while need := total - len(values):
        # an array keeps the words unboxed until read: a tuple of ints would
        # hold a whole chunk's words as objects at once
        words = array("I", rng.getrandbits(32 * need).to_bytes(4 * need, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        values += [v - bound for w in words if (v := w >> shift) < width]
    return list(zip(*[zip(*[iter(values)] * 4)] * n_factors))


def _drawn_free(grid, actions, tally):
    """The effective, free tuples of a drawn chunk and their pencils: up to MASK_BOUND by
    the AND of each tuple's row masks, a factor's slice at a time, else by the walk."""
    if grid.coefficient_bound > MASK_BOUND:
        effective = list(filter(_effective_rows, actions))
        n_effective, free = len(effective), list(filter(_free_rows, effective))
    else:
        table, effective_bits = _row_masks(grid.coefficient_bound)
        n = grid.n_factors
        masks = list(map(table.__getitem__, chain.from_iterable(actions)))
        anded = masks[::n]
        for i in range(1, n):
            anded = list(map(and_, anded, masks[i::n]))
        n_effective = list(map(and_, anded, repeat(effective_bits))).count(0)
        free = list(compress(actions, map(not_, anded)))
    tally["tested"] += len(actions)
    tally["effective"] += n_effective
    tally["free"] += len(free)
    for rows in free:
        yield rows, _pencil(_forms(rows))


def _odometer_free(grid, lo, hi, tally):
    """The effective, free tuples with odometer index in [lo, hi) and their pencils,
    a block of last rows per prefix of N-1 rows; a block cut by lo or hi is sliced.
    A block's survivors depend only on its cut and the AND of its prefix's row
    masks, so are kept by those.  Each pencil is the prefix's folded on by the last row's form."""
    bound = grid.coefficient_bound
    table, effective_bits = _row_masks(bound)
    last_rows = list(product(range(-bound, bound + 1), repeat=4))
    last = list(zip(map(table.__getitem__, last_rows), zip(last_rows, _forms(last_rows))))
    size = len(last_rows)
    survivors: dict = {}  # (prefix mask, first, end) -> (effective count, free (row, form)s)
    prefixes = islice(product(last_rows, repeat=grid.n_factors - 1), lo // size, None)
    for start, prefix in zip(range(lo - lo % size, hi, size), prefixes):
        first, end = max(lo - start, 0), min(hi - start, size)
        mask = reduce(and_, map(table.__getitem__, prefix))
        if (key := (mask, first, end)) not in survivors:
            survivors[key] = (sum(not mask & m & effective_bits for m, _ in last[first:end]),
                              [row_form for m, row_form in last[first:end] if not mask & m])
        n_effective, free = survivors[key]
        tally["tested"] += end - first
        tally["effective"] += n_effective
        tally["free"] += len(free)
        if free:
            state = _pencil(_forms(prefix))
            for row, form in free:
                yield prefix + (row,), _pencil((form,), *state)


def _scan(args) -> tuple[dict, list]:
    """Worker: classify the weight tuples with grid index in [lo, hi).

    Each tuple is a tuple of N row tuples.  A random grid's rows arrive drawn
    by _draw; an exhaustive grid's are generated here in odometer order (the
    last slot varies fastest), a block of last rows per prefix of N-1 rows.
    """
    grid, lo, hi, actions = args
    tally = _fresh_tally()
    witnesses: list = []
    free = (_odometer_free(grid, lo, hi, tally) if actions is None
            else _drawn_free(grid, actions, tally))
    for rows, pencil in free:
        _classify_rows(rows, pencil, tally, witnesses)
    return tally, witnesses


def resolve_jobs(jobs: int | None) -> int:
    """Requested worker count, 1 by default."""
    if jobs is None:
        jobs = 1
    if jobs < 1:
        raise PreconditionError("jobs must be >= 1")
    return jobs


def _merge(parts) -> tuple[dict, list]:
    tally = _fresh_tally()
    witnesses: list = []
    for part_tally, part_witnesses in parts:
        for key in ("tested", "effective", "free", "violations", "epsilon_checked"):
            tally[key] += part_tally[key]
        for kind in T2_KINDS:
            tally["kinds"][kind] += part_tally["kinds"][kind]
        witnesses.extend(part_witnesses)
    witnesses.sort(key=lambda w: w["rows"])
    return tally, witnesses


def _pooled(work, jobs: int):
    """_scan in jobs worker processes, results in order.  At most jobs items are in
    flight (the pool's map would submit every one at once), so few chunks are held."""
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        window: deque = deque()
        for item in work:
            if len(window) == jobs:
                yield window.popleft().result()
            window.append(pool.submit(_scan, item))
        yield from (future.result() for future in window)


def run_t2_campaign(grid: GridSpec, jobs: int | None = None) -> CampaignReport:
    """Classify every effective, free action in the grid and tally the kinds."""
    jobs = resolve_jobs(jobs)
    start = time.monotonic()

    total = grid.tuple_count
    n_chunks = min(jobs * 4, total)
    bounds = [total * i // n_chunks for i in range(n_chunks + 1)]
    rng = random.Random(grid.seed) if grid.mode == "random" else None
    b = grid.coefficient_bound
    # chunks in grid order from one generator, each drawn just before it is
    # scanned (jobs=1) or submitted (jobs>1), and merged as its result arrives
    work = (
        (grid, lo, hi, None if rng is None else _draw(rng, b, grid.n_factors, hi - lo))
        for lo, hi in zip(bounds, bounds[1:])
    )
    tally, witnesses = _merge(map(_scan, work) if jobs == 1 else _pooled(work, jobs))
    epsilon_checks = {
        "checked": tally.pop("epsilon_checked"),
        "failures": sum(1 for w in witnesses if w["epsilon_related"]),
    }
    return CampaignReport(
        totals=tally,
        violation_witnesses=witnesses,
        wall_time=time.monotonic() - start,
        config=grid.config_echo(),
        epsilon_checks=epsilon_checks,
    )


# -- profile reproduction ------------------------------------------------------------


def expected_almost_free_profiles(n: int) -> list[HomotopyProfile]:
    """Closed-form admissible profiles at the maximal almost-free rank."""
    k = n // 3
    if n % 3 == 0:
        return [HomotopyProfile.from_dict(n, {3: k})]
    if n % 3 == 1:
        return []
    return [
        HomotopyProfile.from_dict(n, {3: k - 1, 5: 1}),
        HomotopyProfile.from_dict(n, {2: 1, 3: k + 1}),
    ]


def expected_effective_max_profiles(n: int) -> list[HomotopyProfile]:
    """The five-row table for n = 1 mod 3, truncated to nonnegative S^3 counts.

    Rows (d2, d4, d5, d7) with the forced d3, where s = (n + 2) / 3:
    (0,1,0,1) d3=s-2; (0,0,0,1) d3=s-3; (0,0,2,0) d3=s-4; (1,0,1,0) d3=s-2;
    (2,0,0,0) d3=s.
    """
    if n % 3 != 1:
        raise PreconditionError("the table applies to n = 1 mod 3")
    s = (n + 2) // 3
    raw = [
        ({4: 1, 7: 1}, s - 2),
        ({7: 1}, s - 3),
        ({5: 2}, s - 4),
        ({2: 1, 5: 1}, s - 2),
        ({2: 2}, s),
    ]
    out = []
    for pattern, d3 in raw:
        if d3 < 0:
            continue
        d = dict(pattern)
        if d3:
            d[3] = d3
        out.append(HomotopyProfile.from_dict(n, d))
    return out


def run_profile_campaign(n_max: int) -> CampaignReport:
    """Compare enumerate_profiles with the closed-form answers for 3 <= n <= n_max."""
    if n_max < 3:
        raise PreconditionError("n_max must be >= 3")
    start = time.monotonic()
    checks = []
    for n in range(3, n_max + 1):
        checks.append((n, "almost_free", max(n // 3, 1), expected_almost_free_profiles(n)))
        if n % 3 == 1:
            checks.append(
                (n, "effective_max", max_effective_rank(n), expected_effective_max_profiles(n))
            )
    witnesses = []
    for n, mode, k, expected in checks:
        got = enumerate_profiles(n, k, mode)
        if set(got) != set(expected):
            witnesses.append(
                {
                    "rows": [n, mode],
                    "error": "profile mismatch",
                    "expected": [dict(p.d) for p in expected],
                    "got": [dict(p.d) for p in got],
                    "epsilon_related": False,
                }
            )
    totals = {"tested": len(checks), "violations": len(witnesses), "kinds": {}}
    return CampaignReport(
        totals=totals,
        violation_witnesses=witnesses,
        wall_time=time.monotonic() - start,
        config={"n_max": n_max, "mode": "profiles"},
    )
