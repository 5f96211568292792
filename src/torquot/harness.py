"""Verification campaigns over integer parameter grids.

A campaign iterates a grid of weight tuples (exhaustively, or by seeded
sampling), filters to effective then free actions, classifies every
survivor, and tallies the outcome.  A ClassificationViolation is data, not
an error: it is recorded with a reproducible witness and the campaign keeps
going, because a nonempty witness list is exactly the "theorem falsified"
signal the harness exists to detect.  Up to MASK_BOUND the filter is the
AND of each tuple's row masks (`actions._row_masks`; 0 iff effective and
free).  Over a drawn chunk it reads the masks by packed row key
(`actions._row_key`: the chunk's bytes as array('I')), a factor's slice at a
time, and cuts only the survivors into row tuples.  Over the odometer it goes a
block of (2B+1)^4 last rows at a time, whose survivors are kept by the AND of the
N-1 leading rows' masks and share the block's pencil and a dict where the proof path
keeps what those rows decide, so each tuple folds in its last row.  A random grid
above it walks each tuple, cut from the chunk one at a time.  A chunk's tally is a
flat dict (_TALLY); the report nests kinds.

Determinism contract: the grid is statically partitioned into contiguous
chunks (whole blocks for an exhaustive grid), per-chunk tallies are merged by
commutative addition, and witness lists are sorted canonically, so identical
grid specs (including the seed) produce identical reports for any worker
count.  Random mode draws from Python's random.Random (MT19937), named in the
report config: the chunks are drawn in grid order from one generator, so the
draw order does not depend on the worker count either.  The draw reads MT19937
words in bulk but yields the stream of one randint(-B, B) call per slot (see
_draw); for B <= 127 it reads each word's top byte through bytes.translate.  A
drawn chunk is only its flat values, one signed byte each (array('b')) for
B <= 127 and 8 bytes each (array('q')) above, and holds at most DRAW_CHUNK
tuples, so memory does not grow with the count.
"""

from __future__ import annotations

import random
import sys
import time
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import compress, islice, pairwise, product, repeat
from operator import and_, not_

from .actions import MASK_BOUND, _effective_rows, _forms, _free_rows, _row_key, _row_masks
from .cdga import HomotopyProfile
from .classify import (
    T2_KINDS,
    _classify_free_rows,
    _pencil,
    enumerate_profiles,
    max_almost_free_rank,
    max_effective_rank,
)
from .errors import ClassificationViolation, PreconditionError
from .exact import int_tuple

PRNG_NAME = "mt19937"  # random.Random; seeded with the 64-bit campaign seed
DRAW_CHUNK = 1 << 16  # most tuples in a drawn chunk, which its parent and worker hold whole
MAX_JOBS = 64  # the process pool forks all of its workers at the first submit


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
        int_tuple((v for v in (self.n_factors, self.coefficient_bound, self.count, self.seed)
                   if v is not None), "grid size, count and seed")
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


_TALLY = ("tested", "effective", "free", "violations", "epsilon_checked", *T2_KINDS)


def _classify_rows(rows, pencil, shared, tally, witnesses):
    try:
        kind, epsilon = _classify_free_rows(rows, pencil, shared)
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
    tally[kind] += 1
    if epsilon is not None:
        tally["epsilon_checked"] += 1


@lru_cache(maxsize=None)
def _byte_map(bound: int) -> tuple[bytes, bytes]:
    """For B <= 127: the translate table from a word's top byte to its value as a
    signed byte, and the top bytes randint rejects (kept bits >= 2B+1)."""
    width = 2 * bound + 1
    drop = 8 - width.bit_length()
    return (bytes(((t >> drop) - bound) & 0xFF for t in range(256)),
            bytes(t for t in range(256) if t >> drop >= width))


def _draw(rng, bound: int, n_factors: int, count: int) -> array:
    """The next count weight tuples of a random grid, as their flat values.

    The values are those of one rng.randint(-bound, bound) call per slot,
    row-major, and rng is left where those calls leave it.  CPython's randint
    keeps the top k = (2B+1).bit_length() bits of one 32-bit MT19937 word and
    rejects values >= 2B+1; getrandbits(32 * m) returns the next m words,
    least significant first.  Asking for m = the values still needed never
    takes a word that randint would not have taken.  For B <= 127, k <= 8, so
    the kept bits lie in each word's top byte: bytes.translate maps those bytes
    to signed values and deletes the rejected ones, and the values are an
    array('b').  Above that each word is read as an int into an array('q').
    """
    width = 2 * bound + 1
    total = 4 * n_factors * count
    if bound <= 127:
        table, rejected = _byte_map(bound)
        drawn = bytearray()
        while need := total - len(drawn):
            words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            drawn += words[3::4].translate(table, rejected)
        return array("b", drawn)
    shift = 32 - width.bit_length()
    values = array("q")
    while need := total - len(values):
        # an array keeps the words unboxed until read: a tuple of ints would
        # hold a whole chunk's words as objects at once
        words = array("I", rng.getrandbits(32 * need).to_bytes(4 * need, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        values.extend(v - bound for w in words if (v := w >> shift) < width)
    return values


def _drawn_free(grid, values, tally):
    """The effective, free tuples of a drawn chunk (its flat values), their pencils
    and None (each tuple's proof path keeps its own dict).  Up to MASK_BOUND the
    chunk's bytes read as array('I') are its row keys, and a tuple survives iff the
    AND of its row masks, taken a factor's slice at a time, is 0; only survivors are
    cut into rows.  Above it the walk cuts and tests one tuple at a time."""
    n = grid.n_factors
    tally["tested"] += len(values) // (4 * n)
    if grid.coefficient_bound > MASK_BOUND:
        for rows in zip(*[zip(*[iter(values)] * 4)] * n):
            if _effective_rows(rows):
                tally["effective"] += 1
                if _free_rows(rows):
                    tally["free"] += 1
                    yield rows, _pencil(_forms(rows)), None
        return
    table, effective_bits = _row_masks(grid.coefficient_bound)
    masks = list(map(table.__getitem__, array("I", values.tobytes())))
    anded = masks[::n]
    for i in range(1, n):
        anded = list(map(and_, anded, masks[i::n]))
    tally["effective"] += list(map(and_, anded, repeat(effective_bits))).count(0)
    free = list(compress(range(0, len(values), 4 * n), map(not_, anded)))
    tally["free"] += len(free)
    for start in free:
        rows = tuple(zip(*[iter(values[start:start + 4 * n])] * 4))
        yield rows, _pencil(_forms(rows)), None


def _odometer_free(grid, lo, hi, tally):
    """The effective, free tuples with odometer index in [lo, hi) and their pencils,
    a whole block of last rows per prefix of N-1 rows (lo and hi are multiples of
    the block size).  A block's survivors depend only on the AND of its prefix's
    row masks, so are kept by it.  Each pencil is the prefix's folded on by the last
    row's form, and the tuples of a block share one dict for
    `classify._proof_path_kind`'s common work."""
    bound = grid.coefficient_bound
    table, effective_bits = _row_masks(bound)
    last_rows = list(product(range(-bound, bound + 1), repeat=4))
    masks = [table[_row_key(row)] for row in last_rows]
    last = list(zip(masks, zip(last_rows, _forms(last_rows))))
    size, depth = len(last_rows), grid.n_factors - 1
    survivors: dict = {}  # prefix mask -> (effective count, free (row, form)s)
    tally["tested"] += hi - lo
    prefixes = zip(product(last_rows, repeat=depth), product(masks, repeat=depth))
    for prefix, prefix_masks in islice(prefixes, lo // size, hi // size):
        mask = reduce(and_, prefix_masks)
        if mask not in survivors:
            survivors[mask] = (sum(not mask & m & effective_bits for m, _ in last),
                               [row_form for m, row_form in last if not mask & m])
        n_effective, free = survivors[mask]
        tally["effective"] += n_effective
        tally["free"] += len(free)
        if free:
            state, shared = _pencil(_forms(prefix)), {}
            for row, form in free:
                yield prefix + (row,), _pencil((form,), *state), shared


def _scan(args) -> tuple[dict, list]:
    """Worker: classify the weight tuples with grid index in [lo, hi).

    A random grid's tuples arrive as the flat values _draw gave; an exhaustive
    grid's are generated here in odometer order (the last slot varies fastest), a
    block of last rows per prefix of N-1 rows.  Each survivor is a tuple of N row
    tuples.
    """
    grid, lo, hi, values = args
    tally = dict.fromkeys(_TALLY, 0)
    witnesses: list = []
    free = (_odometer_free(grid, lo, hi, tally) if values is None
            else _drawn_free(grid, values, tally))
    for rows, pencil, shared in free:
        _classify_rows(rows, pencil, shared, tally, witnesses)
    return tally, witnesses


def resolve_jobs(jobs: int | None) -> int:
    """Requested worker count, 1 by default, at most MAX_JOBS."""
    if jobs is None:
        jobs = 1
    if not 1 <= int_tuple((jobs,), "jobs")[0] <= MAX_JOBS:
        raise PreconditionError(f"jobs must be in 1..{MAX_JOBS}")
    return jobs


def _merge(parts) -> tuple[dict, list]:
    tally = dict.fromkeys(_TALLY, 0)
    witnesses: list = []
    for part_tally, part_witnesses in parts:
        for key in _TALLY:
            tally[key] += part_tally[key]
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

    # an exhaustive grid is cut into whole blocks of (2B+1)^4 tuples, a random one anywhere
    rng = random.Random(grid.seed) if grid.mode == "random" else None
    b = grid.coefficient_bound
    unit = 1 if rng is not None else (2 * b + 1) ** 4
    units = grid.tuple_count // unit
    n_chunks = min(jobs * 4, units)
    if rng is not None:
        n_chunks = max(n_chunks, -(-units // DRAW_CHUNK))
    # chunks in grid order from one generator, each drawn just before it is
    # scanned (jobs=1) or submitted (jobs>1), and merged as its result arrives
    work = (
        (grid, lo, hi, None if rng is None else _draw(rng, b, grid.n_factors, hi - lo))
        for lo, hi in pairwise(unit * (units * i // n_chunks) for i in range(n_chunks + 1))
    )
    tally, witnesses = _merge(map(_scan, work) if jobs == 1 else _pooled(work, jobs))
    return CampaignReport(
        totals={key: tally[key] for key in _TALLY[:4]}
        | {"kinds": {kind: tally[kind] for kind in T2_KINDS}},
        violation_witnesses=witnesses,
        wall_time=time.monotonic() - start,
        config=grid.config_echo(),
        epsilon_checks={
            "checked": tally["epsilon_checked"],
            "failures": sum(1 for w in witnesses if w["epsilon_related"]),
        },
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
    if int_tuple((n_max,), "n_max")[0] < 3:
        raise PreconditionError("n_max must be >= 3")
    start = time.monotonic()
    checks = []
    for n in range(3, n_max + 1):
        k = max_almost_free_rank(n)[0]
        checks.append((n, "almost_free", k, expected_almost_free_profiles(n)))
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
