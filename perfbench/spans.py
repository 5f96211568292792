"""Span tracing of torquot, installed from outside the package.

The tracer replaces module and class attributes of torquot with timing
wrappers, so calls are caught where the package makes them: wrapping
``torquot.actions.is_free`` also rebinds the copy ``torquot.classify``
imported, and every rebinding site is tagged with the module that holds it
(``exact.rank_int_rows`` is split into calls made from ``classify`` and from
``cdga`` that way).  Each call records a span (name, start, end, parent) in
flat in-memory arrays; metrics are aggregated from them when the run ends.
A target a later version of the package no longer has is reported as
missing, not as an error.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import clock

# (module, attribute) pairs to wrap.  Public names are rebound in every
# torquot module that holds them; a private name only in the module given.
TARGETS = (
    ("harness", "run_t2_campaign"),
    ("harness", "_free_rows"),  # the grid scanner's freeness filter
    ("actions", "is_effective"),
    ("actions", "is_free"),
    ("actions", "normalize"),
    ("actions", "parse_action"),
    ("classify", "classify_t2_quotient"),
    ("classify", "epsilon_invariant"),
    ("classify", "lemma64_substitution"),
    ("classify", "quotient_model"),
    ("quadforms", "BinaryQuadraticForm.substituted"),
    ("exact", "rank_int_rows"),
    ("exact", "is_rational_square"),
    ("cdga", "FreeCDGA.betti_numbers"),
    ("cdga", "FreeCDGA.apply_differential"),
    ("cdga", "FreeCDGA.basis"),
    ("cli", "cli_main"),
)

# every effectiveness and freeness test, wherever it is made
FILTER_SPANS = ("actions.is_effective", "actions.is_free", "harness._free_rows")

BRANCHES = ("rank3", "rank2_l1_zero", "eps_plus", "eps_minus")


def branch_of(result) -> str:
    """Proof branch of a ClassificationResult, read from rank_d3 and epsilon."""
    if result.rank_d3 == 3:
        return "rank3"
    if result.epsilon is None:
        return "rank2_l1_zero"
    return "eps_plus" if result.epsilon == 1 else "eps_minus"


class Tracer:
    """Installs the wrappers, holds the spans they record, and aggregates them."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []  # span id -> (name, caller module)
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.branches = dict.fromkeys(BRANCHES, 0)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {
            name[len("torquot."):] or "torquot": mod
            for name, mod in list(sys.modules.items())
            if (name == "torquot" or name.startswith("torquot.")) and mod is not None
        }
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            home = modules.get(mod_name)
            owner_path, _, leaf = attr.rpartition(".")
            owner = home
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if owner_path:  # a method: one binding, on its class
                self._rebind(owner, leaf, self.wrap(original, name, mod_name))
                continue
            sites = [mod_name] if leaf.startswith("_") else [
                site for site, mod in modules.items() if mod.__dict__.get(leaf) is original
            ]
            for site in sites:
                self._rebind(modules[site], leaf, self.wrap(original, name, site))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:  # the attribute was inherited, not owned
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, fn, name, caller):
        """fn, recording a span named `name`, tagged with the calling module, per call."""
        key = len(self.keys)
        self.keys.append((name, caller))
        keys, parents = self.span_key, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        now = time.perf_counter
        census = self.branches if name == "classify.classify_t2_quotient" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if census is not None:
                census[branch_of(result)] += 1
            return result

        return traced

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict:
        """{(name, caller): [calls, inclusive s, self s]}; caller None sums all callers.

        Self time is a span's duration minus the durations of its direct
        child spans.  A span nested directly in a span of the same name adds
        to the call count but not to the inclusive time again.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parents, keys = self.span_parent, self.span_key
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for i in range(n):
            name, caller = self.keys[keys[i]]
            p = parents[i]
            nested = p >= 0 and self.keys[keys[p]][0] == name
            for key in ((name, None), (name, caller)):
                acc = out.setdefault(key, [0, 0.0, 0.0])
                acc[0] += 1
                if not nested:
                    acc[1] += dur[i]
                acc[2] += dur[i] - child[i]
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, caller, start s, end s, parent index (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,caller,start_s,end_s,parent\n")
            for i in range(len(self.span_start)):
                name, caller = self.keys[self.span_key[i]]
                fh.write(
                    f"{name},{caller},{self.span_start[i]!r},"
                    f"{self.span_end[i]!r},{self.span_parent[i]}\n"
                )


def span_cost(repeats: int = 200_000) -> float:
    """Calibrated CPU seconds one traced call adds: a trivial function called bare and wrapped."""

    def identity(x):
        return x

    traced = Tracer().wrap(identity, "identity", None)
    with clock.Calibrator() as calibrator:
        start = clock.cpu_seconds()
        for i in range(repeats):
            identity(i)
        middle = clock.cpu_seconds()
        for i in range(repeats):
            traced(i)
        end = clock.cpu_seconds()
    bare = calibrator.calibrated(start, middle)
    return (calibrator.calibrated(middle, end) - bare) / repeats
