#!/usr/bin/env python3
"""Full desk-scale verification sweep.

Runs the exhaustive three-factor grid, the seeded four-factor sample, and
the profile reproduction campaign, printing one report per line.  Exits 2
if any campaign records a violation (i.e. a classification theorem failed
on some input), and 1 with `error: ...` on stderr if a campaign's
preconditions fail (say an exhaustive --bound above the mask bound),
mirroring the CLI contract.
"""

import argparse
import json
import sys

from torquot.errors import PreconditionError
from torquot.harness import GridSpec, run_profile_campaign, run_t2_campaign


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--bound", type=int, default=1, help="exhaustive grid bound")
    parser.add_argument("--sample-count", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n-max", type=int, default=30)
    args = parser.parse_args()

    campaigns = [
        ("t2-exhaustive", lambda: run_t2_campaign(GridSpec(3, args.bound), jobs=args.jobs)),
        (
            "t2-random",
            lambda: run_t2_campaign(
                GridSpec(4, 3, mode="random", count=args.sample_count, seed=args.seed),
                jobs=args.jobs,
            ),
        ),
        ("profiles", lambda: run_profile_campaign(args.n_max)),
    ]
    violations = 0
    for name, runner in campaigns:
        try:
            report = runner()
        except PreconditionError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        record = report.to_record()
        record["campaign"] = name
        print(json.dumps(record, sort_keys=True))
        violations += report.totals["violations"]
    return 2 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
