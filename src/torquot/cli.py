"""Command-line interface.

Every subcommand emits machine-parseable JSON records, one per line, on
standard output (``--format table`` renders them as small tables instead).
Exit codes: 0 success, 1 precondition or input errors, 2 reserved for a
ClassificationViolation, i.e. a falsified theorem.
"""

from __future__ import annotations

import argparse
import json
import sys

from .actions import (
    circle_euler_data,
    is_effective,
    is_free,
    is_free_circle,
    normalize,
    parse_action,
    parse_circle_action,
)
from .cdga import parse_model
from .classify import (
    classify_s1_quotient,
    classify_t2_quotient,
    enumerate_profiles,
    square_class_isomorphic,
)
from .errors import ClassificationViolation, PreconditionError
from .exact import parse_rational
from .harness import GridSpec, run_profile_campaign, run_t2_campaign

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for
    # "theorem falsified", so downgrade usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_PRECONDITION)


def _emit(record: dict, fmt: str):
    if fmt == "table":
        print(_render_table(record))
    else:
        print(json.dumps(record, sort_keys=True))


def _render_table(record: dict, indent: str = "") -> str:
    lines = []
    width = max((len(str(k)) for k in record), default=0)
    for key, value in record.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_table(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(f"{indent}  {json.dumps(item)}")
        else:
            lines.append(f"{indent}{str(key).ljust(width)}  {json.dumps(value)}")
    return "\n".join(lines)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}")


def _cmd_classify(args) -> int:
    act = parse_action(_read(args.action_file))
    result = classify_t2_quotient(act)
    _emit(result.to_record(), args.format)
    return EXIT_OK


def _cmd_free_check(args) -> int:
    act = parse_action(_read(args.action_file))
    _emit(
        {
            "n_factors": act.n_factors,
            "effective": is_effective(act),
            "free": is_free(act),
        },
        args.format,
    )
    return EXIT_OK


def _cmd_normalize(args) -> int:
    act = parse_action(_read(args.action_file))
    norm = normalize(act)
    _emit(
        {
            "rows": [list(r) for r in norm.action.rows],
            "witness": {
                "permutation": list(norm.witness.permutation),
                "reparam": [list(row) for row in norm.witness.reparam],
            },
        },
        args.format,
    )
    return EXIT_OK


def _cmd_betti(args) -> int:
    model = parse_model(_read(args.model_file))
    betti = model.betti_numbers(args.max_deg)
    _emit({"max_degree": args.max_deg, "betti": betti}, args.format)
    return EXIT_OK


def _cmd_profiles(args) -> int:
    for profile in enumerate_profiles(args.n, args.k, args.mode):
        _emit({"n": profile.n, "d": {str(j): v for j, v in profile.d}}, args.format)
    return EXIT_OK


def _cmd_circle_classify(args) -> int:
    act = parse_circle_action(_read(args.circle_file))
    if not is_free_circle(act):
        raise PreconditionError("circle action is not free")
    lambdas, alphas = circle_euler_data(act)
    if len(alphas) != 1:
        raise PreconditionError(
            f"classification needs exactly one S^5 factor, got {len(alphas)}"
        )
    kind = classify_s1_quotient(lambdas, alphas[0])
    _emit(
        {"kind": kind, "lambdas": list(lambdas), "alpha": alphas[0]},
        args.format,
    )
    return EXIT_OK


def _cmd_square_class(args) -> int:
    alpha, beta = parse_rational(args.alpha, "alpha"), parse_rational(args.beta, "beta")
    _emit(
        {
            "alpha": str(alpha),
            "beta": str(beta),
            "isomorphic": square_class_isomorphic(alpha, beta),
        },
        args.format,
    )
    return EXIT_OK


def _cmd_verify_t2(args) -> int:
    mode = "exhaustive" if args.random is None else "random"
    grid = GridSpec(args.factors, args.bound, mode=mode, count=args.random, seed=args.seed)
    report = run_t2_campaign(grid, jobs=args.jobs)
    _emit(report.to_record(), args.format)
    return EXIT_VIOLATION if report.totals["violations"] else EXIT_OK


def _cmd_verify_profiles(args) -> int:
    report = run_profile_campaign(args.n_max)
    _emit(report.to_record(), args.format)
    return EXIT_VIOLATION if report.totals["violations"] else EXIT_OK


def _add_command(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="torquot")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "classify", _cmd_classify, "classify a T^2 quotient of a product of S^3")
    p.add_argument("action_file")

    p = _add_command(sub, "free-check", _cmd_free_check, "effectiveness and freeness of an action")
    p.add_argument("action_file")

    p = _add_command(sub, "normalize", _cmd_normalize, "bring an action to the reduced form")
    p.add_argument("action_file")

    p = _add_command(sub, "betti", _cmd_betti, "Betti numbers of a model file")
    p.add_argument("model_file")
    p.add_argument("--max-deg", type=int, required=True)

    p = _add_command(sub, "profiles", _cmd_profiles, "admissible homotopy profiles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("almost_free", "effective_max"), required=True)

    p = _add_command(sub, "circle-classify", _cmd_circle_classify, "classify a circle quotient")
    p.add_argument("circle_file")

    p = _add_command(sub, "square-class", _cmd_square_class, "rational square-class equivalence")
    p.add_argument("alpha")
    p.add_argument("beta")

    p = _add_command(
        sub, "verify-t2", _cmd_verify_t2, "grid campaign against the T^2 classification"
    )
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--random", type=int, default=None, metavar="COUNT")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)

    p = _add_command(
        sub, "verify-profiles", _cmd_verify_profiles, "profile enumeration against closed forms"
    )
    p.add_argument("--n-max", type=int, required=True)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PRECONDITION
    try:
        return args.run(args)
    except ClassificationViolation as exc:
        record = {
            "kind": None,
            "violations": [str(exc)],
        }
        if exc.witness is not None:
            record["witness"] = exc.witness  # tuples print as JSON lists
        print(json.dumps(record, sort_keys=True))
        return EXIT_VIOLATION
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


def main():
    sys.exit(cli_main())
