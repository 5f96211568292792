import json
import subprocess
import sys

import pytest

import torquot.cli as cli
from torquot import ClassificationViolation, TorusActionS3
from torquot.cli import cli_main

from conftest import CP2_ROWS, HOPF_ROWS, T1_ROWS, format_action

T1_JSON = json.dumps(
    {
        "n_factors": 3,
        "rows": [
            {"a": 1, "b": 1, "k": 0, "l": 0},
            {"a": 0, "b": 0, "k": 1, "l": 1},
            {"a": 2, "b": 0, "k": 0, "l": 2},
        ],
    }
)

CIRCLE_JSON = json.dumps(
    {
        "factors": [
            {"sphere_dim": 5, "weights": [1, 1, 1]},
            {"sphere_dim": 3, "weights": [1, -1]},
        ]
    }
)

MODEL_TEXT = """\
model minimal
gen u1 2
gen u2 2
gen x1 3
gen x2 3
gen x3 3
d x1 = 1 u1^2
d x2 = 1 u2^2
d x3 = 1 u1*u2
"""


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.json"
    path.write_text(T1_JSON)
    return str(path)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip()


def run_cli_err(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.err


def test_classify_t1(capsys, t1_file):
    code, out = run_cli(capsys, "classify", t1_file)
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "T1_S2xS2_PRODUCT"
    assert record["violations"] == []


# classify output, byte for byte, as it stood when the pencil was a stored
# Fraction echelon basis; the last two bases have non-integral entries
CLASSIFY_RECORDS = [
    (
        T1_ROWS,
        '{"kind": "T1_S2xS2_PRODUCT", "pencil": [["1", "0", "0"], ["0", "1", "0"], '
        '["0", "0", "1"]], "rank_d3": 3, "trailing_s3": 0, "violations": []}\n',
    ),
    (
        HOPF_ROWS,
        '{"kind": "S2xS2_PRODUCT", "pencil": [["1", "0", "0"], ["0", "0", "1"]], '
        '"rank_d3": 2, "trailing_s3": 1, "violations": []}\n',
    ),
    (
        CP2_ROWS,
        '{"epsilon": -1, "kind": "CP2_CONNSUM_PRODUCT", "pencil": [["1", "0", "-1"], '
        '["0", "1", "0"]], "rank_d3": 2, "trailing_s3": 1, "violations": []}\n',
    ),
    (
        ((1, 1, 1, 0), (2, 0, 1, 2), (0, -2, 1, -1)),
        '{"epsilon": -1, "kind": "CP2_CONNSUM_PRODUCT", "pencil": [["1", "0", "-1/2"], '
        '["0", "1", "1/2"]], "rank_d3": 2, "trailing_s3": 1, "violations": []}\n',
    ),
    (
        ((-1, -1, 1, 1), (-1, 0, -1, 0), (2, 2, -1, -1)),
        '{"kind": "S2xS2_PRODUCT", "pencil": [["1", "0", "-1/2"], ["0", "1", "-3/4"]], '
        '"rank_d3": 2, "trailing_s3": 1, "violations": []}\n',
    ),
]


@pytest.mark.parametrize("rows, expected", CLASSIFY_RECORDS)
def test_classify_records_byte_identical(capsys, tmp_path, rows, expected):
    path = tmp_path / "action.json"
    path.write_text(format_action(TorusActionS3(rows)))
    assert cli_main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_free_check(capsys, t1_file):
    code, out = run_cli(capsys, "free-check", t1_file)
    assert code == 0
    assert json.loads(out) == {"n_factors": 3, "effective": True, "free": True}


def test_normalize_cli(capsys, t1_file):
    code, out = run_cli(capsys, "normalize", t1_file)
    assert code == 0
    record = json.loads(out)
    assert record["rows"] == [[1, 1, 0, 0], [0, 0, 1, 1], [2, 0, 0, 2]]
    assert record["witness"]["reparam"] == [[1, 0], [0, 1]]


def test_betti_cli(capsys, tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(MODEL_TEXT)
    code, out = run_cli(capsys, "betti", str(path), "--max-deg", "7")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0, 2, 0, 0, 2, 0, 1]


def test_profiles_cli(capsys):
    code, out = run_cli(
        capsys, "profiles", "--n", "10", "--k", "6", "--mode", "effective_max"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 5
    assert all(r["n"] == 10 for r in records)


def test_circle_classify_cli(capsys, tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(CIRCLE_JSON)
    code, out = run_cli(capsys, "circle-classify", str(path))
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "S2xS5_PRODUCT"
    assert record["lambdas"] == [-1] and record["alpha"] == 1


def test_circle_classify_rejects_nonfree(capsys, tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(
        json.dumps(
            {
                "factors": [
                    {"sphere_dim": 5, "weights": [2, 2, 2]},
                    {"sphere_dim": 3, "weights": [2, 4]},
                ]
            }
        )
    )
    code, _ = run_cli(capsys, "circle-classify", str(path))
    assert code == 1


def test_square_class_cli(capsys):
    code, out = run_cli(capsys, "square-class", "1", "2")
    assert code == 0
    assert json.loads(out)["isomorphic"] is False
    code, out = run_cli(capsys, "square-class", "3", "27")
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    code, _ = run_cli(capsys, "square-class", "0", "2")
    assert code == 1


@pytest.mark.parametrize("alpha", ["1e5000", "0.5", "1/0"])
def test_square_class_cli_refuses_rationals_outside_the_grammar(capsys, alpha):
    code, err = run_cli_err(capsys, "square-class", alpha, "1")
    assert code == 1
    assert err.startswith("error: alpha: bad rational")


def test_verify_t2_cli(capsys):
    code, out = run_cli(
        capsys, "verify-t2", "--factors", "2", "--bound", "1", "--jobs", "1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["totals"]["tested"] == 3 ** 8
    assert record["totals"]["violations"] == 0


def test_verify_t2_random_needs_seed(capsys):
    code, _ = run_cli(
        capsys, "verify-t2", "--factors", "2", "--bound", "1", "--random", "10"
    )
    assert code == 1


def test_verify_t2_seed_needs_random(capsys):
    code, err = run_cli_err(capsys, "verify-t2", "--factors", "2", "--bound", "1", "--seed", "3")
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_t2_refuses_bounds_past_32_bit_words(capsys):
    code, err = run_cli_err(
        capsys,
        "verify-t2", "--factors", "2", "--bound", "2147483648",
        "--random", "3", "--seed", "1",
    )
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_t2_refuses_exhaustive_bounds_past_the_masks(capsys):
    code, err = run_cli_err(capsys, "verify-t2", "--factors", "2", "--bound", "5")
    assert code == 1
    assert err.startswith("error:") and "random" in err and "Traceback" not in err


def test_verify_t2_violation_exit_code(capsys, monkeypatch):
    import torquot.harness as harness

    def explode(rows, pencil, shared):
        raise ClassificationViolation("forced", witness=rows)

    monkeypatch.setattr(harness, "_classify_free_rows", explode)
    code, out = run_cli(
        capsys,
        "verify-t2", "--factors", "2", "--bound", "1",
        "--random", "200", "--seed", "3", "--jobs", "1",
    )
    assert code == 2
    record = json.loads(out)
    assert record["totals"]["violations"] > 0


def test_jobs_flag_does_not_change_record(capsys):
    code, out = run_cli(
        capsys,
        "verify-t2", "--factors", "2", "--bound", "1",
        "--random", "500", "--seed", "11", "--jobs", "2",
    )
    assert code == 0
    code2, out2 = run_cli(
        capsys,
        "verify-t2", "--factors", "2", "--bound", "1",
        "--random", "500", "--seed", "11", "--jobs", "1",
    )
    assert code2 == 0
    a, b = json.loads(out), json.loads(out2)
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_verify_profiles_cli(capsys):
    code, out = run_cli(capsys, "verify-profiles", "--n-max", "12")
    assert code == 0
    assert json.loads(out)["totals"]["violations"] == 0


def test_malformed_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": [{"a": 1.5, "b": 1, "k": 0, "l": 0}]}')
    code, err = run_cli_err(capsys, "classify", str(path))
    assert code == 1
    assert "float" in err


def test_missing_file_exit_code(capsys):
    code, _ = run_cli(capsys, "classify", "/nonexistent/action.json")
    assert code == 1


def test_usage_error_is_exit_1(capsys):
    code, _ = run_cli(capsys, "classify")  # missing positional
    assert code == 1
    code, _ = run_cli(capsys, "no-such-command")
    assert code == 1


def test_violation_exit_code(capsys, t1_file, monkeypatch):
    def explode(act):
        raise ClassificationViolation("forced disagreement", witness=act.rows)

    monkeypatch.setattr(cli, "classify_t2_quotient", explode)
    code, out = run_cli(capsys, "classify", t1_file)
    assert code == 2
    record = json.loads(out)
    assert record["violations"] == ["forced disagreement"]
    assert record["witness"] == [[1, 1, 0, 0], [0, 0, 1, 1], [2, 0, 0, 2]]


def test_table_format(capsys, t1_file):
    code, out = run_cli(capsys, "classify", t1_file, "--format", "table")
    assert code == 0
    assert "T1_S2xS2_PRODUCT" in out and "kind" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "torquot", "square-class", "1", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["isomorphic"] is True


# CP2 fixture extended to n factors by factors whose forms lie in its pencil
# <s1^2 - s2^2, s1 s2>, placed first so that the first factor's pairs have
# contents 2 and 3; every added factor has two distinct exponent pairs, so
# trying every selection would take 2^(n-1) of them
PENCIL_FACTORS = ((2, 0, 0, 3), (1, 0, 0, 1), (1, -1, 1, 1), (1, 1, 1, -1))


def wide_action_file(tmp_path, n):
    rows = tuple(PENCIL_FACTORS[i % 4] for i in range(n - 3)) + CP2_ROWS
    path = tmp_path / f"wide{n}.json"
    path.write_text(format_action(TorusActionS3(rows)))
    return str(path)


def run_module(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "torquot", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("n", [40, 200])
def test_free_check_many_factors_finishes(tmp_path, n):
    record = run_module("free-check", wide_action_file(tmp_path, n))
    assert record == {"n_factors": n, "effective": True, "free": True}


def test_classify_and_normalize_many_factors_finish(tmp_path):
    path = wide_action_file(tmp_path, 40)
    record = run_module("classify", path)
    assert record["kind"] == "CP2_CONNSUM_PRODUCT"
    assert record["trailing_s3"] == 38 and record["violations"] == []
    record = run_module("normalize", path)
    (a1, b1, k1, l1), (_, _, k2, l2) = record["rows"][:2]
    assert len(record["rows"]) == 40
    assert a1 != 0 and k1 == 0 and (b1, l1) != (0, 0) and k2 * l2 != 0


# each case reaches one refusal of a file reader; the fragment names it
BAD_ACTION_FILES = [
    ("[]", "object with a 'rows' field"),
    ('{"rows": []}', "non-empty list"),
    ('{"rows": [[1, 0, 0, 1]]}', "rows[0]: expected an object"),
]

BAD_CIRCLE_FILES = [
    ('{"factors": []}', "non-empty list"),
    ('{"factors": [{"sphere_dim": 3, "weights": 1}]}', "weights: expected a list"),
    ('{"factors": [{"sphere_dim": 5, "weights": [1, 1]}]}', "S^5 carries 3 weights, got 2"),
    ('{"factors": [{"sphere_dim": 1, "weights": [1]}]}', "sphere dimension 1 < 2"),
    ('{"factors": [{"sphere_dim": 3, "weights": [1, 1]}]}', "exactly one S^5 factor, got 0"),
]

BAD_MODEL_FILES = [
    ("gen u1\n", "expected 'gen <name> <degree>'"),
    ("gen u1 x\n", "bad degree 'x'"),
    ("gen 1x 2\n", "bad generator name '1x'"),
    ("gen u1 2\nd u1 0\n", "expected 'd <name> = <poly>'"),
    ("# comments only\n", "declares no generators"),
    ("gen u1 2\nd v = 0\n", "d of unknown generator 'v'"),
    ("model foo\ngen u1 2\n", "unknown model kind 'foo'"),
]


def _refused(capsys, tmp_path, text, fragment, command, *options):
    path = tmp_path / "input"
    path.write_text(text)
    code, err = run_cli_err(capsys, command, str(path), *options)
    assert code == 1
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, fragment", BAD_ACTION_FILES)
def test_classify_refuses_bad_action_files(capsys, tmp_path, text, fragment):
    _refused(capsys, tmp_path, text, fragment, "classify")


@pytest.mark.parametrize("text, fragment", BAD_CIRCLE_FILES)
def test_circle_classify_refuses_bad_circle_files(capsys, tmp_path, text, fragment):
    _refused(capsys, tmp_path, text, fragment, "circle-classify")


@pytest.mark.parametrize("text, fragment", BAD_MODEL_FILES)
def test_betti_refuses_bad_model_files(capsys, tmp_path, text, fragment):
    _refused(capsys, tmp_path, text, fragment, "betti", "--max-deg", "3")


def test_verify_t2_table_nests_the_report(capsys):
    code, out = run_cli(
        capsys, "verify-t2", "--factors", "2", "--bound", "1", "--format", "table"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "totals:" and "epsilon_checks:" in lines
    assert lines.index("  kinds:") < lines.index("    S2xS2_PRODUCT        672")
