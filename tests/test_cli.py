"""Command-line behavior: text output, JSON output, exit codes."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import karyfire
from karyfire import cli, enumeration
from karyfire.analysis import ConstructionError, PropertyVerdict
from karyfire.cli import main


# A child interpreter imports the same karyfire sources as this one.
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(karyfire.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(argv):
    """Invoke the entry point in-process and capture both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_lowest_text():
    code, out, err = run_cli(["simulate", "--k", "2", "--ell", "3"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "{0:[5], 1:[2], 2:[6], 3:[1], 4:[4], 5:[3], 6:[7]}"
    assert lines[1] == "fire 0: 1 2 3"
    assert len(lines) == 7  # configuration plus the six-move trace


def test_simulate_random_echoes_the_seed():
    code, out, _ = run_cli(["simulate", "--k", "2", "--ell", "3", "--policy", "random", "--seed", "7"])
    assert code == 0
    assert out.splitlines()[1] == "seed: 7"


def test_simulate_random_requires_a_seed():
    code, out, err = run_cli(["simulate", "--k", "2", "--ell", "3", "--policy", "random"])
    assert code == 2
    assert out == ""
    assert "needs --seed" in err


def test_simulate_json_is_reproducible():
    argv = ["simulate", "--k", "2", "--ell", "3", "--policy", "random", "--seed", "5", "--json"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    payload = json.loads(first[1])
    assert payload["format_version"] == 1
    assert payload["seed"] == 5
    assert payload["policy"] == "random"
    assert len(payload["trace"]) == 6


def test_simulate_script_file(tmp_path):
    script = tmp_path / "moves.txt"
    script.write_text(
        "# worked binary example\n"
        "fire 0: 5 6 7\nfire 0: 3 4 6\nfire 0: 1 2 4\n"
        "fire 1: 1 3 5\nfire 2: 4 6 7\nfire 0: 2 3 6\n"
    )
    code, out, _ = run_cli(["simulate", "--k", "2", "--ell", "3", "--script", str(script)])
    assert code == 0
    assert out.splitlines()[0] == "{0:[3], 1:[2], 2:[6], 3:[1], 4:[5], 5:[4], 6:[7]}"


def test_simulate_bad_script_fails(tmp_path):
    script = tmp_path / "bad.txt"
    script.write_text("fire 1: 1 2 3\n")
    code, _, err = run_cli(["simulate", "--k", "2", "--ell", "3", "--script", str(script)])
    assert code == 1
    assert "script illegal at step 0" in err


def test_simulate_wrong_size_script_move_fails(tmp_path):
    script = tmp_path / "short.txt"
    script.write_text("fire 0: 1 2\n")
    code, _, err = run_cli(["simulate", "--k", "2", "--ell", "3", "--script", str(script)])
    assert code == 1
    assert err == "error: script illegal at step 0: wrong selection size: need k+1 = 3 chips, got 2\n"


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_text():
    code, out, _ = run_cli(["enumerate", "--k", "2", "--ell", "3"])
    assert code == 0
    assert out == "Z = 6\n"


def test_enumerate_json():
    code, out, _ = run_cli(["enumerate", "--k", "2", "--ell", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["level_widths"] == [1, 15, 36]
    assert payload["truncated"] is False


def test_enumerate_without_the_endgame_shortcut():
    """Every state then joins a level, so the widths sum to the states explored."""
    code, out, _ = run_cli(["enumerate", "--k", "3", "--ell", "3", "--json", "--no-endgame-shortcut"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 744
    assert sum(payload["level_widths"]) == payload["states_explored"] == 27903


def test_enumerate_truncation_exit_code():
    code, out, err = run_cli(["enumerate", "--k", "2", "--ell", "3", "--max-states", "5"])
    assert code == 3
    assert out == ""
    assert "truncated after" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--k", "2", "--ell", "40"],
        ["verify", "--k", "2", "--ell", "40", "--property", "ballot"],
        ["verify", "--k", "2", "--ell", "40", "--property", "endgame-confluence"],
        ["verify", "--k", "2", "--ell", "40", "--property", "ballot", "--samples", "1"],
        ["simulate", "--k", "2", "--ell", "40"],
        ["construct", "--k", "2", "--ell", "40", "--i", "0"],
    ],
)
def test_oversized_search_is_refused_before_the_start_is_built(argv):
    started = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "16-bit" in err


def test_enumerate_dump(tmp_path):
    target = tmp_path / "stable.ndjson"
    code, _, _ = run_cli(["enumerate", "--k", "2", "--ell", "3", "--dump", str(target)])
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 7
    assert json.loads(lines[-1])["stable"] == 6
    assert json.loads(lines[0])["chips"]["0"] == [3]


# ---------------------------------------------------------------------------
# bounds


def test_bounds_single_report_prints_the_bare_value():
    assert run_cli(["bounds", "--k", "2", "--ell", "3", "--which", "naive"]) == (0, "120\n", "")
    assert run_cli(["bounds", "--k", "4", "--ell", "3", "--which", "zigzag"]) == (
        0,
        "3167841156480\n",
        "",
    )
    assert run_cli(["bounds", "--k", "2", "--ell", "5", "--which", "lower-binary"]) == (0, "148936320\n", "")
    assert run_cli(["bounds", "--k", "3", "--ell", "4", "--which", "lower-general"]) == (0, "177147\n", "")


def test_bounds_all_binary():
    code, out, _ = run_cli(["bounds", "--k", "2", "--ell", "4"])
    assert code == 0
    assert out.splitlines() == [
        "naive = 6227020800 (6.227e9)",
        "zigzag = 18018000 (1.802e7)",
        "lower_general = 104 (1.040e2)",
        "lower_binary = 936 (9.360e2)",
        "binary_T = 9009000 (9.009e6)",
        "binary_Z = 693000 (6.930e5)",
    ]


def test_bounds_json():
    code, out, _ = run_cli(["bounds", "--k", "2", "--ell", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    kinds = [r["kind"] for r in payload["reports"]]
    assert kinds == ["naive", "zigzag", "lower_general", "lower_binary", "binary_T", "binary_Z"]
    assert payload["reports"][1]["value_decimal"] == "18018000"
    assert payload["reports"][1]["mantissa"] == "1.802"


def test_bounds_binary_pair():
    code, out, _ = run_cli(["bounds", "--k", "2", "--ell", "4", "--which", "binary"])
    assert code == 0
    assert out.splitlines() == ["binary_T = 9009000 (9.009e6)", "binary_Z = 693000 (6.930e5)"]


# every value at (2,13) is over 2,000 bits, so each is printed by splitting
BOUNDS_2_13_SHA256 = "049086a1365ebe8d2196a228703a1731fb80a8eeded0e1ffaf9fa2b65acde066"


def test_bounds_all_2_13_frozen():
    code, out, _ = run_cli(["bounds", "--k", "2", "--ell", "13", "--which", "all"])
    assert code == 0
    assert len(out.encode()) == 111_628
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_2_13_SHA256


def test_bounds_never_sets_the_digit_cap(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"digit cap set to {limit}")

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", refuse)
            code, out, _ = run_cli(["bounds", "--k", "2", "--ell", "13", "--which", "all"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_2_13_SHA256


def test_bounds_usage_errors():
    code, _, err = run_cli(["bounds", "--k", "4", "--ell", "4", "--which", "lower-binary"])
    assert code == 2
    assert "needs --k 2" in err
    code, _, err = run_cli(["bounds", "--k", "2", "--ell", "2", "--which", "zigzag"])
    assert code == 2
    assert "ell" in err


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("prop", ["minmax", "zigzag-relation", "ballot"])
def test_verify_enumerated_properties(prop):
    code, out, _ = run_cli(["verify", "--k", "2", "--ell", "3", "--property", prop])
    assert code == 0
    assert out == f"property {prop} at (2,3): 6 checks, all hold\n"


def test_verify_sampled_with_seed():
    code, out, _ = run_cli(
        ["verify", "--k", "2", "--ell", "4", "--property", "ballot", "--samples", "5", "--seed", "3"]
    )
    assert code == 0
    assert out.splitlines() == ["property ballot at (2,4): 5 checks, all hold", "seed: 3"]


def test_verify_confluence():
    code, out, _ = run_cli(
        ["verify", "--k", "2", "--ell", "3", "--property", "endgame-confluence",
         "--samples", "3", "--seed", "1"]
    )
    assert code == 0
    assert "3 checks, all hold" in out


def test_verify_unlabeled_profile():
    code, out, _ = run_cli(
        ["verify", "--k", "3", "--ell", "3", "--property", "unlabeled-profile", "--samples", "25"]
    )
    assert code == 0
    assert "25 checks, all hold" in out


@pytest.mark.parametrize(
    "prop", ["minmax", "zigzag-relation", "ballot", "endgame-confluence", "unlabeled-profile"]
)
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_refuses_fewer_than_one_sample(prop, samples):
    code, out, err = run_cli(
        ["verify", "--k", "2", "--ell", "3", "--property", prop, "--samples", samples]
    )
    assert code == 2
    assert out == ""
    assert "--samples must be >= 1" in err


def test_verify_json_payload():
    code, out, _ = run_cli(["verify", "--k", "2", "--ell", "3", "--property", "ballot", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == 6
    assert payload["failures"] == []


def test_verify_reports_violations(monkeypatch):
    checked = []

    def violated(config):
        checked.append(config.to_json_dict())
        return PropertyVerdict("ballot", False, ((0, 1),))

    monkeypatch.setattr(cli, "check_ballot", violated)
    argv = ["verify", "--k", "2", "--ell", "3", "--property", "ballot"]
    code, out, _ = run_cli([*argv, "--json"])
    assert code == 1
    failures = json.loads(out)["failures"]
    assert len(failures) == 6
    assert failures == [{"config": c, "property": "ballot", "holds": False, "witnesses": [[0, 1]]} for c in checked]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == "property ballot at (2,3): 6 checks, 6 violated\n"
    lines = err.splitlines()
    assert len(lines) == 6 and all(line.startswith("violation: {") for line in lines)
    assert json.loads(lines[0].removeprefix("violation: ")) == failures[0]


def test_verify_exits_3_when_the_enumeration_is_truncated(monkeypatch):
    monkeypatch.setattr(cli, "enumerate_stable", functools.partial(enumeration.enumerate_stable, max_states=5))
    code, out, err = run_cli(["verify", "--k", "2", "--ell", "3", "--property", "minmax"])
    assert code == 3
    assert out == ""
    assert "cannot verify the full stable set" in err


# ---------------------------------------------------------------------------
# flatten / construct / oracle


def test_flatten_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        '{"k": 2, "chips": {"0": [3], "1": [2], "2": [6], "3": [1], "4": [5], "5": [4], "6": [7]}}'
    )
    code, out, _ = run_cli(["flatten", "--config", str(config)])
    assert code == 0
    assert out == "1,2,5,3,4,6,7\ninversions = 2\n"
    code, out, _ = run_cli(["flatten", "--config", str(config), "--rule", "children-first", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sequence"] == [1, 5, 2, 4, 7, 6, 3]
    assert payload["inversions"] == 7
    assert payload["rule"] == "children_first"


@pytest.mark.parametrize(
    "text",
    [
        '{"k": 2, "chips": {"0": 5}}',
        '{"k": 2, "chips": [1]}',
        '{"k": 2, "chips": {"0": [true], "1": [2]}}',
    ],
)
def test_flatten_refuses_malformed_chips(tmp_path, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    code, out, err = run_cli(["flatten", "--config", str(config)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_flatten_missing_file():
    code, _, err = run_cli(["flatten", "--config", "/nonexistent/config.json"])
    assert code == 2
    assert "No such file" in err


def test_construct_text():
    code, out, _ = run_cli(
        ["construct", "--k", "2", "--ell", "3", "--i", "1", "--c", "3", "--cprime", "5"]
    )
    assert code == 0
    assert out == "{0:[4], 1:[2], 2:[6], 3:[1], 4:[5], 5:[3], 6:[7]}\n"


def test_construct_rejects_bad_choices():
    code, _, err = run_cli(["construct", "--k", "2", "--ell", "3", "--i", "5"])
    assert code == 2
    assert "choice out of range" in err


def test_construct_symmetry_violation_exits_1(monkeypatch):
    def violated(*args):
        raise ConstructionError("symmetry violated: replay did not end at a stable state")

    monkeypatch.setattr(cli, "replay_lower_bound_construction", violated)
    code, out, err = run_cli(["construct", "--k", "2", "--ell", "3", "--i", "0"])
    assert code == 1
    assert out == ""
    assert "symmetry violated" in err


def test_construct_json_round_trips():
    code, out, _ = run_cli(
        ["construct", "--k", "2", "--ell", "4", "--i", "1", "--c", "3", "--cprime", "13", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["chips"]["0"] == [8]
    assert payload["c"] == [3]
    assert payload["cprime"] == [13]


def test_oracle_text():
    code, out, _ = run_cli(["oracle", "unlabeled", "--k", "2", "--chips", "10"])
    assert code == 0
    assert out == "{0:2, 1:2, 2:2, 3:1, 4:1, 5:1, 6:1}\n"


def test_oracle_json():
    code, out, _ = run_cli(["oracle", "unlabeled", "--k", "2", "--chips", "10", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"0": 2, "1": 2, "2": 2, "3": 1, "4": 1, "5": 1, "6": 1}
    assert payload["fires"] == {"0": 5, "1": 1, "2": 1}


# ---------------------------------------------------------------------------
# parser-level behavior


def test_unknown_subcommand_is_a_usage_error():
    code, _, err = run_cli(["nonsense"])
    assert code == 2
    assert "invalid choice" in err


def test_missing_subcommand_is_a_usage_error():
    code, _, _ = run_cli([])
    assert code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "karyfire", "bounds", "--k", "4", "--ell", "3", "--which", "zigzag"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3167841156480\n"


def test_exit_code_three_from_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "karyfire", "enumerate", "--k", "2", "--ell", "3",
         "--max-states", "5"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 3


@pytest.mark.parametrize("module", ["karyfire", "karyfire.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    """Every command runs in a fresh interpreter, which pays for each module
    the import pulls in.  Only the modules the import adds count, so an
    interpreter whose start-up already loads one of them does not fail this."""
    probe = f"import sys; before = set(sys.modules); import {module}; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=SUBPROCESS_ENV, check=True
    )
    added = set(proc.stdout.split())
    assert module in added
    assert not added & {"dataclasses", "inspect"}
