"""Tests of the benchmark itself, at the tiny sizes.

    python3 -m pytest perfbench

Tiny mode runs (2,3) enumerate, (2,5) sample and (2,6) bounds, so the whole
file takes well under a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

# Every metric the benchmark's definition asks for, by name.  The error
# rate is carried by the result's `attempted` and `failed` keys instead.
NAMED_END_TO_END = {"op_s.p50", "op_s.tail", "ops_per_s", "peak_rss_mb", "setup_s"}
NAMED_PER_LAYER = {
    "enumeration.enumerate_stable_s",
    "enumeration.states",
    "enumeration.memo_hits",
    "enumeration.stable",
    "enumeration.edges",
    "enumeration.edges_per_s",
    "enumeration.new_state_ratio",
    "enumeration.bytes_per_state",
    "enumeration.dump_stable_s",
    "engine.stabilize_s",
    "engine.fires",
    "engine.fires_per_s",
    "analysis.check_minmax_descendants_s",
    "analysis.us_per_config",
    "analysis.check_ballot_s",
    "analysis.max_inversions_s",
    "bounds.naive_bound_s",
    "bounds.zigzag_bound_s",
    "bounds.lower_bound_general_s",
    "bounds.lower_bound_binary_s",
    "bounds.binary_zigzag_bound_s",
    "bounds.decimal_s",
    "bounds.sci_s",
    "bounds.digits",
    "bounds.digits_per_s",
    "cli.main_s",
    "cli.self_s",
    "cli.stdout_bytes",
    "trace.overhead_s",
}


def bench(workload: str, trace: int = 0, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def spec_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_names_every_metric_the_harness_prints():
    assert spec_units("end_to_end") == run.END_TO_END_UNITS
    assert spec_units("per_layer") == run.PER_LAYER_UNITS
    assert NAMED_END_TO_END <= set(run.END_TO_END_UNITS)
    assert NAMED_PER_LAYER <= set(run.PER_LAYER_UNITS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_prints_every_metric_with_its_unit(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = spec_units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counters_repeat_exactly():
    counters = ("enumeration.states", "enumeration.memo_hits", "enumeration.stable", "enumeration.edges")
    first, second = (last_json(bench("enumerate-k3", 1).stdout)["metrics"] for _ in range(2))
    assert [first[c]["value"] for c in counters] == [second[c]["value"] for c in counters]
    assert first["enumeration.stable"]["value"] == 6


def test_traced_sample_fires_match_the_unlabeled_oracle():
    metrics = last_json(bench("sample", 1).stdout)["metrics"]
    # Each round runs one traced simulate and one traced verify at (2,5):
    # both stabilize 31 chips, so every traced op fires the oracle's count.
    from karyfire import TreeShape, unlabeled_fire_counts

    oracle = sum(unlabeled_fire_counts(TreeShape(2), 31).values())
    assert metrics["engine.fires"]["value"] == oracle


@pytest.mark.parametrize(
    "workload, kind, key",
    [
        ("enumerate-k3", "enumerate", "dump_sha256"),
        ("enumerate-k2", "library", "keys_sha256"),
        ("sample", "simulate", "trace_sha256"),
        ("bounds", "bounds", "stdout_sha256"),
    ],
)
def test_a_corrupted_expected_digest_fails_ops_without_crashing(monkeypatch, capsys, workload, kind, key):
    monkeypatch.setitem(run.EXPECTED["tiny"][kind], key, "0" * 64)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--size", "tiny"])
    assert code == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] >= 1
    expected_failed = result["attempted"] // 2 if workload == "sample" else result["attempted"]
    assert result["failed"] == expected_failed
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("bounds", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_only_sample_draws_from_the_seed():
    expect = run.EXPECTED["full"]

    def ops(workload, seed):
        rng = random.Random(seed)
        return [run.workload_round(workload, expect, rng) for _ in range(3)]

    assert ops("sample", 1) == ops("sample", 1)
    assert ops("sample", 1) != ops("sample", 2)
    for workload in ("enumerate-k3", "enumerate-k2", "bounds"):
        assert ops(workload, 1) == ops(workload, 2)


def test_tail_leaves_ten_samples_beyond_and_never_falls_below_the_median():
    walls = [float(i) for i in range(25)]
    assert run.tail(walls) == (14.0, 60.0)
    assert run.tail(walls[:21]) == (10.0, 100.0 * 11 / 21)
    assert run.tail(walls[:15]) == (7.0, 100.0 * 8 / 15)
    assert run.tail(walls[:4]) == (2.0, 75.0)


def test_decimal_string_is_exact():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n in (0, 7, 10**4000, 3**30000 - 1, 2**60000 + 12345):
            assert run.decimal_string(n) == str(n)
    finally:
        sys.set_int_max_str_digits(limit)
