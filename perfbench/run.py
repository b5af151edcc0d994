"""Closed-loop benchmark of the karyfire command line and library.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate-k3 --seed 1 --seconds 30 --trace 0

One client sends one op at a time and waits for it (a closed loop, never
more than one op in flight).  Every op runs in a fresh interpreter, as a
user's command does, so no cache or interpreter-wide setting carries over
from one op to the next.  The workloads are listed in BENCHMARK.json with
the reason for each; `--size tiny` runs the same ops at small sizes for the
benchmark's own tests.

Every op's output is checked against values that do not depend on engine
internals (counts, digests, the abelian fire-count invariant, an exact
factorial).  A wrong exit code or a failed check makes the op a failed op.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs each op once
traced and once untraced, and prints the per-layer metrics: each layer's
self time, counters read off its calls, and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give
the run context, the error rate and the tail percentile used.  The full
record of the run (context, every op, every span) is written to
`.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"
DUMP = ".perfbench_work/dump.ndjson"  # relative to ROOT, the children's working directory

WORKLOADS = ("enumerate-k3", "enumerate-k2", "sample", "bounds")
SETUP_REPEATS = 8  # the set-up is timed again every seconds / SETUP_REPEATS of a run
OP_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # the tail percentile must leave at least this many samples beyond it

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "trace.op_s.p50": "s",
    "trace.untraced_op_s.p50": "s",
    "trace.overhead_s": "s",
    "trace.op_s.mean": "s",
    "process.import_s": "s",
    "process.self_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "enumeration.self_s": "s",
    "enumeration.enumerate_stable_s": "s",
    "enumeration.states": "count",
    "enumeration.memo_hits": "count",
    "enumeration.stable": "count",
    "enumeration.edges": "count",
    "enumeration.edges_per_s": "1/s",
    "enumeration.new_state_ratio": "ratio",
    "enumeration.bytes_per_state": "B",
    "enumeration.dump_stable_s": "s",
    "engine.self_s": "s",
    "engine.stabilize_s": "s",
    "engine.fires": "count",
    "engine.fires_per_s": "1/s",
    "analysis.self_s": "s",
    "analysis.check_minmax_descendants_s": "s",
    "analysis.check_ballot_s": "s",
    "analysis.max_inversions_s": "s",
    "analysis.us_per_config": "us",
    "bounds.self_s": "s",
    "bounds.naive_bound_s": "s",
    "bounds.zigzag_bound_s": "s",
    "bounds.lower_bound_general_s": "s",
    "bounds.lower_bound_binary_s": "s",
    "bounds.binary_zigzag_bound_s": "s",
    "bounds.decimal_s": "s",
    "bounds.sci_s": "s",
    "bounds.digits": "count",
    "bounds.digits_per_s": "1/s",
}
LAYERS = ("process", "cli", "enumeration", "engine", "analysis", "bounds")

# Expected outputs.  Digests are SHA-256 of: the dump's configuration lines
# (summary record excluded), the sorted canonical keys joined by newlines,
# the `lowest` trace as compact sorted-key JSON, and the whole bounds stdout.
EXPECTED = {
    "full": {
        "enumerate": {"k": 3, "ell": 3, "count": 744, "dump_sha256": "3ccc617e42e5170c996f6f3f26fdf10e9e8e6c63086f8a555d36e1c519eb8f1f"},
        "library": {
            "config": {"k": 2, "chips": {"0": [12, 14, 15], "1": [1, 2, 4, 6, 8, 10], "2": [3, 5, 7, 9, 11, 13]}},
            "count": 950,
            "keys_sha256": "b04d30c46bbae84474c6d1cba471a201ab3aa25f70ddbd266bc200dbd8c9855a",
            "max_inversions": 22,
        },
        "simulate": {"k": 2, "ell": 11, "trace_sha256": "4bddad1ba036db4697858568492840fca5c05d7045c932d5f5577baeac385538"},
        "verify": {"k": 2, "ell": 10},
        "bounds": {"k": 2, "ell": 16, "stdout_sha256": "a743257b424529f591472839e855ceaa0bb499400582e13a2296cf98204e7b25"},
    },
    "tiny": {
        "enumerate": {"k": 2, "ell": 3, "count": 6, "dump_sha256": "3cb51f8048ef434b5a6d560b85285a1d83af1298d7c2caa6a8f84b65e0148efe"},
        "library": {
            "config": {"k": 2, "chips": {"0": [1, 2, 3, 4, 5, 6, 7]}},
            "count": 6,
            "keys_sha256": "3cb51f8048ef434b5a6d560b85285a1d83af1298d7c2caa6a8f84b65e0148efe",
            "max_inversions": 3,
        },
        "simulate": {"k": 2, "ell": 5, "trace_sha256": "8c23c95a755aa1f5ee34538c1cb7a5c2a635e3069bda1b4a0d1a0f76fef743d3"},
        "verify": {"k": 2, "ell": 5},
        "bounds": {"k": 2, "ell": 6, "stdout_sha256": "61a1143b34c4ecac25d4dfd5d627a08250ae9be3a6b2cea238baf08c007d75af"},
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def n_vertices(k: int, ell: int) -> int:
    return (k**ell - 1) // (k - 1)


# ---------------------------------------------------------------------------
# ops


@dataclass(frozen=True)
class Op:
    """One op: `kind` names its check; `args` are CLI arguments, or the
    start configuration as JSON for the library op."""

    kind: str
    args: tuple[str, ...]


def workload_round(workload: str, expect: dict, rng: random.Random) -> list[Op]:
    """One op of each kind the workload runs.  Only `sample` draws from the seed."""
    if workload == "enumerate-k3":
        e = expect["enumerate"]
        return [Op("enumerate", ("enumerate", "--k", str(e["k"]), "--ell", str(e["ell"]), "--json", "--dump", DUMP))]
    if workload == "enumerate-k2":
        return [Op("library", (json.dumps(expect["library"]["config"], sort_keys=True),))]
    if workload == "sample":
        s, v = expect["simulate"], expect["verify"]
        seed = rng.randrange(1, 2**31)
        return [
            Op("simulate", ("simulate", "--k", str(s["k"]), "--ell", str(s["ell"]), "--json")),
            Op(
                "verify",
                ("verify", "--k", str(v["k"]), "--ell", str(v["ell"]), "--property", "minmax",
                 "--samples", "1", "--seed", str(seed), "--json"),
            ),
        ]
    if workload == "bounds":
        b = expect["bounds"]
        return [Op("bounds", ("bounds", "--k", str(b["k"]), "--ell", str(b["ell"]), "--which", "all"))]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    op: Op
    op_id: int
    traced: bool
    start: float
    wall_s: float
    exit_code: int
    rss_kb: int
    stdout: bytes = b""
    spans: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same set layout on every op, so timings do not depend on it
    return env


def spawn(cmd: list[str], env: dict, stdout_path: Path) -> tuple[float, float, int, int]:
    """Run `cmd` to completion; return (start, wall seconds, exit code, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(WORK / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, proc.returncode, usage.ru_maxrss


def run_op(op: Op, op_id: int, traced: bool, env: dict, checker: "Checker") -> Outcome:
    trace_path = WORK / "spans.json"
    for stale in (trace_path, ROOT / DUMP):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable]
    if traced or op.kind == "library":
        cmd += [str(CHILD)]
        if traced:
            cmd += ["--trace", str(trace_path), "--op", str(op_id)]
        cmd += ["library" if op.kind == "library" else "cli", *op.args]
    else:
        cmd += ["-m", "karyfire", *op.args]
    stdout_path = WORK / "stdout"
    start, wall, code, rss_kb = spawn(cmd, env, stdout_path)
    outcome = Outcome(op, op_id, traced, start, wall, code, rss_kb, stdout_path.read_bytes())
    if code != 0:
        outcome.failures.append(f"exit code {code}: {(WORK / 'stderr').read_text(errors='replace')[-300:]}")
    try:
        outcome.failures += checker.check(op, outcome.stdout)
        if traced:
            outcome.spans = json.loads(trace_path.read_text())
            outcome.failures += checker.check_spans(op, outcome.spans)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
        outcome.failures.append(f"unreadable output: {err!r}")
    return outcome


# ---------------------------------------------------------------------------
# output checks


def decimal_string(n: int) -> str:
    """Exact decimal digits of n >= 0 by splitting on powers of ten.

    Keeps every str() call under the interpreter's default digit cap, so
    nothing process-wide changes.
    """
    if n.bit_length() <= 12000:  # at most ~3613 digits
        return str(n)
    half = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(n, 10**half)
    return decimal_string(high) + decimal_string(low).zfill(half)


class Checker:
    """Checks one op's output against the expected values of one size."""

    def __init__(self, expect: dict, kinds: set[str]) -> None:
        self.expect = expect
        self.fires: dict[str, int] = {}
        self.naive = None
        if kinds & {"simulate", "verify"}:
            if str(ROOT / "src") not in sys.path:
                sys.path.insert(0, str(ROOT / "src"))
            from karyfire.engine import unlabeled_fire_counts
            from karyfire.tree import TreeShape

            for kind in ("simulate", "verify"):
                e = expect[kind]
                n = n_vertices(e["k"], e["ell"])
                self.fires[kind] = sum(unlabeled_fire_counts(TreeShape(e["k"]), n).values())
        if "bounds" in kinds:
            e = expect["bounds"]
            self.naive = decimal_string(math.factorial(n_vertices(e["k"], e["ell"]) - 2))

    def check(self, op: Op, stdout: bytes) -> list[str]:
        return getattr(self, f"_check_{op.kind}")(stdout)

    def check_spans(self, op: Op, spans: list[dict]) -> list[str]:
        """In a traced op, every labeled stabilize fires as often as the unlabeled oracle."""
        fails = []
        for s in spans:
            if s["name"] == "engine.stabilize" and s["attrs"]["fires"] != self.fires[op.kind]:
                fails.append(f"stabilize fired {s['attrs']['fires']} times, oracle says {self.fires[op.kind]}")
        return fails

    def _check_enumerate(self, stdout: bytes) -> list[str]:
        e = self.expect["enumerate"]
        fails = []
        payload = json.loads(stdout)
        if payload["count"] != e["count"] or payload["truncated"]:
            fails.append(f"count {payload['count']} (truncated={payload['truncated']}), expected {e['count']}")
        lines = (ROOT / DUMP).read_bytes().splitlines()
        configs = [line for line in lines if json.loads(line).get("type") != "summary"]
        if len(configs) != e["count"]:
            fails.append(f"dump has {len(configs)} configurations, expected {e['count']}")
        digest = sha256(b"\n".join(configs))
        if digest != e["dump_sha256"]:
            fails.append(f"dump digest {digest}, expected {e['dump_sha256']}")
        return fails

    def _check_library(self, stdout: bytes) -> list[str]:
        e = self.expect["library"]
        got = json.loads(stdout)
        fails = []
        if got["truncated"] or got["count"] != e["count"]:
            fails.append(f"count {got['count']} (truncated={got['truncated']}), expected {e['count']}")
        if got["keys_sha256"] != e["keys_sha256"]:
            fails.append(f"keys digest {got['keys_sha256']}, expected {e['keys_sha256']}")
        if got["ballot_holds"] is not True:
            fails.append("ballot property fails on some stable configuration")
        if got["max_inversions"] != e["max_inversions"]:
            fails.append(f"max inversions {got['max_inversions']}, expected {e['max_inversions']}")
        return fails

    def _check_simulate(self, stdout: bytes) -> list[str]:
        e = self.expect["simulate"]
        n = n_vertices(e["k"], e["ell"])
        payload = json.loads(stdout)
        fails = []
        chips = payload["config"]["chips"]
        if sorted(map(int, chips)) != list(range(n)) or any(len(p) != 1 for p in chips.values()):
            fails.append(f"final configuration is not one chip on each of the {n} vertices")
        elif sorted(p[0] for p in chips.values()) != list(range(1, n + 1)):
            fails.append("final configuration does not hold chips 1..N")
        trace = payload["trace"]
        if len(trace) != self.fires["simulate"]:
            fails.append(f"{len(trace)} fires, the unlabeled oracle says {self.fires['simulate']}")
        digest = sha256(json.dumps(trace, sort_keys=True, separators=(",", ":")).encode())
        if digest != e["trace_sha256"]:
            fails.append(f"trace digest {digest}, expected {e['trace_sha256']}")
        return fails

    def _check_verify(self, stdout: bytes) -> list[str]:
        payload = json.loads(stdout)
        if payload["checks"] != 1 or payload["failures"]:
            return [f"verify made {payload['checks']} checks with {len(payload['failures'])} failures"]
        return []

    def _check_bounds(self, stdout: bytes) -> list[str]:
        e = self.expect["bounds"]
        fails = []
        digest = sha256(stdout)
        if digest != e["stdout_sha256"]:
            fails.append(f"stdout digest {digest}, expected {e['stdout_sha256']}")
        first = stdout.split(b"\n", 1)[0].decode()
        if not first.startswith(f"naive = {self.naive} ("):
            fails.append("naive bound differs from factorial(N-2)")
        return fails


# ---------------------------------------------------------------------------
# the loop


def run_setup(workload: str, expect: dict, seed: int, env: dict) -> float:
    """Time from starting the workload to its first op being ready: build the
    ops from the seed, start an interpreter, import karyfire, build the inputs."""
    start = time.perf_counter()
    ops = workload_round(workload, expect, random.Random(seed))
    spec = json.dumps([[op.kind, list(op.args)] for op in ops])
    _, _, code, _ = spawn([sys.executable, str(CHILD), "setup", spec], env, WORK / "stdout")
    if code != 0:
        raise RuntimeError(f"set-up failed with exit code {code}: {(WORK / 'stderr').read_text()[-300:]}")
    return time.perf_counter() - start


def run_loop(workload: str, expect: dict, seed: int, seconds: float, trace: bool, env: dict, checker: Checker,
             setups: list[float]):
    """Run whole rounds until the next one would end past the deadline (the
    first round always runs).  With tracing, a round runs each op traced and
    untraced, alternating which goes first.

    Between rounds, the set-up is timed again every `seconds / SETUP_REPEATS`
    and appended to `setups`, so its samples span the run as the ops do.
    """
    rng = random.Random(seed)
    last_setup = time.perf_counter()
    deadline = last_setup + seconds
    outcomes: list[Outcome] = []
    walls: dict[str, list[float]] = defaultdict(list)
    rounds = 0
    while True:
        plan = []
        for op in workload_round(workload, expect, rng):
            pair = [True, False] if rounds % 2 == 0 else [False, True]
            plan += [(op, traced) for traced in pair] if trace else [(op, False)]
        if outcomes:
            need = sum(statistics.median(walls[op.kind]) for op, _ in plan)
            if time.perf_counter() + need > deadline:
                break
        for op, traced in plan:
            outcome = run_op(op, len(outcomes), traced, env, checker)
            outcomes.append(outcome)
            walls[op.kind].append(outcome.wall_s)
        rounds += 1
        if time.perf_counter() - last_setup >= seconds / SETUP_REPEATS:
            setups.append(run_setup(workload, expect, seed, env))
            last_setup = time.perf_counter()
    return outcomes


# ---------------------------------------------------------------------------
# metrics


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it.  With fewer than 2 * TAIL_BEYOND + 1 samples that percentile
    would fall below the median, so the upper middle sample stands in."""
    ordered = sorted(walls)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(outcomes: list[Outcome], setups: list[float]) -> dict[str, float]:
    walls = [o.wall_s for o in outcomes]
    rss_by_kind = defaultdict(list)
    for o in outcomes:
        rss_by_kind[o.op.kind].append(o.rss_kb)
    # Peak RSS is the median over ops of one kind, for the kind that needs the most.
    return {
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail(walls)[0],
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(statistics.median(rss) for rss in rss_by_kind.values()) / 1024,
        "setup_s": statistics.median(setups),
    }


def op_profile(outcome: Outcome) -> dict[str, float]:
    """Additive per-layer quantities of one traced op.

    Self time is a span's duration minus its child spans' durations.  The
    op itself is the root span, measured by the parent from spawn to exit,
    so process self time is interpreter start-up, import, harness and exit,
    and the layers' self times add up to the op's wall time.
    """
    spans = outcome.spans
    dur = [s["end"] - s["start"] for s in spans]
    children = defaultdict(float)
    top = 0.0
    for s, d in zip(spans, dur):
        if s["parent"] is None:
            top += d
        else:
            children[s["parent"]] += d
    prof = defaultdict(float)
    prof["process.self_s"] += outcome.wall_s - top
    for i, (s, d) in enumerate(zip(spans, dur)):
        layer = s["name"].split(".")[0]
        prof[f"{layer}.self_s"] += d - children[i]
        prof[f"{s['name']}_s"] += d
        for key, value in s["attrs"].items():
            prof[f"{layer}.{key}"] += value
    if outcome.op.kind != "library":
        prof["cli.stdout_bytes"] += len(outcome.stdout)
    return prof


def per_layer(outcomes: list[Outcome]) -> dict[str, float]:
    traced = [o for o in outcomes if o.traced]
    untraced = [o for o in outcomes if not o.traced]
    total = defaultdict(float)
    for o in traced:
        for key, value in op_profile(o).items():
            total[key] += value
    per_op = {key: value / len(traced) for key, value in total.items()}

    def get(key):
        return per_op.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    traced_p50 = statistics.median(o.wall_s for o in traced)
    untraced_p50 = statistics.median(o.wall_s for o in untraced)
    derived = {
        "trace.op_s.p50": traced_p50,
        "trace.untraced_op_s.p50": untraced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.op_s.mean": statistics.fmean(o.wall_s for o in traced),
        "enumeration.edges_per_s": ratio(get("enumeration.edges"), get("enumeration.enumerate_stable_s")),
        "enumeration.new_state_ratio": ratio(get("enumeration.new_states"), get("enumeration.edges")),
        "enumeration.bytes_per_state": ratio(get("enumeration.rss_growth_bytes"), get("enumeration.states")),
        "engine.fires_per_s": ratio(get("engine.fires"), get("engine.stabilize_s")),
        "analysis.us_per_config": 1e6
        * ratio(
            get("analysis.check_minmax_descendants_s")
            + get("analysis.check_zigzag_relation_s")
            + get("analysis.check_ballot_s"),
            get("analysis.configs"),
        ),
        "bounds.digits_per_s": ratio(get("bounds.digits"), get("bounds.decimal_s")),
    }
    return {name: derived[name] if name in derived else get(name) for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# run context


def run_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(EXPECTED), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "karyfire" / "__init__.py").is_file():
        print(f"error: no karyfire sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    expect = EXPECTED[args.size]
    env = child_env()
    kinds = {op.kind for op in workload_round(args.workload, expect, random.Random(args.seed))}
    checker = Checker(expect, kinds)
    run_setup(args.workload, expect, args.seed, env)  # writes bytecode caches, as an install does
    setups = [run_setup(args.workload, expect, args.seed, env)]
    outcomes = run_loop(args.workload, expect, args.seed, args.seconds, bool(args.trace), env, checker, setups)

    metrics = per_layer(outcomes) if args.trace else end_to_end(outcomes, setups)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = [o for o in outcomes if o.failures]
    context = run_context()
    walls = [o.wall_s for o in outcomes if not o.traced]
    _, tail_pct = tail(walls)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "ops": len(outcomes),
        "failed": len(failed),
        "error_rate": len(failed) / len(outcomes),
        "tail_percentile": tail_pct,
        "setup_s": setups,
    }
    print("context " + json.dumps(context, sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    beyond = round(len(walls) * (100.0 - tail_pct) / 100.0)
    print(f"op_s.tail is p{tail_pct:.1f} of {len(walls)} untraced ops ({beyond} beyond it)")
    for o in failed[:5]:
        print(f"failed op {o.op_id} ({o.op.kind}): {'; '.join(o.failures)}")
    if args.trace:
        self_times = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
        print(
            "self time per op: "
            + ", ".join(f"{layer} {t:.4f} s" for layer, t in self_times.items())
            + f"; sum {sum(self_times.values()):.4f} s = traced mean op {metrics['trace.op_s.mean']:.4f} s"
        )

    record = {
        "context": context,
        "summary": summary,
        "metrics": metrics,
        "ops": [
            {"id": o.op_id, "kind": o.op.kind, "args": list(o.op.args), "traced": o.traced,
             "wall_s": o.wall_s, "exit_code": o.exit_code, "rss_kb": o.rss_kb, "failures": o.failures}
            for o in outcomes
        ],
        # Each traced op is a root span; its spans with parent None are its children.
        "traces": [
            {"op": o.op_id, "name": "op", "start": o.start, "end": o.start + o.wall_s, "spans": o.spans}
            for o in outcomes if o.traced
        ],
    }
    out = WORK / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
