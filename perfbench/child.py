"""One benchmark op, or one set-up, inside a fresh interpreter.

    python3 perfbench/child.py [--trace FILE --op N] cli ARG...
    python3 perfbench/child.py [--trace FILE --op N] library CONFIG_JSON
    python3 perfbench/child.py setup OPS_JSON

`cli` runs `karyfire.cli.main(ARG...)`.  `library` runs the library op of
the enumerate-k2 workload on the configuration given as JSON and prints one
JSON line with what the benchmark checks.  `setup` imports karyfire and
builds the inputs of the ops in OPS_JSON (a list of [kind, args]) without
running them; the benchmark times it as the set-up of a workload.

With `--trace`, the public functions of each karyfire module that the
benchmark measures are wrapped in spans before the op runs.  Spans stay in
memory and are written to FILE as JSON when the op ends.  `tree` is not
wrapped: its functions run per vertex inside the other layers, so their
cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext

# The functions wrapped in spans, by karyfire module (the span's layer).
TRACED_FUNCTIONS = {
    "cli": ("main",),
    "enumeration": ("enumerate_stable", "dump_stable"),
    "engine": ("stabilize",),
    "analysis": ("check_minmax_descendants", "check_zigzag_relation", "check_ballot", "max_inversions"),
    "bounds": (
        "naive_bound",
        "zigzag_bound",
        "lower_bound_general",
        "lower_bound_binary",
        "binary_zigzag_bound",
    ),
}
TRACED_METHODS = {
    "enumeration": ("EnumerationResult", ("iter_stable",)),
    "bounds": ("BoundReport", ("decimal", "sci")),
}


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _enumeration_attrs(result, rss_before: int) -> dict:
    states = result.states_explored
    return {
        "states": states,
        "memo_hits": result.memo_hits,
        "stable": len(result.stable_keys),
        "edges": states + result.memo_hits - 1,
        "new_states": states - 1,
        "rss_growth_bytes": _peak_rss_bytes() - rss_before,
    }


# Counters read off a traced call's result; the second argument is the RSS
# taken just before the call, for the spans in RSS_SPANS (None otherwise).
RSS_SPANS = {"enumeration.enumerate_stable"}
SPAN_ATTRS = {
    "enumeration.enumerate_stable": _enumeration_attrs,
    "engine.stabilize": lambda result, _: {"fires": len(result[1])},
    "analysis.check_minmax_descendants": lambda result, _: {"configs": 1},
    "analysis.check_zigzag_relation": lambda result, _: {"configs": 1},
    "analysis.check_ballot": lambda result, _: {"configs": 1},
    "bounds.decimal": lambda result, _: {"digits": len(result)},
}


class Tracer:
    """In-memory spans of one op: name, start, end, parent span, op id, counters."""

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op_id,
            "attrs": {},
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        attrs_of = SPAN_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss_before = _rss_bytes() if name in RSS_SPANS else None
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                record["attrs"] = attrs_of(result, rss_before)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a karyfire module binds it."""
        modules = [m for key, m in sys.modules.items() if key == "karyfire" or key.startswith("karyfire.")]
        for layer, names in TRACED_FUNCTIONS.items():
            home = sys.modules[f"karyfire.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
        for layer, (cls_name, methods) in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"karyfire.{layer}"], cls_name)
            for method in methods:
                setattr(cls, method, self.wrap(f"{layer}.{method}", getattr(cls, method)))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def run_library(config_json: str) -> int:
    """The enumerate-k2 op: enumerate, check ballot on every stable config, max inversions."""
    from karyfire import analysis, engine, enumeration

    config = engine.Configuration.from_json_dict(json.loads(config_json))
    result = enumeration.enumerate_stable(config)
    stable = list(result.iter_stable())
    keys = sorted(enumeration.canonical_key(c) for c in stable)
    ballot = all(analysis.check_ballot(c).holds for c in stable)
    best, _ = analysis.max_inversions(result)
    print(
        json.dumps(
            {
                "count": len(stable),
                "keys_sha256": hashlib.sha256(b"\n".join(keys)).hexdigest(),
                "ballot_holds": ballot,
                "max_inversions": best,
                "truncated": result.truncated,
            },
            sort_keys=True,
        )
    )
    return 0


def run_setup(ops_json: str) -> int:
    """Build every op's input as the op itself would, without running it."""
    from karyfire import cli, engine

    parser = cli.build_parser()
    for kind, args in json.loads(ops_json):
        if kind == "library":
            engine.Configuration.from_json_dict(json.loads(args[0]))
        else:
            parser.parse_args(args)
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    op_id = 0
    while argv and argv[0] in ("--trace", "--op"):
        if argv[0] == "--trace":
            trace_path = argv[1]
        else:
            op_id = int(argv[1])
        argv = argv[2:]
    mode, rest = argv[0], argv[1:]
    tracer = Tracer(op_id) if trace_path else None
    try:
        with tracer.span("process.import") if tracer else nullcontext():
            import karyfire.cli  # imports every layer
        if tracer:
            tracer.install()
        if mode == "cli":
            return karyfire.cli.main(rest)
        if mode == "library":
            return run_library(rest[0])
        if mode == "setup":
            return run_setup(rest[0])
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    finally:
        if tracer:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
