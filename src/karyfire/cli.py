"""Command-line interface: simulate, enumerate, bound, verify, flatten, construct.

Exit codes: 0 success, 1 property violation or failed run, 2 usage or bad
input, 3 enumeration truncated.  JSON output (--json) carries a
format_version field and echoes any seed that fed randomness, so every
run can be reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    check_ballot,
    check_minmax_descendants,
    check_zigzag_relation,
    flatten,
    inversions,
    replay_lower_bound_construction,
)
from .bounds import (
    FormulaError,
    binary_zigzag_bound,
    lower_bound_binary,
    lower_bound_general,
    naive_bound,
    zigzag_bound,
)
from .engine import (
    Configuration,
    EngineError,
    initial_config,
    parse_script,
    random_endgame_start,
    stabilize,
    unlabeled_profile,
    unlabeled_relaxation,
    unlabeled_simulate,
)
from .enumeration import (
    DEFAULT_MAX_STABLE,
    DEFAULT_MAX_STATES,
    EnumerationTruncated,
    check_state_size,
    dump_stable,
    enumerate_stable,
    verify_endgame_confluence,
)
from .tree import TreeShape, layer_start

FORMAT_VERSION = 1


class UsageError(ValueError):
    """Bad flag combination or bad input data (exit code 2, like any ValueError)."""


def _emit_json(payload: dict) -> None:
    payload = {"format_version": FORMAT_VERSION, **payload}
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    shape = TreeShape(args.k)
    check_state_size(shape, args.ell)
    config = initial_config(shape, args.ell)
    policy, script = args.policy, None
    if args.script is not None:
        with open(args.script, encoding="utf-8") as fh:
            script = parse_script(fh.read())
        policy = "script"
    elif policy == "random" and args.seed is None:
        raise UsageError("--policy random needs --seed")
    final, trace = stabilize(config, policy, script=script, seed=args.seed)
    if args.json:
        payload = {
            "command": "simulate",
            "k": args.k,
            "ell": args.ell,
            "policy": policy,
            "config": final.to_json_dict(),
            "trace": [{"vertex": m.vertex, "selected": list(m.selected)} for m in trace],
        }
        if policy == "random":
            payload["seed"] = args.seed
        _emit_json(payload)
    else:
        print(final)
        if policy == "random":
            print(f"seed: {args.seed}")
        for move in trace:
            print(f"fire {move.vertex}: {' '.join(map(str, move.selected))}")
    return 0


def cmd_enumerate(args) -> int:
    shape = TreeShape(args.k)
    check_state_size(shape, args.ell)
    result = enumerate_stable(
        initial_config(shape, args.ell),
        max_states=args.max_states,
        max_stable=args.max_stable,
        endgame_shortcut=not args.no_endgame_shortcut,
    )
    if args.dump is not None:
        with open(args.dump, "w", encoding="utf-8") as fh:
            dump_stable(result, fh)
    if args.json:
        _emit_json(
            {
                "command": "enumerate",
                "k": args.k,
                "ell": args.ell,
                "count": len(result.stable_keys),
                "states_explored": result.states_explored,
                "memo_hits": result.memo_hits,
                "level_widths": list(result.level_widths),
                "truncated": result.truncated,
            }
        )
    elif result.truncated:
        print(
            f"truncated after {result.states_explored} states; "
            f"partial stable count = {len(result.stable_keys)}",
            file=sys.stderr,
        )
    else:
        print(f"Z = {len(result.stable_keys)}")
    return 3 if result.truncated else 0


def _bound_reports(args) -> list:
    which = args.which
    if which in ("binary", "lower-binary") and args.k != 2:
        raise UsageError(f"--which {which} needs --k 2")
    if which == "naive":
        return [naive_bound(args.k, args.ell)]
    if which == "zigzag":
        return [zigzag_bound(args.k, args.ell)]
    if which == "binary":
        return [binary_zigzag_bound(args.ell, "T"), binary_zigzag_bound(args.ell, "Z")]
    if which == "lower-binary":
        return [lower_bound_binary(args.ell)]
    if which == "lower-general":
        return [lower_bound_general(args.k, args.ell)]
    reports = [
        naive_bound(args.k, args.ell),
        zigzag_bound(args.k, args.ell),
        lower_bound_general(args.k, args.ell),
    ]
    if args.k == 2:
        reports.append(lower_bound_binary(args.ell))
        if args.ell >= 4:
            reports.append(binary_zigzag_bound(args.ell, "T"))
            reports.append(binary_zigzag_bound(args.ell, "Z"))
    return reports


def cmd_bounds(args) -> int:
    reports = _bound_reports(args)
    if args.json:
        _emit_json(
            {
                "command": "bounds",
                "which": args.which,
                "reports": [r.to_json_dict() for r in reports],
            }
        )
    elif len(reports) == 1:
        print(reports[0].decimal())
    else:
        for r in reports:
            print(f"{r.kind} = {r.decimal()} ({r.sci()})")
    return 0


def cmd_verify(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    shape = TreeShape(args.k)
    prop = args.property
    failures: list[dict] = []
    checks = 0
    used_seed = None

    if prop in ("minmax", "zigzag-relation", "ballot"):
        checker = {
            "minmax": check_minmax_descendants,
            "zigzag-relation": check_zigzag_relation,
            "ballot": check_ballot,
        }[prop]
        check_state_size(shape, args.ell)
        if args.samples is not None:
            used_seed = args.seed
            configs = (
                stabilize(initial_config(shape, args.ell), "random", seed=args.seed + idx)[0]
                for idx in range(args.samples)
            )
        else:
            result = enumerate_stable(initial_config(shape, args.ell))
            if result.truncated:
                raise EnumerationTruncated("enumeration truncated — cannot verify the full stable set")
            configs = result.iter_stable()
        for config in configs:
            verdict = checker(config)
            checks += 1
            if not verdict.holds:
                failures.append({"config": config.to_json_dict(), **verdict.to_json_dict()})
    elif prop == "endgame-confluence":
        samples = args.samples if args.samples is not None else 20
        used_seed = args.seed
        check_state_size(shape, args.ell)
        for idx in range(samples):
            config = random_endgame_start(shape, args.ell, args.seed + idx)
            checks += 1
            if not verify_endgame_confluence(config):
                failures.append({"config": config.to_json_dict(), "property": prop, "holds": False})
    else:  # unlabeled-profile
        limit = args.samples if args.samples is not None else 100
        for n in range(1, limit + 1):
            checks += 1
            expected = {
                v: per_vertex
                for depth, per_vertex in enumerate(unlabeled_profile(shape, n), start=1)
                for v in range(layer_start(shape, depth), layer_start(shape, depth + 1))
            }
            if unlabeled_simulate(shape, n) != expected:
                failures.append({"property": prop, "holds": False, "chips": n})

    if args.json:
        payload = {
            "command": "verify",
            "property": prop,
            "k": args.k,
            "ell": args.ell,
            "checks": checks,
            "failures": failures,
        }
        if used_seed is not None:
            payload["seed"] = used_seed
        _emit_json(payload)
    else:
        status = "all hold" if not failures else f"{len(failures)} violated"
        print(f"property {prop} at ({args.k},{args.ell}): {checks} checks, {status}")
        if used_seed is not None:
            print(f"seed: {used_seed}")
        for failure in failures:
            print(f"violation: {json.dumps(failure, sort_keys=True)}", file=sys.stderr)
    return 1 if failures else 0


def cmd_flatten(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = Configuration.from_json(fh.read())
    rule = "children_first" if args.rule == "children-first" else "inorder"
    perm = flatten(config, rule)
    count = inversions(perm)
    if args.json:
        _emit_json(
            {
                "command": "flatten",
                "rule": rule,
                "sequence": list(perm.sequence),
                "inversions": count,
            }
        )
    else:
        print(perm.as_line())
        print(f"inversions = {count}")
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as err:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from err


def cmd_construct(args) -> int:
    check_state_size(TreeShape(args.k), args.ell)
    c, cprime = _int_list(args.c), _int_list(args.cprime)
    config = replay_lower_bound_construction(args.k, args.ell, args.i, c, cprime)
    if args.json:
        _emit_json(
            {
                "command": "construct",
                "k": args.k,
                "ell": args.ell,
                "i": args.i,
                "c": list(c),
                "cprime": list(cprime),
                "config": config.to_json_dict(),
            }
        )
    else:
        print(config)
    return 0


def cmd_oracle(args) -> int:
    counts, fires = unlabeled_relaxation(TreeShape(args.k), args.chips)
    if args.json:
        _emit_json(
            {
                "command": "oracle",
                "kind": "unlabeled",
                "k": args.k,
                "chips": args.chips,
                "counts": {str(v): c for v, c in sorted(counts.items())},
                "fires": {str(v): c for v, c in sorted(fires.items())},
            }
        )
    else:
        print("{" + ", ".join(f"{v}:{c}" for v, c in sorted(counts.items())) + "}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karyfire",
        description="Labeled chip-firing on looped k-ary trees: simulation, enumeration, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--k", type=int, required=True, help="tree arity (>= 2)")
        p.add_argument("--ell", type=int, required=True, help="number of layers to fill")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("simulate", help="stabilize the root-loaded configuration")
    common(p)
    p.add_argument("--policy", choices=["lowest", "random"], default="lowest")
    p.add_argument("--seed", type=int, help="RNG seed (required with --policy random)")
    p.add_argument("--script", help="replay a firing script from this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate", help="count all reachable stable configurations")
    common(p)
    p.add_argument("--dump", help="write the stable set as newline-delimited JSON")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    p.add_argument("--max-stable", type=int, default=DEFAULT_MAX_STABLE)
    p.add_argument("--no-endgame-shortcut", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bounds", help="evaluate the counting bounds exactly")
    common(p)
    p.add_argument(
        "--which",
        choices=["naive", "zigzag", "binary", "lower-binary", "lower-general", "all"],
        default="all",
    )
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="check structural properties")
    common(p)
    p.add_argument(
        "--property",
        required=True,
        choices=["minmax", "zigzag-relation", "ballot", "endgame-confluence", "unlabeled-profile"],
    )
    p.add_argument("--samples", type=int, help="sampled checks instead of full enumeration")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("flatten", help="flatten a stable configuration to a permutation")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--rule", choices=["inorder", "children-first"], default="inorder")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("construct", help="replay the lower-bound construction")
    common(p)
    p.add_argument("--i", type=int, required=True, help="number of crossing chips per side")
    p.add_argument("--c", default="", help="comma-separated below-median crossing chips")
    p.add_argument("--cprime", default="", help="comma-separated above-median crossing chips")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("oracle", help="independent reference computations")
    p.add_argument("kind", choices=["unlabeled"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--chips", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except EnumerationTruncated as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:  # before EngineError: a ChoiceError is both
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (EngineError, FormulaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
