"""Command-line interface for the pebbling toolkit.

Graphs are named by catalog spec (lemke1, path:n, cycle:n, complete:n,
cube:d, product:a,b) or by a path to an edge-list file (`n m` header line,
then `u v` lines, # comments allowed).
"""

from __future__ import annotations

import argparse
import sys
import time

from .configurations import format_config, parse_config_literal
from .follower import deadline_in, engine_for, max_deliverable
from .graphs import parse_graph_spec
from .leader import BilevelInstance, max_unsolvable
from .orchestrator import (
    load_plan,
    load_records,
    plan,
    plan_from_covers,
    report,
    root_cover,
    run,
    save_plan,
)
from .pipeline import (
    graham_support_check,
    pi,
    pi_k_upper,
    two_pebbling_witness,
)
from .symmetry import support_class_reps, vertex_orbits


def _parse_support(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def cmd_solve(args) -> int:
    g = parse_graph_spec(args.graph)
    p = parse_config_literal(args.config, g)
    eng = engine_for(g, args.root)
    nodes, t0 = eng.dfs_nodes, time.monotonic()
    result = max_deliverable(g, p, args.root, args.deadline)
    print(f"delivered {result.delivered}")
    for a in result.moves:
        print(f"move {a.tail} -> {a.head}")
    print(f"dfs_nodes {eng.dfs_nodes - nodes}")
    print(f"elapsed_s {time.monotonic() - t0:.3f}")
    return 0


def cmd_pis(args) -> int:
    g = parse_graph_spec(args.graph)
    support = _parse_support(args.support)
    inst = BilevelInstance(g, args.root, support, lower=args.lower, upper=args.upper)
    out = max_unsolvable(inst, args.deadline)
    print(f"status {out.status}")
    if out.status == "Optimal":
        print(f"value {out.value}")
        print(f"witness {format_config(out.witness)}")
    print(f"elapsed_s {out.elapsed:.3f}")
    print(f"nodes {out.nodes}")
    return 0


def cmd_orbits(args) -> int:
    g = parse_graph_spec(args.graph)
    orbits = vertex_orbits(g)
    print(f"orbits {len(orbits)}")
    for orbit in orbits:
        print(f"rep {orbit[0]} size {len(orbit)}: {','.join(map(str, orbit))}")
    return 0


def cmd_classes(args) -> int:
    g = parse_graph_spec(args.graph)
    classes = support_class_reps(g, args.root, args.k)
    print(f"class_count {classes.class_count}")
    if args.reps:
        for rep in classes.reps:
            print(",".join(map(str, rep)))
    return 0


def cmd_cover(args) -> int:
    g = parse_graph_spec(args.graph)
    sets = root_cover(g, args.root, args.k, args.c)
    if args.emit_plan:  # before any output, so a bad --lower prints only the error
        p = plan_from_covers(args.graph, args.k, args.c, args.lower, None, 1, [(args.root, sets)])
    print(f"sets {len(sets)}")
    if args.sets:
        for s in sets:
            print(",".join(map(str, s)))
    if args.emit_plan:
        save_plan(p, args.emit_plan)
        print(f"plan written to {args.emit_plan}")
    return 0


def cmd_pi(args) -> int:
    g = parse_graph_spec(args.graph)
    print(f"pi {pi(g, args.deadline)}")
    return 0


def cmd_pik(args) -> int:
    g = parse_graph_spec(args.graph)
    rep = pi_k_upper(
        g,
        args.k,
        args.c,
        lower=g.n if args.class0 else args.lower,
        sample=args.sample,
        time_cap=args.time_cap,
        seed=args.seed,
    )
    print(f"value {rep.value}")
    print(f"complete {rep.complete}")
    for status, count in report(rep.instances).statuses.items():
        print(f"{status} {count}")
    return 0


def cmd_twopp(args) -> int:
    g = parse_graph_spec(args.graph)
    found = two_pebbling_witness(g, args.deadline)
    if found is None:
        print("two-pebbling property holds")
    else:
        p, r = found
        print(f"witness {format_config(p)} root {r}")
    return 0


def cmd_graham(args) -> int:
    g = parse_graph_spec(args.g)
    h = parse_graph_spec(args.h)
    rep = graham_support_check(
        g, h, args.k, args.c, sample=args.sample, time_cap=args.time_cap, seed=args.seed
    )
    print(f"pi_g {rep.pi_g}")
    print(f"pi_h {rep.pi_h}")
    print(f"threshold {rep.threshold}")
    print(f"consistent {rep.consistent}")
    print(f"complete {rep.complete}")
    return 0


def cmd_plan(args) -> int:
    g = parse_graph_spec(args.graph)
    p = plan(
        g, args.k, args.c, args.lower, args.upper, args.workers, graph_spec=args.graph
    )
    save_plan(p, args.out)
    print(f"instances {len(p.instances)}")
    print(f"plan written to {args.out}")
    return 0


def cmd_batch(args) -> int:
    shard = None
    if args.shard:
        index, _, width = args.shard.partition("/")
        try:
            shard = (int(index), int(width))
        except ValueError:
            raise ValueError(f"--shard wants i/W, got {args.shard!r}") from None
    p = load_plan(args.plan)
    records = run(p, args.time_cap, args.out, shard=shard, resume=args.resume)
    print(f"new_records {len(records)}")
    return 0


def cmd_report(args) -> int:
    summary = report([rec for path in getattr(args, "in") for rec in load_records(path)])
    print(f"orbit_count {summary.orbit_count}")
    print(f"instance_count {summary.instance_count}")
    print(f"t_avg {summary.t_avg if summary.t_avg is not None else 'absent'}")
    print(f"t_total {summary.t_total if summary.t_total is not None else 'absent'}")
    print(f"incomplete {summary.incomplete}")
    for status, count in summary.statuses.items():
        print(f"{status} {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebble", description="Exact graph pebbling computations."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="maximum pebbles deliverable to a root")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--config", required=True, help="configuration literal v:k[,v:k]*")
    p.add_argument("--time-cap", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("pis", help="largest unsolvable size over a support")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--support", required=True, help="comma-separated vertices")
    p.add_argument("--lower", type=int, default=1)
    p.add_argument("--upper", type=int, default=None)
    p.add_argument("--time-cap", type=float, default=None)
    p.set_defaults(func=cmd_pis)

    p = sub.add_parser("orbits", help="vertex orbits under automorphisms")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("classes", help="support classes under the root stabilizer")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--reps", action="store_true", help="print representatives")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("cover", help="greedy covering design over support classes")
    p.add_argument("--graph", required=True)
    p.add_argument("--root", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--sets", action="store_true", help="print the cover sets")
    p.add_argument("--emit-plan", default=None, metavar="FILE")
    p.add_argument("--lower", type=int, default=1, help="L for emitted instances")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("pi", help="pebbling number over orbit representatives")
    p.add_argument("--graph", required=True)
    p.add_argument("--time-cap", type=float, default=None)
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("pik", help="support-k pebbling upper bound")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--class0", action="store_true", help="use L = |V|")
    # a string default: argparse spots a given --lower by identity with the
    # default, and a parsed 1 is the int 1, so --class0 --lower 1 would pass
    group.add_argument("--lower", type=int, default="1")
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--time-cap", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pik)

    p = sub.add_parser("twopp", help="two-pebbling property witness search")
    p.add_argument("--graph", required=True)
    p.add_argument("--time-cap", type=float, default=None)
    p.set_defaults(func=cmd_twopp)

    p = sub.add_parser("graham", help="product support-k consistency check")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--time-cap", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_graham)

    p = sub.add_parser("plan", help="write a batch plan of leader instances")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)
    p.add_argument("--upper", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("batch", help="execute a plan shard, appending results")
    p.add_argument("--plan", required=True)
    p.add_argument("--shard", default=None, help="i/W worker shard")
    p.add_argument("--time-cap", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("report", help="summarize result logs")
    p.add_argument("--in", required=True, action="append", help="repeat to merge shard logs")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # solve, pis, pi and twopp bound the whole call; pik, graham and batch
        # pass time_cap on, to bound each instance on its own
        args.deadline = deadline_in(getattr(args, "time_cap", None))
        return args.func(args)
    except TimeoutError:  # an OSError, so caught before the clause below
        print("status TimedOut")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
