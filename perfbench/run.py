"""Benchmark entry point: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload lxl_pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The package is imported from `src/` next to
this directory, never from an installed copy, so a checkout without the
sources fails at once.  `--workload all` starts each workload in a fresh
interpreter: the follower keeps module-level memo tables between calls, so
a second workload in the same process would time warm caches.

With `--trace 0` the result line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics, the spans are written to
`.bench_out/spans/`, and the tracer's own cost is reported.  The process
exits 1 when any correctness gate fails, after printing the result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")  # temporary logs and spans, git-ignored
WORKLOAD_NAMES = ("lxl_pipeline", "cube4_pi", "p2lemke_solve")
# Set-up is timed in groups of consecutive set-ups, each group lasting at
# least SETUP_GROUP_S, in two windows: one before the timed phase and one
# after it, each of at least SETUP_GROUPS groups and SETUP_WINDOW_S seconds.
# After each group a fixed pure-Python loop (the probe) is timed, and the
# group's mean set-up time is scaled by PROBE_REF_S / probe time.  setup_s
# is the median of the scaled group means of both windows: set-up seconds
# at the speed where the probe takes PROBE_REF_S.  The set-ups of
# lxl_pipeline and cube4_pi are a few milliseconds of small, cache-resident
# code, and this machine ran such code 1.4-1.9x slower in some stretches of
# seconds to minutes than in others; their unscaled medians differed by 28%
# between two sets of five runs of the same code.  The probe slows down with
# them, so the scaled group means of two such runs agree within about 5%.
SETUP_GROUP_S = 0.2
SETUP_GROUPS = 3
SETUP_WINDOW_S = 2.0
PROBE_ITERATIONS = 100_000
PROBE_REF_S = 0.012  # the probe's median time on the baseline machine
REFERENCE = os.path.join(HERE, "reference.json")


def _import_package():
    sys.path.insert(0, SRC)
    try:
        import pebbling
    except ImportError as exc:
        sys.exit(f"cannot import pebbling from {SRC}: {exc}")
    if not os.path.abspath(pebbling.__file__).startswith(SRC + os.sep):
        sys.exit(f"pebbling resolved to {pebbling.__file__}, not under {SRC}")


def _benchmark_metrics() -> tuple[list[dict], list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of TAIL_PERCENTILES with ten samples beyond it.

    Percentiles are nearest-rank.  When none qualifies (fewer than 20
    samples) the maximum is reported as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def _probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _time_setups(setup, args) -> tuple[list[float], list[float], object]:
    """One window of set-up groups: (scaled means, unscaled means, last state)."""
    scaled: list[float] = []
    raw: list[float] = []
    total = 0.0
    per_group = 1
    while len(raw) < SETUP_GROUPS or total < SETUP_WINDOW_S:
        t0 = time.perf_counter()
        for _ in range(per_group):
            state = None
            state = setup(args.seed, args.seconds)
        elapsed = time.perf_counter() - t0
        total += elapsed
        if elapsed < SETUP_GROUP_S and not raw:
            # the first groups only size the others
            per_group = math.ceil(per_group * SETUP_GROUP_S / max(elapsed, 1e-6))
            continue
        raw.append(elapsed / per_group)
        scaled.append(raw[-1] * PROBE_REF_S / _probe())
    return scaled, raw, state


def run_one(args) -> int:
    _import_package()
    import workloads
    from spans import Tracer

    setup, timed = workloads.WORKLOADS[args.workload]
    gc.collect()
    setup_times, setup_raw, state = _time_setups(setup, args)
    gc.collect()

    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(bool(args.trace), run_id)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        with tracer.span(f"bench.{args.workload}"):
            out = timed(state, tracer, workdir)
    except Exception:
        # the workloads catch what one operation raises; this is the rest
        traceback.print_exc()
        print(f"  FAILED: the {args.workload} timed phase raised; failed_share 1 (1 of 1)")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}), flush=True)
        return 1
    finally:
        shutil.rmtree(workdir)
    state = None
    gc.collect()
    scaled, raw, _ = _time_setups(setup, args)
    setup_times += scaled
    setup_raw += raw

    lat = out.latencies_s
    pct, tail_s = tail(lat)
    measured = {
        "setup_s": statistics.median(setup_times),
        "wall_s": out.wall_s,
        "ops_per_s": len(lat) / out.wall_s,
        "p50_ms": 1000 * statistics.median(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    digest = out.digest()
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    # digests and baseline hold for one --seconds, which sizes p2lemke_solve
    comparable = args.seconds == reference["reference_seconds"]
    ref_digest = None
    if comparable:
        ref_digest = reference["digests"].get(args.workload, {}).get(str(args.seed))
    attempted = len(lat)
    # failed counts what is wrong: failed gates and operations that raised.
    # failed_share adds the operations still TimedOut after their retry,
    # which are answers under the cap, not errors.
    failed = len(out.failures)
    gates = failed - out.exceptions

    end_to_end, per_layer = _benchmark_metrics()
    if args.trace:
        layer = dict(out.layer)
        layer.update({f"{k}.self_s": v for k, v in tracer.layer_self_times().items()})
        layer["bench.tail_ms"] = 1000 * tail_s
        layer["trace.wall_s"] = out.wall_s
        untraced = reference["baseline"]["end_to_end"].get(args.workload, {}).get("wall_s")
        if untraced and comparable:
            layer["trace.overhead_s"] = out.wall_s - untraced["median"]
        layer["trace.bookkeeping_s"] = tracer.bookkeeping_s
        layer["trace.spans"] = len(tracer.spans)
        chosen = {m["name"]: (layer.get(m["name"], 0), m["unit"]) for m in per_layer}
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write(os.path.join(spans_dir, f"{run_id}.jsonl"))
    else:
        chosen = {m["name"]: (measured[m["name"]], m["unit"]) for m in end_to_end}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in out.notes:
        print(f"  {note}")
    print(f"  tail: p{pct:g} of {attempted} operations is {1000 * tail_s:.6g} ms")
    print(f"  setup_s is scaled to the probe's reference speed; unscaled median "
          f"{statistics.median(setup_raw):.6g} s over {len(setup_raw)} groups")
    print(f"  failed_share {(out.timed_out + failed) / attempted:.4f} "
          f"({out.timed_out} TimedOut after retry, {out.exceptions} exceptions, "
          f"{gates} failed gates; {attempted} operations)")
    if args.trace and "trace.overhead_s" in layer:
        print(f"  tracing overhead {layer['trace.overhead_s']:.4g} s: this traced wall_s minus "
              f"the untraced wall_s median in reference.json")
    if ref_digest is None:
        match = f"none for seed {args.seed} at --seconds {args.seconds}"
    else:
        match = "match" if ref_digest == digest else "MISMATCH"
    print(f"  verdict digest {digest} (reference: {match})")
    for msg in out.failures[:20]:
        print(f"  FAILED: {msg}")
    for name, (value, unit) in chosen.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
