"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload cube4_pi --seeds 1-10 --trace 0 \
        --out .bench_out/cube4_pi-e2e.json

Each run is a separate `run.py` process.  For every metric the summary
holds the median, the quartiles from `statistics.quantiles(values, n=4)`
and the spread (third minus first quartile, as a share of the median),
plus each seed's verdict digest.  It exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    metrics: dict[str, list[float]] = {}
    digests = {}
    status = 0
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        for line in lines:
            if "verdict digest" in line:
                digests[str(seed)] = line.split()[2]
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        shown = result["metrics"] if not args.trace else {}
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in shown.items()),
              flush=True)

    summary = {name: summarise(vals) for name, vals in metrics.items() if len(vals) > 1}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                   "digests": digests, "metrics": summary}, fh, indent=1)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:34s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
    return status


if __name__ == "__main__":
    sys.exit(main())
