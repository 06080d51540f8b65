"""Batch execution of leader instances: plans, shards, resumable logs, summaries.

Plans assign whole roots to workers, round-robin by descending cover size,
so per-worker loads stay balanced.  Results append to a JSON-lines log as
each instance finishes; a killed run resumes by skipping keys whose final
record is already on disk.  Multi-machine operation is file-based: each
machine takes one shard of the same plan and writes its own log.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from .covering import greedy_cover
from .follower import deadline_in
from .graphs import Graph, parse_graph_spec
from .leader import BilevelInstance, max_unsolvable
from .symmetry import automorphisms, orbit_representatives, support_class_reps

PLAN_FORMAT_VERSION = 1


@dataclass
class PlannedInstance:
    key: str
    root: int
    support: tuple[int, ...]
    lower: int
    upper: int | None
    worker: int


@dataclass
class JobPlan:
    graph_spec: str
    k: int
    c: int
    lower: int
    upper: int | None
    workers: int
    instances: list[PlannedInstance] = field(default_factory=list)
    version: int = PLAN_FORMAT_VERSION


@dataclass
class ResultRecord:
    key: str
    root: int
    support: tuple[int, ...]
    status: str
    value: int | None
    elapsed_s: float
    nodes: int
    retried: bool


@dataclass
class RunSummary:
    orbit_count: int
    instance_count: int
    t_avg: float | None
    t_total: float | None
    incomplete: int


def instance_key(root: int, support, lower: int, upper: int | None) -> str:
    s = "-".join(str(v) for v in sorted(support))
    u = "cap" if upper is None else str(upper)
    return f"r{root}:S{s}:L{lower}:U{u}"


def root_covers(g: Graph, k: int, c: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Greedy cover sets of the support-k classes at each root orbit representative."""
    group = automorphisms(g)
    covers = []
    for r in orbit_representatives(g, group):
        classes = support_class_reps(g, r, k, group)
        covers.append((r, greedy_cover(classes.reps, c, root=r).sets))
    return covers


def plan(
    g: Graph,
    k: int,
    c: int,
    lower: int,
    upper: int | None,
    workers: int,
    graph_spec: str | None = None,
) -> JobPlan:
    """Generate all (root, cover-set) instances and assign roots to workers."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    covers = root_covers(g, k, c)
    return plan_from_covers(graph_spec or g.name, k, c, lower, upper, workers, covers)


def plan_from_covers(
    graph_spec: str,
    k: int,
    c: int,
    lower: int,
    upper: int | None,
    workers: int,
    covers: list[tuple[int, list[tuple[int, ...]]]],
) -> JobPlan:
    """One instance per (root, cover set); whole roots go round-robin to workers."""
    covers = sorted(covers, key=lambda rc: (-len(rc[1]), rc[0]))
    instances = []
    for slot, (r, sets) in enumerate(covers):
        worker = slot % workers
        for support in sets:
            instances.append(
                PlannedInstance(
                    key=instance_key(r, support, lower, upper),
                    root=r,
                    support=tuple(support),
                    lower=lower,
                    upper=upper,
                    worker=worker,
                )
            )
    return JobPlan(
        graph_spec=graph_spec,
        k=k,
        c=c,
        lower=lower,
        upper=upper,
        workers=workers,
        instances=instances,
    )


def save_plan(p: JobPlan, path: str):
    payload = asdict(p)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_plan(path: str) -> JobPlan:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != PLAN_FORMAT_VERSION:
        raise ValueError(f"unsupported plan version {payload.get('version')!r}")
    instances = [
        PlannedInstance(
            key=i["key"],
            root=i["root"],
            support=tuple(i["support"]),
            lower=i["lower"],
            upper=i["upper"],
            worker=i["worker"],
        )
        for i in payload["instances"]
    ]
    return JobPlan(
        graph_spec=payload["graph_spec"],
        k=payload["k"],
        c=payload["c"],
        lower=payload["lower"],
        upper=payload["upper"],
        workers=payload["workers"],
        instances=instances,
    )


def load_records(path: str) -> list[ResultRecord]:
    """Read a result log, ignoring a torn trailing line from a killed writer.

    A torn line is the unterminated last one; any other line that does not
    decode raises ValueError naming the file and line, so a damaged log is
    never read as a shorter one.
    """
    records = []
    if not os.path.exists(path):
        return records
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(_decode(line))
            except (ValueError, KeyError, TypeError):
                if line.endswith("\n"):
                    raise ValueError(f"{path}:{lineno}: damaged record") from None
    return records


def _decode(line: str) -> ResultRecord:
    """One log line; keys that older logs carry beyond ResultRecord's are ignored."""
    raw = json.loads(line)
    return ResultRecord(
        key=raw["key"],
        root=raw["root"],
        support=tuple(raw["support"]),
        status=raw["status"],
        value=raw["value"],
        elapsed_s=raw["elapsed_s"],
        nodes=raw["nodes"],
        retried=raw["retried"],
    )


def _seal_tail(path: str):
    """End the log on a complete line before appending: a torn final line left
    by a writer killed mid-append is cut off, a whole unterminated record kept."""
    if not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            start = data.rfind(b"\n") + 1
            try:
                _decode(data[start:].decode())
            except (ValueError, KeyError, TypeError):
                fh.truncate(start)
            else:
                fh.write(b"\n")


def final_records(records) -> dict[str, ResultRecord]:
    """Latest record per key; a retried record supersedes its TimedOut one."""
    out: dict[str, ResultRecord] = {}
    for rec in records:
        out[rec.key] = rec
    return out


def _is_settled(rec: ResultRecord) -> bool:
    return rec.status != "TimedOut" or rec.retried


def run(
    p: JobPlan,
    time_cap: float | None,
    out_path: str,
    graph: Graph | None = None,
    shard: tuple[int, int] | None = None,
    resume: bool = True,
) -> list[ResultRecord]:
    """Execute unfinished plan instances, appending durable records as they finish.

    time_cap bounds each attempt on its own.  A TimedOut instance is retried
    once, straight away, under a fresh cap and on the engine's warm dead
    sets; both records are appended and the retry one supersedes.
    """
    g = graph or parse_graph_spec(p.graph_spec)
    todo = p.instances
    if shard is not None:
        index, width = shard
        if width != p.workers:
            raise ValueError(f"shard width {width} != plan workers {p.workers}")
        if not 0 <= index < width:
            raise ValueError(f"shard index {index} out of range")
        todo = [i for i in todo if i.worker == index]
    done = {}
    if resume:
        done = {
            key: rec
            for key, rec in final_records(load_records(out_path)).items()
            if _is_settled(rec)
        }
    new_records = []
    _seal_tail(out_path)
    with open(out_path, "a") as fh:
        for inst in todo:
            if inst.key in done:
                continue
            rec = _execute(g, inst, deadline_in(time_cap), retried=False)
            new_records.append(rec)
            _append(fh, rec)
            if rec.status == "TimedOut":
                rec = _execute(g, inst, deadline_in(time_cap), retried=True)
                new_records.append(rec)
                _append(fh, rec)
    return new_records


def _execute(g: Graph, inst: PlannedInstance, deadline, retried: bool) -> ResultRecord:
    bil = BilevelInstance(g, inst.root, inst.support, lower=inst.lower, upper=inst.upper)
    out = max_unsolvable(bil, deadline)
    return ResultRecord(
        key=inst.key,
        root=inst.root,
        support=tuple(inst.support),
        status=out.status,
        value=out.value,
        elapsed_s=out.elapsed,
        nodes=out.nodes,
        retried=retried,
    )


def _append(fh, rec: ResultRecord):
    fh.write(json.dumps(asdict(rec)) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def report(records) -> RunSummary:
    """Aggregate final records into summary metrics: t_total = t_avg * count."""
    final = final_records(records)
    count = len(final)
    if count == 0:
        return RunSummary(0, 0, None, None, 0)
    roots = {rec.root for rec in final.values()}
    t_avg = sum(rec.elapsed_s for rec in final.values()) / count
    incomplete = sum(1 for rec in final.values() if rec.status == "TimedOut")
    return RunSummary(
        orbit_count=len(roots),
        instance_count=count,
        t_avg=t_avg,
        t_total=t_avg * count,
        incomplete=incomplete,
    )
