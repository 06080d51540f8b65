"""Execution of leader instances: plans, shards, resumable logs, summaries.

`execute` is the one runner of leader instances: each instance is solved
once under its own cap and yields one `ResultRecord`.  `run` appends them to
a JSON-lines log as they arrive, and `pipeline.pi_k_upper` reads them back.
Plans assign whole roots to workers, round-robin by descending cover size,
so per-worker loads stay balanced.  A killed run resumes by skipping keys
that already have a record on disk.
Multi-machine operation is file-based: each machine takes one shard of the
same plan and writes its own log.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields

from .covering import greedy_cover, validate_cover
from .follower import check_time_cap, deadline_in
from .graphs import Graph, parse_graph_spec
from .leader import BilevelInstance, check_bounds, max_unsolvable
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
    # Optimal only: the witness's pebble count on each support vertex
    witness: tuple[int, ...] | None = None


@dataclass
class RunSummary:
    orbit_count: int
    instance_count: int
    t_avg: float | None
    t_total: float | None
    statuses: dict[str, int]  # final records per status, by status name

    @property
    def incomplete(self) -> int:
        return self.statuses.get("TimedOut", 0)


def instance_key(root: int, support, lower: int, upper: int | None) -> str:
    s = "-".join(str(v) for v in sorted(support))
    u = "cap" if upper is None else str(upper)
    return f"r{root}:S{s}:L{lower}:U{u}"


def root_cover(g: Graph, r: int, k: int, c: int, group=None) -> list[tuple[int, ...]]:
    """Greedy cover sets of the support-k classes at root r; a cover that
    fails validation raises ValueError naming r."""
    classes = support_class_reps(g, r, k, group)
    design = greedy_cover(classes.reps, c, root=r)
    if not validate_cover(design, classes.reps):
        raise ValueError(f"root {r}: the cover of its support-{k} classes failed validation")
    return design.sets


def root_covers(g: Graph, k: int, c: int) -> list[tuple[int, list[tuple[int, ...]]]]:
    """root_cover at each root orbit representative."""
    group = automorphisms(g)
    return [(r, root_cover(g, r, k, c, group)) for r in orbit_representatives(g, group)]


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
    check_bounds(lower, upper)
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
    check_bounds(lower, upper)
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
    """Read a plan; bad JSON, a missing or mistyped field, or an (L, U) pair
    that check_bounds rejects raises ValueError naming the file."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != PLAN_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported plan version {version!r}")
    p = _from_json(JobPlan, payload, path)
    p.instances = [
        _from_json(PlannedInstance, i, f"{path}: instance {n}") for n, i in enumerate(p.instances)
    ]
    named = [(path, p), *((f"{path}: instance {n}", i) for n, i in enumerate(p.instances))]
    for where, item in named:
        try:
            check_bounds(item.lower, item.upper)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return p


def _from_json(cls, raw, where: str):
    """A plan, plan instance or log record from its JSON object: other keys
    are ignored, a field with a default may be absent (an older log's
    `witness`), and a missing or mistyped field raises ValueError naming where."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: not a JSON object")
    values = {}
    for f in fields(cls):
        if f.name not in raw and f.default is not MISSING:
            continue
        if f.name not in raw or not _fits(raw[f.name], f.type):
            raise ValueError(f"{where}: field {f.name!r} is missing or not {f.type}")
        value = raw[f.name]
        values[f.name] = tuple(value) if isinstance(value, list) and "tuple" in f.type else value
    return cls(**values)


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value can fill a field so annotated: a list stands for
    a list or a tuple[int, ...], an int for a float, and a bool for no int."""
    scalars = {"None": type(None), "bool": bool, "int": int, "str": str}
    for kind in annotation.split(" | "):
        if kind == "float" and type(value) in (int, float):
            return True
        if kind == "tuple[int, ...]" and type(value) is list:
            return all(type(v) is int for v in value)
        if (kind.startswith("list[") and type(value) is list) or type(value) is scalars.get(kind):
            return True
    return False


def load_records(path: str) -> list[ResultRecord]:
    """Read a result log, ignoring a torn trailing line from a killed writer.

    A torn line is the unterminated last one; any other line that does not
    decode raises ValueError naming the file and line, so a damaged log is
    never read as a shorter one.  A missing log raises FileNotFoundError.
    """
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(_from_json(ResultRecord, json.loads(line), path))
            except ValueError:
                if line.endswith("\n"):
                    raise ValueError(f"{path}:{lineno}: damaged record") from None
    return records


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
                _from_json(ResultRecord, json.loads(data[start:]), path)
            except ValueError:
                fh.truncate(start)
            else:
                fh.write(b"\n")


def final_records(records) -> dict[str, ResultRecord]:
    """Latest record per key: a log rerun without resume, or an older one
    with retries, can hold several."""
    return {rec.key: rec for rec in records}


def run(
    p: JobPlan,
    time_cap: float | None,
    out_path: str,
    graph: Graph | None = None,
    shard: tuple[int, int] | None = None,
    resume: bool = True,
) -> list[ResultRecord]:
    """Execute unfinished plan instances, appending durable records as they finish.

    Each record `execute` yields is appended before the next instance starts,
    and on resume a key with any record, TimedOut included, is settled.  A
    time_cap that check_time_cap rejects raises before the log is touched.
    """
    check_time_cap(time_cap)
    g = graph or parse_graph_spec(p.graph_spec)
    todo = p.instances
    if shard is not None:
        index, width = shard
        if width != p.workers:
            raise ValueError(f"shard width {width} != plan workers {p.workers}")
        if not 0 <= index < width:
            raise ValueError(f"shard index {index} out of range")
        todo = [i for i in todo if i.worker == index]
    if resume and os.path.exists(out_path):
        settled = {rec.key for rec in load_records(out_path)}
        todo = [i for i in todo if i.key not in settled]
    new_records = []
    _seal_tail(out_path)
    with open(out_path, "a") as fh:
        for rec in execute(g, todo, time_cap):
            new_records.append(rec)
            _append(fh, rec)
    return new_records


def execute(g: Graph, instances, time_cap: float | None):
    """Solve each instance on g once, yielding its record; time_cap bounds
    each instance on its own."""
    for inst in instances:
        bil = BilevelInstance(g, inst.root, inst.support, lower=inst.lower, upper=inst.upper)
        out = max_unsolvable(bil, deadline_in(time_cap))
        yield ResultRecord(
            key=inst.key,
            root=inst.root,
            support=tuple(inst.support),
            status=out.status,
            value=out.value,
            elapsed_s=out.elapsed,
            nodes=out.nodes,
            witness=None if out.witness is None else tuple(out.witness[v] for v in inst.support),
        )


def _append(fh, rec: ResultRecord):
    fh.write(json.dumps(asdict(rec)) + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def report(records) -> RunSummary:
    """Aggregate final records into summary metrics: t_total = t_avg * count."""
    final = list(final_records(records).values())
    t_avg = sum(rec.elapsed_s for rec in final) / len(final) if final else None
    return RunSummary(
        orbit_count=len({rec.root for rec in final}),
        instance_count=len(final),
        t_avg=t_avg,
        t_total=None if t_avg is None else t_avg * len(final),
        statuses=dict(sorted(Counter(rec.status for rec in final).items())),
    )
