from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from pebbling import orchestrator
from pebbling.cli import main
from pebbling.graphs import catalog
from pebbling.orchestrator import (
    JobPlan,
    PlannedInstance,
    ResultRecord,
    final_records,
    instance_key,
    load_plan,
    load_records,
    plan,
    plan_from_covers,
    report,
    run,
    save_plan,
)
from pebbling.pipeline import pi_k_upper
from pebbling.symmetry import orbit_representatives


def _record(key, status="Optimal", elapsed=1.0, root=0):
    return ResultRecord(
        key=key,
        root=root,
        support=(1, 2),
        status=status,
        value=3 if status == "Optimal" else None,
        elapsed_s=elapsed,
        nodes=10,
    )


def test_instance_key_format():
    assert instance_key(2, (5, 3), 4, None) == "r2:S3-5:L4:Ucap"
    assert instance_key(0, (1,), 1, 9) == "r0:S1:L1:U9"


def test_plan_covers_and_balances():
    # path:5 has three root orbits, so two workers both get whole roots
    g = catalog("path:5")
    p = plan(g, 2, 4, 1, None, workers=2)
    assert p.workers == 2
    assert p.k == 2 and p.c == 4
    assert len(p.instances) > 0
    roots = {i.root for i in p.instances}
    assert len(roots) == 3
    by_worker = {}
    for inst in p.instances:
        by_worker.setdefault(inst.worker, set()).add(inst.root)
        assert inst.key == instance_key(inst.root, inst.support, 1, None)
        assert inst.root not in inst.support
        assert len(inst.support) <= 4
    assert set(by_worker) == {0, 1}
    # whole roots stay on one worker
    for r in roots:
        owners = {w for w, rs in by_worker.items() if r in rs}
        assert len(owners) == 1


def test_plan_single_orbit_uses_one_worker():
    # a vertex-transitive graph has one root orbit, so one worker owns it all
    p = plan(catalog("cube:3"), 2, 4, 1, None, workers=2)
    assert {i.worker for i in p.instances} == {0}


def test_plan_rejects_bad_workers():
    with pytest.raises(ValueError):
        plan(catalog("path:3"), 1, 1, 1, None, workers=0)


def test_bad_bounds_fail_before_any_cover_is_built(monkeypatch):
    monkeypatch.setattr(orchestrator, "support_class_reps", None)  # calling it raises TypeError
    g = catalog("cube:3")
    for lower, upper in ((0, None), (5, 2)):
        with pytest.raises(ValueError, match="^need L"):
            plan(g, 2, 3, lower, upper, workers=1)
        with pytest.raises(ValueError, match="^need L"):
            plan_from_covers("cube:3", 2, 3, lower, upper, 1, [(0, [(1, 2, 3)])])
    with pytest.raises(ValueError, match="^need L >= 1"):
        pi_k_upper(g, 2, 3, lower=0)


def test_plan_rejects_a_cover_that_misses_a_class(tmp_path, monkeypatch, capsys):
    real = orchestrator.greedy_cover

    def short(family, c, root=-1):  # loses its last set
        design = real(family, c, root)
        design.sets = design.sets[:-1]
        return design

    monkeypatch.setattr(orchestrator, "greedy_cover", short)
    g = catalog("path:5")
    with pytest.raises(ValueError, match=f"^root {orbit_representatives(g)[0]}: .*failed validation"):
        plan(g, 2, 4, 1, None, workers=2)
    out = tmp_path / "plan.json"
    args = ["plan", "--graph", "path:5", "--k", "2", "--c", "4", "--lower", "1", "--out", str(out)]
    assert main(args) == 2
    assert "failed validation" in capsys.readouterr().err
    assert not out.exists()


def test_plan_roundtrip(tmp_path):
    g = catalog("cycle:4")
    p = plan(g, 1, 2, 1, None, workers=1, graph_spec="cycle:4")
    path = tmp_path / "plan.json"
    save_plan(p, str(path))
    loaded = load_plan(str(path))
    assert loaded == p


def test_load_plan_rejects_other_versions(tmp_path):
    path = tmp_path / "plan.json"
    payload = {"version": 99, "instances": []}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        load_plan(str(path))


@pytest.mark.parametrize(
    "where, edit",
    [
        ("plan", lambda p: p.pop("instances")),
        ("plan", lambda p: p.update(k=True)),
        ("plan", lambda p: p.update(upper="cap")),
        ("instance 0", lambda p: p["instances"][0].pop("worker")),
        ("instance 0", lambda p: p["instances"][0].update(root="0")),
        ("instance 0", lambda p: p["instances"][0].update(support=[1.5])),
        ("instance 0", lambda p: p["instances"].__setitem__(0, [])),
        ("plan", lambda p: p.update(lower=0)),
        ("instance 0", lambda p: p["instances"][0].update(upper=0)),
    ],
)
def test_load_plan_names_a_missing_or_mistyped_field(tmp_path, where, edit):
    path = tmp_path / "plan.json"
    save_plan(plan(catalog("path:3"), 1, 1, 1, None, workers=1), str(path))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    prefix = f"{path}: " + ("" if where == "plan" else f"{where}: ")
    with pytest.raises(ValueError) as err:
        load_plan(str(path))
    assert str(err.value).startswith(prefix)


def test_run_executes_and_logs(tmp_path):
    g = catalog("path:3")
    p = plan(g, 1, 1, 1, None, workers=1, graph_spec="path:3")
    out = tmp_path / "results.jsonl"
    records = run(p, None, str(out), graph=g)
    on_disk = load_records(str(out))
    assert [r.key for r in on_disk] == [r.key for r in records] == [i.key for i in p.instances]
    assert all(r.status == "Optimal" for r in on_disk)


def test_run_rejects_a_cap_not_above_zero_before_touching_the_log(tmp_path):
    # an empty plan too: with nothing to run, the cap would pass unnoticed
    g = catalog("path:3")
    full = plan(g, 1, 1, 1, None, workers=1, graph_spec="path:3")
    empty = JobPlan("path:3", 1, 1, 1, None, 1)
    out = tmp_path / "results.jsonl"
    for cap in (0, -1, float("nan")):
        for p in (full, empty):
            with pytest.raises(ValueError, match="time cap must be > 0 seconds"):
                run(p, cap, str(out), graph=g)
            assert not out.exists()
    out.write_text('{"key": "torn')  # _seal_tail would cut this line
    with pytest.raises(ValueError, match="time cap"):
        run(full, 0, str(out), graph=g)
    assert out.read_text() == '{"key": "torn'


def test_optimal_witness_survives_the_log(tmp_path):
    # path:3 at L = 1: every instance is Optimal, one at L = 4 is Infeasible
    g = catalog("path:3")
    p = plan(g, 1, 2, 1, None, workers=1, graph_spec="path:3")
    p.instances.append(
        PlannedInstance(instance_key(0, (1,), 4, None), 0, (1,), 4, None, worker=0)
    )
    out = tmp_path / "results.jsonl"
    records = run(p, None, str(out), graph=g)
    assert [r.status for r in records] == ["Optimal"] * (len(records) - 1) + ["Infeasible"]
    assert records[-1].witness is None
    for rec in records[:-1]:
        # one count per support vertex, summing to the largest unsolvable size
        assert len(rec.witness) == len(rec.support) and sum(rec.witness) == rec.value
    assert load_records(str(out)) == records


def test_rerun_resumes_to_noop(tmp_path):
    g = catalog("path:3")
    p = plan(g, 1, 1, 1, None, workers=1, graph_spec="path:3")
    out = tmp_path / "results.jsonl"
    first = run(p, None, str(out), graph=g)
    assert first
    again = run(p, None, str(out), graph=g)
    assert again == []
    assert len(load_records(str(out))) == len(first)


def test_resume_disabled_repeats_work(tmp_path):
    g = catalog("path:3")
    p = plan(g, 1, 1, 1, None, workers=1, graph_spec="path:3")
    out = tmp_path / "results.jsonl"
    run(p, None, str(out), graph=g)
    repeated = run(p, None, str(out), graph=g, resume=False)
    assert len(repeated) == len(p.instances)


def test_shard_filters_and_validates(tmp_path):
    g = catalog("cube:3")
    p = plan(g, 2, 3, 1, None, workers=2)
    out0 = tmp_path / "w0.jsonl"
    out1 = tmp_path / "w1.jsonl"
    rec0 = run(p, None, str(out0), graph=g, shard=(0, 2))
    rec1 = run(p, None, str(out1), graph=g, shard=(1, 2))
    assert {r.key for r in rec0} | {r.key for r in rec1} == {i.key for i in p.instances}
    assert {r.key for r in rec0} & {r.key for r in rec1} == set()
    with pytest.raises(ValueError, match="width"):
        run(p, None, str(tmp_path / "x.jsonl"), graph=g, shard=(0, 3))
    with pytest.raises(ValueError, match="index"):
        run(p, None, str(tmp_path / "x.jsonl"), graph=g, shard=(2, 2))


def test_torn_trailing_line_ignored(tmp_path):
    out = tmp_path / "log.jsonl"
    good = json.dumps(
        {
            "key": "r0:S1:L1:Ucap",
            "root": 0,
            "support": [1],
            "status": "Optimal",
            "value": 1,
            "elapsed_s": 0.5,
            "nodes": 3,
        }
    )
    out.write_text(good + "\n" + good[: len(good) // 2])
    records = load_records(str(out))
    assert len(records) == 1
    assert records[0].support == (1,)


def test_damaged_line_before_more_records_raises(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    lines = [json.dumps(asdict(_record(key))) for key in ("k1", "k2", "k3")]
    lines[1] = lines[1][: len(lines[1]) // 2]
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"log\.jsonl:2: damaged"):
        load_records(str(out))
    assert main(["report", "--in", str(out)]) == 2
    assert "log.jsonl:2" in capsys.readouterr().err


def test_resume_after_torn_line_redoes_instance(tmp_path):
    g = catalog("path:3")
    p = plan(g, 1, 1, 1, None, workers=1, graph_spec="path:3")
    out = tmp_path / "results.jsonl"
    run(p, None, str(out), graph=g)
    # tear the final record in half, as if the writer died mid-append
    text = out.read_text().splitlines()
    torn = text[:-1] + [text[-1][: len(text[-1]) // 2]]
    out.write_text("\n".join(torn))
    before = len(load_records(str(out)))
    redo = run(p, None, str(out), graph=g)
    assert len(redo) == 1
    # the fragment was cut off, so the grown log still loads in full
    assert len(load_records(str(out))) == before + 1
    assert len(out.read_text().splitlines()) == before + 1


def test_blank_lines_in_a_log_are_skipped(tmp_path):
    out = tmp_path / "log.jsonl"
    k1, k2 = (json.dumps(asdict(_record(key))) for key in ("k1", "k2"))
    out.write_text(f"\n{k1}\n\n  \n{k2}\n")
    assert [rec.key for rec in load_records(str(out))] == ["k1", "k2"]


def test_resume_keeps_a_whole_unterminated_record(tmp_path):
    g = catalog("path:3")
    p = plan(g, 1, 1, 1, None, workers=1, graph_spec="path:3")
    out = tmp_path / "results.jsonl"
    run(p, None, str(out), graph=g)
    # the final record lost and the one before it left without its newline
    text = out.read_text().splitlines()
    out.write_text("\n".join(text[:-1]))
    assert len(run(p, None, str(out), graph=g)) == 1
    # the kept record was ended with a newline before the redone one was appended
    assert out.read_text().splitlines()[:-1] == text[:-1]
    assert len(load_records(str(out))) == len(text)


def test_timeout_yields_one_record(tmp_path):
    # eight distance-4 support vertices need real search, so a tiny cap trips
    g = catalog("product:lemke1,lemke1")
    support = (18, 19, 20, 21, 23, 26, 27, 28)
    p = JobPlan(
        graph_spec=g.name,
        k=8,
        c=8,
        lower=64,
        upper=None,
        workers=1,
        instances=[
            PlannedInstance(
                key=instance_key(0, support, 64, None),
                root=0,
                support=support,
                lower=64,
                upper=None,
                worker=0,
            )
        ],
    )
    out = tmp_path / "results.jsonl"
    records = run(p, 1e-9, str(out), graph=g)
    assert [r.status for r in records] == ["TimedOut"]
    # logged durably, and a resumed run counts the key as settled
    assert load_records(str(out)) == records
    assert run(p, 1e-9, str(out), graph=g) == []


def test_execute_yields_one_record_per_instance_in_plan_order(tmp_path):
    g = catalog("product:lemke1,lemke1")
    slow = (28, 35, 36, 37, 38, 39)  # minutes of search at root 9
    instances = [
        PlannedInstance(instance_key(r, s, lower, None), r, s, lower, None, worker=0)
        for r, s, lower in [(0, (1,), 1), (9, slow, 64), (0, (18, 19, 20, 21, 23, 26, 27, 28), 64)]
    ]
    p = JobPlan(g.name, 4, 8, 1, None, 1, instances)
    out = tmp_path / "results.jsonl"
    # run appends exactly what execute yields
    records = run(p, 1.0, str(out), graph=g)
    assert [r.key for r in records] == [i.key for i in instances]
    assert [r.status for r in records] == ["Optimal", "TimedOut", "Infeasible"]
    assert load_records(str(out)) == records
    assert run(p, 1.0, str(out), graph=g) == []


def test_final_records_last_wins():
    a = _record("k1", status="TimedOut", elapsed=1.0)
    b = _record("k1", status="Optimal", elapsed=3.0)
    final = final_records([a, b])
    assert final["k1"].status == "Optimal"


def test_report_average_and_total():
    recs = [_record("k1", elapsed=1.0), _record("k2", elapsed=3.0, root=1)]
    summary = report(recs)
    assert summary.instance_count == 2
    assert summary.orbit_count == 2
    assert summary.t_avg == pytest.approx(2.0)
    assert summary.t_total == pytest.approx(4.0)
    assert summary.incomplete == 0


def test_report_empty():
    summary = report([])
    assert summary.instance_count == 0
    assert summary.t_avg is None and summary.t_total is None


def test_report_counts_unresolved_timeouts():
    recs = [
        # k1 was rerun without resume and timed out twice
        _record("k1", status="TimedOut"),
        _record("k1", status="TimedOut"),
        _record("k2", status="Optimal", root=1),
        _record("k3", status="TimedOut", root=1),
    ]
    summary = report(recs)
    assert summary.instance_count == 3
    assert summary.incomplete == 2


# A log written before records lost their scan-order "sense" key: r0:S2 timed
# out and was settled by its retry.  Its last line, a repeat of r1:S0 written
# later without resume, has no "sense" and, like every line, no "witness".
OLD_LOG = """\
{"key": "r0:S1:L1:Ucap", "root": 0, "support": [1], "status": "Optimal", "value": 1, \
"elapsed_s": 0.0001, "nodes": 3, "sense": "descending", "retried": false}
{"key": "r0:S2:L1:Ucap", "root": 0, "support": [2], "status": "TimedOut", "value": null, \
"elapsed_s": 0.5, "nodes": 7, "sense": "descending", "retried": false}
{"key": "r0:S2:L1:Ucap", "root": 0, "support": [2], "status": "Optimal", "value": 3, \
"elapsed_s": 0.0001, "nodes": 7, "sense": "ascending", "retried": true}
{"key": "r1:S0:L1:Ucap", "root": 1, "support": [0], "status": "Optimal", "value": 1, \
"elapsed_s": 0.0001, "nodes": 3, "sense": "descending", "retried": false}
{"key": "r1:S0:L1:Ucap", "root": 1, "support": [0], "status": "Optimal", "value": 1, \
"elapsed_s": 0.0001, "nodes": 3, "retried": false}
"""


def test_log_with_sense_keys_loads_and_resumes_to_noop(tmp_path):
    g = catalog("path:3")
    p = plan(g, 1, 1, 1, None, workers=1, graph_spec="path:3")
    out = tmp_path / "results.jsonl"
    out.write_text(OLD_LOG)
    records = load_records(str(out))
    assert [r.status for r in records] == ["Optimal", "TimedOut", "Optimal", "Optimal", "Optimal"]
    assert all(r.witness is None for r in records)
    assert set(final_records(records)) == {i.key for i in p.instances}
    assert report(records).incomplete == 0
    assert run(p, None, str(out), graph=g) == []
    assert out.read_text() == OLD_LOG


def test_report_superseding_uses_final_elapsed():
    recs = [
        _record("k1", status="TimedOut", elapsed=9.0),
        _record("k1", status="Optimal", elapsed=1.0),
    ]
    summary = report(recs)
    assert summary.t_avg == pytest.approx(1.0)


def test_old_log_timed_out_before_its_retry_is_settled_and_incomplete(tmp_path):
    # a worker that wrote retries, killed between a TimedOut record and its retry
    g = catalog("path:3")
    p = plan(g, 1, 1, 1, None, workers=1, graph_spec="path:3")
    log = "".join(
        json.dumps({"key": i.key, "root": i.root, "support": list(i.support),
                    "status": "Optimal" if n else "TimedOut", "value": 1 if n else None,
                    "elapsed_s": 0.5, "nodes": 7, "retried": False}) + "\n"
        for n, i in enumerate(p.instances)
    )
    out = tmp_path / "results.jsonl"
    out.write_text(log)
    records = load_records(str(out))
    assert [r.status for r in records] == ["TimedOut"] + ["Optimal"] * (len(records) - 1)
    assert run(p, None, str(out), graph=g) == []
    assert out.read_text() == log
    summary = report(records)
    assert summary.instance_count == len(p.instances) and summary.incomplete == 1
