from __future__ import annotations

import json
import time

import pytest

from pebbling import orchestrator
from pebbling.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_prints_delivery_and_moves(capsys):
    code, out = run_cli(capsys, "solve", "--graph", "path:3", "--root", "0", "--config", "2:9")
    assert code == 0
    assert "delivered 2" in out
    assert "move 2 -> 1" in out
    assert "move 1 -> 0" in out
    lines = out.splitlines()
    assert lines[-2] == "dfs_nodes 9"
    assert lines[-1].startswith("elapsed_s ") and float(lines[-1].split()[1]) >= 0


def test_solve_unsolvable_config(capsys):
    code, out = run_cli(capsys, "solve", "--graph", "path:3", "--root", "0", "--config", "2:3")
    assert code == 0
    assert "delivered 0" in out


def test_solve_time_cap_prints_timed_out(capsys):
    # uncapped, the first goal of this delivery question searches for tens of seconds
    t0 = time.monotonic()
    code, out = run_cli(
        capsys,
        "solve", "--graph", "product:lemke1,lemke1", "--root", "9",
        "--config", "36:61,28:1,37:1,38:1", "--time-cap", "0.05",
    )
    assert (code, out) == (0, "status TimedOut\n")
    assert time.monotonic() - t0 < 5


def test_pis_optimal(capsys):
    code, out = run_cli(
        capsys, "pis", "--graph", "path:3", "--root", "2", "--support", "0"
    )
    assert code == 0
    assert "Optimal" in out
    assert "value 3" in out
    assert "witness 0:3" in out


def test_pis_infeasible(capsys):
    code, out = run_cli(
        capsys,
        "pis", "--graph", "cube:3", "--root", "0",
        "--support", "1,2,4,7", "--lower", "8",
    )
    assert code == 0
    assert "Infeasible" in out


def test_orbits(capsys):
    code, out = run_cli(capsys, "orbits", "--graph", "cycle:4")
    assert code == 0
    assert "orbits 1" in out
    assert "rep 0 size 4: 0,1,2,3" in out


def test_classes(capsys):
    code, out = run_cli(capsys, "classes", "--graph", "cycle:4", "--root", "0", "--k", "2")
    assert code == 0
    assert "class_count 2" in out


def test_classes_reps(capsys):
    code, out = run_cli(
        capsys, "classes", "--graph", "cycle:4", "--root", "0", "--k", "2", "--reps"
    )
    assert code == 0
    assert "class_count 2" in out
    assert len([ln for ln in out.splitlines() if ln and ln[0].isdigit()]) == 2


def test_cover_and_emit_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    code, out = run_cli(
        capsys,
        "cover", "--graph", "cube:3", "--root", "0", "--k", "2", "--c", "4",
        "--sets", "--emit-plan", str(plan_path), "--lower", "8",
    )
    assert code == 0
    assert "sets" in out
    payload = json.loads(plan_path.read_text())
    assert payload["instances"]
    first = payload["instances"][0]
    assert first["lower"] == 8
    assert first["key"].endswith(":L8:Ucap")
    assert first["root"] == 0
    log_path = tmp_path / "log.jsonl"
    code, out = run_cli(capsys, "batch", "--plan", str(plan_path), "--out", str(log_path))
    assert code == 0
    assert f"new_records {len(payload['instances'])}" in out
    assert len(log_path.read_text().splitlines()) == len(payload["instances"])


def test_cover_that_fails_validation_exits_2_naming_the_root(tmp_path, monkeypatch, capsys):
    real = orchestrator.greedy_cover

    def short(family, c, root=-1):  # loses its last set
        design = real(family, c, root)
        design.sets = design.sets[:-1]
        return design

    monkeypatch.setattr(orchestrator, "greedy_cover", short)
    plan_path = tmp_path / "plan.json"
    code = main([
        "cover", "--graph", "cube:3", "--root", "0", "--k", "2", "--c", "4",
        "--emit-plan", str(plan_path), "--lower", "8",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: root 0: ")
    assert "failed validation" in captured.err
    assert not plan_path.exists()


def test_pi(capsys):
    code, out = run_cli(capsys, "pi", "--graph", "lemke1")
    assert code == 0
    assert "pi 8" in out


def test_expired_time_cap_prints_timed_out(capsys):
    code, out = run_cli(capsys, "pi", "--graph", "cube:4", "--time-cap", "1e-6")
    assert (code, out) == (0, "status TimedOut\n")
    code, out = run_cli(capsys, "twopp", "--graph", "cube:3", "--time-cap", "0.001")
    assert (code, out) == (0, "status TimedOut\n")


def test_pik_class0(capsys):
    code, out = run_cli(capsys, "pik", "--graph", "cube:3", "--k", "4", "--c", "7", "--class0")
    assert code == 0
    assert "value 8" in out
    assert "complete" in out


def test_pik_counts_timed_out_instances(capsys):
    # cube:3 has one root orbit, and c = n - 1 gives it one cover set
    code, out = run_cli(
        capsys, "pik", "--graph", "cube:3", "--k", "4", "--c", "7", "--time-cap", "1e-6"
    )
    assert code == 0
    assert out.splitlines() == ["value 1", "complete False", "TimedOut 1"]


def test_pik_requires_threshold_mode(capsys):
    for lower in ("3", "1"):
        with pytest.raises(SystemExit):
            main(["pik", "--graph", "cube:3", "--k", "2", "--c", "2", "--class0", "--lower", lower])


def test_twopp_witness_and_none(capsys):
    code, out = run_cli(capsys, "twopp", "--graph", "complete:4")
    assert code == 0
    assert "holds" in out
    code, out = run_cli(capsys, "twopp", "--graph", "lemke1")
    assert code == 0
    assert "witness" in out and "root" in out


def test_graham(capsys):
    code, out = run_cli(
        capsys, "graham", "--g", "path:2", "--h", "path:2", "--k", "3", "--c", "3"
    )
    assert code == 0
    assert "threshold 4" in out
    assert "consistent True" in out


def test_plan_batch_report_cycle(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    log_path = tmp_path / "log.jsonl"
    code, _ = run_cli(
        capsys,
        "plan", "--graph", "path:3", "--k", "1", "--c", "1",
        "--lower", "1", "--out", str(plan_path),
    )
    assert code == 0
    code, _ = run_cli(
        capsys, "batch", "--plan", str(plan_path), "--out", str(log_path)
    )
    assert code == 0
    assert log_path.exists()
    code, out = run_cli(capsys, "report", "--in", str(log_path))
    assert code == 0
    assert "instance_count" in out
    assert "t_avg" in out


def test_batch_shard_argument(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    log_path = tmp_path / "log.jsonl"
    run_cli(
        capsys,
        "plan", "--graph", "path:3", "--k", "1", "--c", "1",
        "--lower", "1", "--workers", "2", "--out", str(plan_path),
    )
    code, _ = run_cli(
        capsys,
        "batch", "--plan", str(plan_path), "--shard", "0/2", "--out", str(log_path),
    )
    assert code == 0


def test_report_merges_shard_logs(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    logs = [tmp_path / "w0.jsonl", tmp_path / "w1.jsonl"]
    code, out = run_cli(
        capsys,
        "plan", "--graph", "path:3", "--k", "1", "--c", "1",
        "--lower", "1", "--workers", "2", "--out", str(plan_path),
    )
    assert code == 0 and "instances 3" in out
    for shard, log in enumerate(logs):
        code, _ = run_cli(
            capsys,
            "batch", "--plan", str(plan_path), "--shard", f"{shard}/2", "--out", str(log),
        )
        assert code == 0
    counts = [len(log.read_text().splitlines()) for log in logs]
    assert counts in ([1, 2], [2, 1])
    code, out = run_cli(capsys, "report", "--in", str(logs[0]), "--in", str(logs[1]))
    assert code == 0
    assert "orbit_count 2" in out and "instance_count 3" in out
    assert out.splitlines()[-1] == "Optimal 3"
    # a damaged line in either log still fails the whole report, naming its file
    text = logs[1].read_text()
    logs[1].write_text(text[: len(text) // 2] + "\n" + text)
    assert main(["report", "--in", str(logs[0]), "--in", str(logs[1])]) == 2
    assert "w1.jsonl:1: damaged" in capsys.readouterr().err


def test_edge_list_file_via_cli(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("3 2\n0 1\n1 2\n# tail comment\n")
    code, out = run_cli(capsys, "pi", "--graph", str(graph_file))
    assert code == 0
    assert "pi 4" in out


def test_unknown_graph_errors(capsys):
    code = main(["pi", "--graph", "warp:9"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown generator" in err


def test_malformed_plan_is_a_clean_error(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    run_cli(
        capsys,
        "plan", "--graph", "path:3", "--k", "1", "--c", "1",
        "--lower", "1", "--out", str(plan_path),
    )
    payload = json.loads(plan_path.read_text())
    no_instances = {key: value for key, value in payload.items() if key != "instances"}
    del payload["instances"][1]["worker"]
    for broken, named in ((no_instances, "field 'instances'"), (payload, "instance 1: field 'worker'")):
        plan_path.write_text(json.dumps(broken))
        code = main(["batch", "--plan", str(plan_path), "--out", str(tmp_path / "log.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan_path}: ") and named in err


def test_plan_that_is_not_json_names_its_file(tmp_path, capsys):
    plan_path = tmp_path / "bad.json"
    plan_path.write_text('{"version": 1,')
    code = main(["batch", "--plan", str(plan_path), "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {plan_path}: not valid JSON: ")


@pytest.mark.parametrize(
    "argv, named",
    [
        ("classes --graph lemke1 --root 99 --k 3", "root 99 out of range"),
        ("classes --graph lemke1 --root -1 --k 3", "root -1 out of range"),
        ("cover --graph lemke1 --root 99 --k 3 --c 4", "root 99 out of range"),
        ("cover --graph lemke1 --root -1 --k 3 --c 4", "root -1 out of range"),
        ("report --in {tmp}/missing.jsonl", "{tmp}/missing.jsonl"),
        ("batch --plan {tmp}/missing.json --out {tmp}/log.jsonl", "{tmp}/missing.json"),
        ("batch --plan {tmp} --out {tmp}/log.jsonl", "{tmp}"),
        ("pi --graph cube:3 --time-cap 0", "time cap must be > 0 seconds, got 0.0"),
        ("solve --graph path:3 --root 0 --config 2:9 --time-cap nan", "got nan"),
        ("batch --plan {tmp}/p.json --out {tmp}/log.jsonl --time-cap -1", "got -1.0"),
        ("batch --plan {tmp}/p.json --out {tmp}/log.jsonl --shard 1", "--shard wants i/W"),
        ("batch --plan {tmp}/p.json --out {tmp}/log.jsonl --shard a/2", "got 'a/2'"),
        ("plan --graph cube:3 --k 2 --c 3 --lower 0 --out {tmp}/p.json", "need L >= 1, got L=0"),
        ("plan --graph cube:3 --k 2 --c 3 --lower 5 --upper 2 --out {tmp}/p.json",
         "need L <= U, got L=5, U=2"),
        ("cover --graph cube:3 --root 0 --k 2 --c 3 --emit-plan {tmp}/p.json --lower 0",
         "need L >= 1, got L=0"),
        ("pik --graph cube:3 --k 2 --c 3 --lower 0", "need L >= 1, got L=0"),
    ],
    ids=["classes-root-99", "classes-root-neg", "cover-root-99", "cover-root-neg",
         "report-missing-log", "batch-missing-plan", "batch-plan-is-dir",
         "pi-zero-cap", "solve-nan-cap", "batch-negative-cap", "batch-shard-no-width",
         "batch-shard-not-int", "plan-lower-0", "plan-upper-below-lower",
         "cover-emit-plan-lower-0", "pik-lower-0"],
)
def test_bad_outside_input_is_one_error_line(tmp_path, capsys, argv, named):
    # main returning at all means no traceback; the message names the culprit
    code = main(argv.format(tmp=tmp_path).split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert named.format(tmp=tmp_path) in captured.err


def test_nonpositive_time_cap_settles_no_instance(tmp_path, capsys):
    # a cap of -1 would time out every instance, and a resumed batch would
    # then count each one as settled
    plan_path, log_path = tmp_path / "plan.json", tmp_path / "log.jsonl"
    run_cli(capsys, "plan", "--graph", "cube:3", "--k", "2", "--c", "4",
            "--lower", "1", "--out", str(plan_path))
    batch = ["batch", "--plan", str(plan_path), "--out", str(log_path)]
    assert run_cli(capsys, *batch, "--time-cap", "-1") == (2, "")
    assert not log_path.exists()
    code, out = run_cli(capsys, *batch, "--resume", "--time-cap", "5")
    instances = len(json.loads(plan_path.read_text())["instances"])
    assert (code, out) == (0, f"new_records {instances}\n") and instances > 0
