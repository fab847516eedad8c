"""Self-tests for the benchmark, on tiny splits.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

_TRAIN = run.Split(6, 0.65)
_REF = run.Split(8, 0.65)
TINY = {
    w.name: dataclasses.replace(
        w, train=_TRAIN, test=dataclasses.replace(w.test, num_scenes=8), epochs=3,
        reference=_REF, expected_table=None)
    for w in run.WORKLOADS.values()
}


def _run(capsys, workload, trace, seed=3, after_call=None):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
            "--trace", str(trace)]
    assert run.main(argv, workloads=TINY, after_call=after_call) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("record ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("record "):])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace, kind):
    result, record = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    assert record["environment"]["src_lines"] > 0
    assert record["counts"]["scenes"] == TINY[workload].test.num_scenes
    if trace == 0:
        # every timed program call was paired with one on the seed copy
        assert ([len(c) for c in record["seed_call_samples_s"]]
                == [len(c) for c in record["call_samples_s"]])


def test_layers_add_up_to_traced_wall_time(capsys):
    result, _ = _run(capsys, "dense-apply", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    parts = ["cli.self_s", "simulator.busy_s", "data_model.read_s", "data_model.write_s",
             "ratio.busy_s", "nms.busy_s", "rdm.pairs_build_s", "rdm.train_s",
             "rdm.io_s", "pipeline.busy_s", "evaluator.busy_s", "evaluator.write_s",
             "trace.count_s", "trace.unattributed_s"]
    assert sum(m[p] for p in parts) == pytest.approx(m["trace.inproc_s"], rel=1e-9)
    assert m["pipeline.self_s"] + m["rdm.score_s"] == pytest.approx(m["pipeline.busy_s"])
    assert m["rdm.score_calls"] == m["pipeline.phase1_pairs"] + m["pipeline.phase2_pairs"]


def test_same_seed_same_inputs_other_seed_other_inputs(capsys):
    _, a = _run(capsys, "sparse-apply", 0, seed=4)
    _, b = _run(capsys, "sparse-apply", 0, seed=4)
    _, c = _run(capsys, "sparse-apply", 0, seed=5)
    assert a["counts"] == b["counts"]
    assert a["counts"] != c["counts"]


def _drop_one_rdm_detection(call):
    if call.command != "run":
        return
    path = os.path.join(call.out_dir, "out", "rdm.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        group = json.loads(line)
        if group["dets"]:
            group["dets"].pop()
            lines[i] = json.dumps(group)
            break
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("trace", [0, 1])
def test_tampered_output_is_reported_failed(capsys, trace):
    result, record = _run(capsys, "dense-apply", trace, after_call=_drop_one_rdm_detection)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "run" in record["failed_calls"]


def test_reference_table_mismatch_is_reported_failed(capsys, monkeypatch):
    tiny = {k: dataclasses.replace(w, expected_table=run.README_TABLE)
            for k, w in TINY.items()}
    monkeypatch.setattr(sys.modules[__name__], "TINY", tiny)
    result, record = _run(capsys, "sparse-apply", 0)
    assert result["failed"] == 1
    assert record["failed_calls"] == ["report"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) == (0.0, 0.0)
    assert run.tail(list(range(1, 21))) == (50.0, 10)
    assert run.tail(list(range(1, 201))) == (95.0, 190)
    assert run.tail(list(range(1, 101))) == (90.0, 90)
    assert run.tail(list(range(1, 3001))) == (99.0, 2970)
    assert run.tail(list(range(1, 10011)))[0] == 99.9


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    argv = ["--workload", "dense-apply", "--seed", "0", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
