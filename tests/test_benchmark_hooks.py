"""The benchmark's traced mode (`perfbench/run.py --trace 1`) patches names
on `crowdpost.cli` and calls `postprocess` positionally.  Its own tests are
outside this suite, so these read perfbench/run.py as text and check that
the names it relies on still exist; nothing under perfbench/ is imported."""

import ast
import inspect
import json
import pathlib
import time

import pytest

from crowdpost import cli

RUN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def patched_names(source: str) -> set[str]:
    """Names `install_tracer` patches on its `cli` argument: the string keys
    of the dicts in its body and the attributes it sets on `cli`."""
    tree = ast.parse(source)
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install_tracer")
    names = set()
    for node in ast.walk(install):
        if isinstance(node, ast.Dict):
            names |= {k.value for k in node.keys
                      if isinstance(k, ast.Constant) and isinstance(k.value, str)}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "cli"):
            names.add(node.attr)
    return names


NAMES = sorted(patched_names(RUN.read_text(encoding="utf-8")) | {"postprocess"})


def test_patched_names_found():
    assert {"read_detection_groups", "build_detection_set", "compute_mr2",
            "postprocess"} <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_patched_name_exists_in_cli(name):
    assert callable(getattr(cli, name, None))


def test_postprocess_takes_its_arguments_positionally():
    params = list(inspect.signature(cli.postprocess).parameters.values())
    assert [p.name for p in params] == ["heads", "bodies_pre", "bodies_post", "scorer", "cfg"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


def test_eval_calls_each_traced_name_once(monkeypatch, tmp_path):
    # the traced mode times `eval` by these three names and counts the length
    # of compute_mr2's first argument as its detections
    from crowdpost.data_model import BODY, POST_NMS
    from crowdpost.rdm import RelationModel, save_model

    scenes, dets, model = tmp_path / "s.jsonl", tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli.main(["simulate", "--out-scenes", str(scenes), "--out-dets", str(dets),
                     "--num-scenes", "4", "--seed", "3", "--noise-seed", "3"]) == 0
    save_model(RelationModel.initialize(hidden_dim=4), model)
    assert cli.main(["run", "--dets", str(dets), "--model", str(model),
                     "--out-dir", str(tmp_path / "out")]) == 0
    results = tmp_path / "out" / "rdm.jsonl"

    calls = {name: [] for name in ("read_scenes", "read_detection_groups", "compute_mr2")}
    for name, log in calls.items():
        def traced(*args, _original=getattr(cli, name), _log=log):
            _log.append(args)
            return _original(*args)
        monkeypatch.setattr(cli, name, traced)
    assert cli.main(["eval", "--results", str(results), "--scenes", str(scenes),
                     "--class", BODY, "--out-prefix", str(tmp_path / "e")]) == 0
    assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, 1)
    # counted from the file's lines, not through the reader under test
    lines = map(json.loads, results.read_text(encoding="utf-8").splitlines())
    expected = sum(len(obj["dets"]) for obj in lines
                   if obj["class"] == BODY and obj["stage"] == POST_NMS)
    assert expected > 0
    assert len(calls["compute_mr2"][0][0]) == expected


def perfbench_definitions(source: str, names) -> dict:
    """The top-level functions and classes `names` of perfbench/run.py,
    compiled from its text with the stdlib modules they read."""
    tree = ast.parse(source)
    body = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names]
    assert {node.name for node in body} == set(names)
    namespace = {"time": time}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(RUN), "exec"), namespace)
    return namespace


def test_run_keeps_the_traced_postprocess_contract(monkeypatch, tmp_path):
    # the traced replay wraps cli.postprocess with perfbench's own wrapper and
    # counts its result with `_count_post`; an error there fails every timed call
    bench = perfbench_definitions(RUN.read_text(encoding="utf-8"),
                                  ("Tracer", "_traced_postprocess", "_count_post"))
    from crowdpost.rdm import RelationModel, save_model

    dets, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert cli.main(["simulate", "--out-scenes", str(tmp_path / "s.jsonl"),
                     "--out-dets", str(dets), "--num-scenes", "6", "--seed", "3",
                     "--noise-seed", "3"]) == 0
    save_model(RelationModel.initialize(hidden_dim=4), model)

    calls, results = [], []
    original = cli.postprocess

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        results.append(original(*args, **kwargs))
        return results[-1]

    tracer = bench["Tracer"]()
    monkeypatch.setattr(cli, "postprocess", bench["_traced_postprocess"](tracer, recorded))
    assert cli.main(["run", "--dets", str(dets), "--model", str(model),
                     "--out-dir", str(tmp_path / "out")]) == 0

    # one call per scene, five positional arguments each, the scorer fourth
    assert len(calls) == 6
    assert all(len(args) == 5 and kwargs == {} for args, kwargs in calls)
    spans = tracer.spans
    assert [span[0] for span in spans].count("pipeline") == 6
    scored = [span for span in spans if span[0] == "rdm.score"]
    # the wrapped fourth argument, called within a scene's call
    assert scored and all(spans[parent][0] == "pipeline" for *_, parent in scored)
    # what `_count_post` reads, and what it counted
    assert all(r.phase in ("first", "second") for out in results for r in out.pair_log)
    removed = [i for out in results for i in out.removed_head_ids]
    assert removed and tracer.counts["pipeline.removed"] == len(removed)
    assert tracer.counts["pipeline.recalled"] == sum(len(out.recalled_body_ids)
                                                     for out in results)
    second = [[r for r in out.pair_log if r.phase == "second"] for out in results]
    assert tracer.counts["pipeline.phase2_pairs"] == sum(map(len, second))
    # head ids are unique within a scene, so a scene's mismatched heads are
    # its heads with a second phase or removed
    assert tracer.counts["pipeline.mismatched_heads"] == sum(
        len({r.head_id for r in s} | set(out.removed_head_ids))
        for s, out in zip(second, results))
