"""End-to-end command-line tests: the full tool chain in temp dirs plus
error-path diagnostics."""

import filecmp
import gc
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from crowdpost.cli import main
from crowdpost.data_model import BODY, HEAD, read_detection_groups, read_scenes

from helpers import group_det_ids


def _chain(base):
    """Run simulate -> estimate-ratio -> train-rdm -> run -> eval x4 -> report."""
    base.mkdir(parents=True, exist_ok=True)
    scenes = base / "scenes.jsonl"
    dets = base / "dets.jsonl"
    assert main(["simulate", "--out-scenes", str(scenes), "--out-dets", str(dets),
                 "--num-scenes", "12", "--seed", "5", "--noise-seed", "7",
                 "--cluster-prob", "0.5"]) == 0
    assert main(["estimate-ratio", "--scenes", str(scenes),
                 "--out", str(base / "ratio.json")]) == 0
    assert main(["train-rdm", "--scenes", str(scenes), "--dets", str(dets),
                 "--out-model", str(base / "model.json"),
                 "--out-loss", str(base / "loss.csv"),
                 "--epochs", "5", "--seed", "0", "--hidden-dim", "16"]) == 0
    out = base / "out"
    assert main(["run", "--dets", str(dets), "--model", str(base / "model.json"),
                 "--out-dir", str(out)]) == 0
    evals = base / "eval"
    evals.mkdir(exist_ok=True)
    for variant in ("baseline", "rdm"):
        for cls in (HEAD, BODY):
            assert main(["eval", "--results", str(out / f"{variant}.jsonl"),
                         "--scenes", str(scenes), "--class", cls,
                         "--out-prefix", str(evals / f"{variant}_{cls}"),
                         "--name", variant]) == 0
    assert main(["report", "--dir", str(evals),
                 "--out", str(base / "report.md")]) == 0
    return base


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return _chain(tmp_path_factory.mktemp("cli") / "a")


def test_chain_artifacts_exist(chain):
    for rel in ("scenes.jsonl", "dets.jsonl", "ratio.json", "model.json",
                "loss.csv", "out/baseline.jsonl", "out/rdm.jsonl",
                "out/audit.json", "report.md"):
        assert (chain / rel).is_file(), rel
    for variant in ("baseline", "rdm"):
        for cls in (HEAD, BODY):
            stem = f"eval/{variant}_{cls}"
            for suffix in (".eval.json", ".curve.csv", ".svg"):
                assert (chain / (stem + suffix)).is_file(), stem + suffix


def test_simulate_respects_num_scenes(chain):
    assert len(read_scenes(chain / "scenes.jsonl").scene_ids) == 12


def test_run_outputs_keep_invariants(chain):
    def by_scene(path):
        slots = {}
        for scene_id, class_name, _, ids in group_det_ids(read_detection_groups(path)):
            slots.setdefault(scene_id, {})[class_name] = set(ids)
        return slots

    baseline = by_scene(chain / "out" / "baseline.jsonl")
    rdm = by_scene(chain / "out" / "rdm.jsonl")
    assert baseline.keys() == rdm.keys()
    for sid in baseline:
        assert rdm[sid][BODY] >= baseline[sid][BODY]
        assert rdm[sid][HEAD] <= baseline[sid][HEAD]


def test_audit_matches_outputs(chain):
    with open(chain / "out" / "audit.json", encoding="utf-8") as fh:
        audit = json.load(fh)
    slots = {}
    for path in ("baseline.jsonl", "rdm.jsonl"):
        for scene_id, class_name, _, ids in group_det_ids(
                read_detection_groups(chain / "out" / path)):
            slots[(path, scene_id, class_name)] = set(ids)
    for rec in audit["scenes"]:
        sid = rec["scene_id"]
        added = slots[("rdm.jsonl", sid, BODY)] - slots[("baseline.jsonl", sid, BODY)]
        dropped = slots[("baseline.jsonl", sid, HEAD)] - slots[("rdm.jsonl", sid, HEAD)]
        assert set(rec["recalled_body_ids"]) >= added
        assert set(rec["removed_head_ids"]) == dropped


def test_eval_json_fields(chain):
    with open(chain / "eval" / f"rdm_{BODY}.eval.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    assert obj["name"] == "rdm"
    assert obj["class"] == BODY
    assert 0.0 <= obj["mr2"] <= 1.0
    assert obj["num_images"] == 12


def test_report_table(chain):
    text = (chain / "report.md").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert "| variant | head MR-2 | body MR-2 |" in lines
    rows = [ln for ln in lines if ln.startswith("| baseline") or ln.startswith("| rdm")]
    assert len(rows) == 2
    for row in rows:
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[1].endswith("%") and cells[2].endswith("%")


def test_chain_rerun_is_byte_identical(chain, tmp_path_factory):
    other = _chain(tmp_path_factory.mktemp("cli-rerun") / "b")
    rel_a = sorted(p.relative_to(chain) for p in chain.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    assert rel_a == rel_b
    for rel in rel_a:
        assert filecmp.cmp(chain / rel, other / rel, shallow=False), rel


def _kernel_chain(base, coretype):
    """Run a small README-recipe chain in one child process whose OpenBLAS
    takes the kernel `coretype`.  Returns the `Core:` lines, the kernel
    OpenBLAS reports it loaded."""
    base.mkdir()
    simulate = ["simulate", "--cluster-prob", "0.65"]
    calls = [simulate + ["--out-scenes", "train_scenes.jsonl", "--out-dets", "train_dets.jsonl",
                         "--num-scenes", "20", "--seed", "500", "--noise-seed", "500"],
             ["train-rdm", "--scenes", "train_scenes.jsonl", "--dets", "train_dets.jsonl",
              "--out-model", "model.json", "--out-loss", "loss.csv",
              "--epochs", "20", "--learning-rate", "0.05", "--seed", "0"],
             simulate + ["--out-scenes", "test_scenes.jsonl", "--out-dets", "test_dets.jsonl",
                         "--num-scenes", "40", "--seed", "0", "--noise-seed", "0"],
             ["run", "--dets", "test_dets.jsonl", "--model", "model.json", "--out-dir", "out"]]
    calls += [["eval", "--results", f"out/{variant}.jsonl", "--scenes", "test_scenes.jsonl",
               "--class", cls, "--out-prefix", f"eval/{variant}_{cls}", "--name", variant]
              for variant in ("baseline", "rdm") for cls in (HEAD, BODY)]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, os, sys; from crowdpost.cli import main; os.chdir(sys.argv[2]); "
         "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))",
         json.dumps(calls), str(base)],
        capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_VERBOSE": "2"})
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stderr.splitlines() if line.startswith("Core:")]


def test_decisions_do_not_depend_on_the_blas_kernel(tmp_path):
    # the model's bits may differ under another BLAS kernel; the decisions
    # and every file computed from them may not
    cores = {coretype: _kernel_chain(tmp_path / coretype, coretype)
             for coretype in ("Haswell", "Prescott")}
    if not all(cores.values()):
        pytest.skip("no `Core:` line under OPENBLAS_VERBOSE=2: numpy's BLAS is not an "
                    "OpenBLAS that picks its kernel at run time")
    if cores["Haswell"] == cores["Prescott"]:
        pytest.skip(f"OPENBLAS_CORETYPE does not switch the kernel: both report "
                    f"{cores['Haswell']}")
    a, b = tmp_path / "Haswell", tmp_path / "Prescott"
    outputs = ["out/baseline.jsonl", "out/rdm.jsonl"]
    outputs += sorted(str(p.relative_to(a)) for p in (a / "eval").iterdir())
    assert len(outputs) == 2 + 4 * 3
    for rel in outputs:
        assert filecmp.cmp(a / rel, b / rel, shallow=False), rel
    # the post-process recalled or removed something, so decisions were taken
    assert not filecmp.cmp(a / outputs[0], a / outputs[1], shallow=False)


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _console_entry() -> tuple[str, str]:
    """The (module, function) the `crowdpost` console script calls."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^crowdpost = "([\w.]+):(\w+)"$', text, re.M).groups()
    return module, function


def test_console_script_entry_point(chain, tmp_path):
    module, function = _console_entry()
    proc = subprocess.run(
        [sys.executable, "-c",
         f"from {module} import {function}; import sys; sys.exit({function}())",
         "estimate-ratio", "--scenes", str(chain / "scenes.jsonl"),
         "--out", str(tmp_path / "ratio.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert filecmp.cmp(tmp_path / "ratio.json", chain / "ratio.json", shallow=False)


@pytest.mark.parametrize("launch", ["console_script", "python_m"])
def test_script_entry_runs_the_command_with_the_collector_off(chain, tmp_path, launch):
    # the console script and `python -m crowdpost.cli` turn the collector off
    # before the command runs; the command reads its scenes through a probe
    # that prints whether the collector is on
    module, function = _console_entry()
    start = {"console_script": f"from {module} import {function}; sys.exit({function}())",
             "python_m": "runpy.run_module('crowdpost.cli', run_name='__main__')"}[launch]
    code = ("import gc, runpy, sys\n"
            "from crowdpost import data_model\n"
            "def probe(path, _read=data_model.read_scenes):\n"
            "    print(gc.isenabled(), flush=True)\n"
            "    return _read(path)\n"
            "data_model.read_scenes = probe\n"
            "sys.argv[0] = 'crowdpost'\n" + start + "\n")
    out = tmp_path / "ratio.json"
    proc = subprocess.run([sys.executable, "-c", code, "estimate-ratio",
                           "--scenes", str(chain / "scenes.jsonl"), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    assert filecmp.cmp(out, chain / "ratio.json", shallow=False)


def test_importing_the_cli_leaves_numpy_unloaded():
    # `script` can turn the collector off before numpy's imports only if
    # importing the module that holds it loads no numpy
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, crowdpost.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_script_entry_frees_the_classes_datetime_discards():
    # numpy's core imports `datetime`, whose pure-Python classes are cyclic
    # garbage once the C `_datetime` replaces them; the script entry frees
    # them before the command, although the collector is off
    code = ("import gc, sys\n"
            "from crowdpost import cli\n"
            "def main():\n"
            "    import datetime, numpy\n"
            "    stale = [o for o in gc.get_objects() if isinstance(o, type)\n"
            "             and o.__module__ == 'datetime'\n"
            "             and getattr(datetime, o.__name__, None) is not o]\n"
            "    print(gc.isenabled(), len(stale), flush=True)\n"
            "    return 0\n"
            "cli.main = main\n"
            "sys.exit(cli.script())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0"]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
def test_main_leaves_the_collector_as_it_found_it(chain, tmp_path, capsys, enabled):
    # tests and the benchmark call `main` in process; only the script entry
    # freezes, so their collector state is theirs
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.get_freeze_count()
        assert main(["run", "--dets", str(chain / "dets.jsonl"),
                     "--model", str(chain / "model.json"),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["eval", "--results", str(tmp_path / "out" / "rdm.jsonl"),
                     "--scenes", str(chain / "scenes.jsonl"), "--class", BODY,
                     "--out-prefix", str(tmp_path / "e")]) == 0
        assert main(["estimate-ratio", "--scenes", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "ratio.json")]) == 1
        assert (gc.get_freeze_count(), gc.isenabled()) == (before, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


@pytest.mark.parametrize("command,modules", [("eval", ["evaluator"]),
                                             ("run", ["nms", "pipeline", "rdm"]),
                                             ("report", [])])
def test_command_imports_only_its_modules(chain, tmp_path, command, modules):
    # a command process imports the modules behind its own command only
    argv = {
        "eval": ["eval", "--results", str(chain / "out" / "rdm.jsonl"), "--scenes",
                 str(chain / "scenes.jsonl"), "--class", BODY,
                 "--out-prefix", str(tmp_path / "e")],
        "run": ["run", "--dets", str(chain / "dets.jsonl"), "--model",
                str(chain / "model.json"), "--out-dir", str(tmp_path / "out")],
        "report": ["report", "--dir", str(chain / "eval"), "--out", str(tmp_path / "r.md")],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from crowdpost.cli import main; code = main(sys.argv[1:]); "
         "print(' '.join(sorted(m for m in sys.modules if m.startswith('crowdpost.')))); "
         "print('numpy.ma' in sys.modules, 'logging' in sys.modules); "
         "sys.exit(code)", *argv], capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "CROWDPOST_LOG"})
    assert proc.returncode == 0, proc.stderr
    # the last two lines; `report` prints its table before them.  No list
    # holds `records`, which no reader loads; `numpy.ma`, which `np.unique`
    # would load, stays out, and so does `logging`, with nothing to log
    *_, loaded, unused = proc.stdout.splitlines()
    assert loaded.split() == sorted(f"crowdpost.{m}" for m in [
        "cli", "data_model", "fileio", "geometry", *modules])
    assert unused == "False False"


def test_estimate_ratio_loads_neither_records_nor_numpy_ma(chain, tmp_path):
    # the ratio fit reads the scene columns and takes its medians by a
    # partition, so the record module and `numpy.ma` (which `np.median`
    # imports) stay out of the process; its bytes are those of the chain's
    out = tmp_path / "ratio.json"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from crowdpost.cli import main; code = main(sys.argv[1:]); "
         "print(sorted(m for m in sys.modules if m.startswith('crowdpost.'))); "
         "print('numpy.ma' in sys.modules); sys.exit(code)",
         "estimate-ratio", "--scenes", str(chain / "scenes.jsonl"), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, masked = proc.stdout.splitlines()
    assert loaded == str([f"crowdpost.{m}" for m in
                          ("cli", "data_model", "fileio", "geometry", "ratio")])
    assert masked == "False"
    assert filecmp.cmp(out, chain / "ratio.json", shallow=False)


def test_simulate_loads_no_records(chain, tmp_path):
    # the simulator makes rows and `data_model` writes their columns, so
    # `simulate` loads neither the record module nor NMS, the relation model
    # or the evaluator; its files are the chain's, byte for byte
    scenes, dets = tmp_path / "scenes.jsonl", tmp_path / "dets.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from crowdpost.cli import main; code = main(sys.argv[1:]); "
         "print(sorted(m for m in sys.modules if m.startswith('crowdpost.'))); "
         "sys.exit(code)",
         "simulate", "--out-scenes", str(scenes), "--out-dets", str(dets),
         "--num-scenes", "12", "--seed", "5", "--noise-seed", "7", "--cluster-prob", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([f"crowdpost.{m}" for m in (
        "cli", "data_model", "fileio", "geometry", "ratio", "simulator")])
    assert filecmp.cmp(scenes, chain / "scenes.jsonl", shallow=False)
    assert filecmp.cmp(dets, chain / "dets.jsonl", shallow=False)


def _fresh_eval(results, scenes, prefix):
    """`eval` of the body class in a new process, where no module is loaded yet."""
    return subprocess.run(
        [sys.executable, "-m", "crowdpost.cli", "eval", "--results", str(results),
         "--scenes", str(scenes), "--class", BODY, "--out-prefix", str(prefix),
         "--name", "rdm"], capture_output=True, text=True)


def test_fresh_eval_reads_an_integer_coordinate_as_its_float(chain, tmp_path):
    # the fast path turns the integer away, and the per-field parser, whose
    # module the reader imports only then, converts it
    lines = (chain / "scenes.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    body = first["persons"][0]["body"]
    for name, x_min in (("floats", float(int(body[0]))), ("integer", int(body[0]))):
        body[0] = x_min
        (tmp_path / f"{name}.jsonl").write_text(
            "\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
        proc = _fresh_eval(chain / "out" / "rdm.jsonl", tmp_path / f"{name}.jsonl",
                           tmp_path / name)
        assert proc.returncode == 0, proc.stderr
    assert '"body": [%d, ' % int(body[0]) in (tmp_path / "integer.jsonl").read_text()
    for suffix in (".eval.json", ".curve.csv", ".svg"):
        assert filecmp.cmp(tmp_path / f"floats{suffix}", tmp_path / f"integer{suffix}",
                           shallow=False), suffix


def test_fresh_eval_names_a_bad_detection_field(chain, tmp_path):
    lines = (chain / "out" / "rdm.jsonl").read_text(encoding="utf-8").splitlines()
    k = next(k for k, line in enumerate(lines) if json.loads(line)["dets"])
    obj = json.loads(lines[k])
    obj["dets"][0]["score"] = "high"
    lines[k] = json.dumps(obj)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _fresh_eval(bad, chain / "scenes.jsonl", tmp_path / "e")
    assert proc.returncode == 1
    assert proc.stderr == (f"crowdpost eval: error: bad.jsonl:{k + 1}: dets[0].score: "
                           "expected a number, got 'high'\n")
    assert not list(tmp_path.glob("e.*"))


# ---------------------------------------------------------------------------
# error paths: exit code 1 and a single-line diagnostic on stderr

def _expect_error(capsys, argv, fragment):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"crowdpost {argv[0]}: error:")
    assert fragment in err
    assert err.count("\n") == 1


def test_missing_scenes_file(capsys, tmp_path):
    _expect_error(capsys, ["estimate-ratio", "--scenes", str(tmp_path / "nope.jsonl"),
                           "--out", str(tmp_path / "r.json")], "nope.jsonl")


def test_eval_empty_results(capsys, chain, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    _expect_error(capsys, ["eval", "--results", str(empty),
                           "--scenes", str(chain / "scenes.jsonl"),
                           "--class", BODY, "--out-prefix", str(tmp_path / "x")],
                  "empty results file")


def test_eval_missing_class_groups(capsys, chain, tmp_path):
    lines = (chain / "out" / "baseline.jsonl").read_text(encoding="utf-8").splitlines(True)
    path = tmp_path / "heads.jsonl"
    path.write_text("".join(line for line in lines if json.loads(line)["class"] == HEAD),
                    encoding="utf-8")
    _expect_error(capsys, ["eval", "--results", str(path),
                           "--scenes", str(chain / "scenes.jsonl"),
                           "--class", BODY, "--out-prefix", str(tmp_path / "x")],
                  "no post-NMS body groups")


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"bogus": 1}}))
    _expect_error(capsys, ["simulate", "--config", str(cfg),
                           "--out-scenes", str(tmp_path / "s.jsonl"),
                           "--out-dets", str(tmp_path / "d.jsonl")],
                  "unknown SimConfig keys: bogus")


def test_config_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    _expect_error(capsys, ["simulate", "--config", str(cfg),
                           "--out-scenes", str(tmp_path / "s.jsonl"),
                           "--out-dets", str(tmp_path / "d.jsonl")],
                  "config must be a JSON object")


def test_config_invalid_json(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["simulate", "--config", str(cfg),
                 "--out-scenes", str(tmp_path / "s.jsonl"),
                 "--out-dets", str(tmp_path / "d.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("crowdpost simulate: error:")


def test_negative_num_scenes(capsys, tmp_path):
    _expect_error(capsys, ["simulate", "--out-scenes", str(tmp_path / "s.jsonl"),
                           "--out-dets", str(tmp_path / "d.jsonl"),
                           "--num-scenes", "-1"], "non-negative")


@pytest.mark.parametrize("flags, config", [
    (["--num-scenes", "100001"], None),
    ([], {"num_scenes": 10 ** 400}),
], ids=["flag", "config"])
def test_num_scenes_above_limit(capsys, tmp_path, flags, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = ["--config", str(cfg)]
    _expect_error(capsys, ["simulate", "--out-scenes", str(tmp_path / "s.jsonl"),
                           "--out-dets", str(tmp_path / "d.jsonl"), *flags],
                  "num-scenes must be at most 100000")
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("iou", ["0", "1.5", "-1", "nan"])
def test_eval_rejects_iou_outside_unit_interval(capsys, chain, tmp_path, iou):
    _expect_error(capsys, ["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                           "--scenes", str(chain / "scenes.jsonl"), "--class", BODY,
                           "--out-prefix", str(tmp_path / "x"), f"--iou={iou}"],
                  "iou_match_threshold")
    assert list(tmp_path.iterdir()) == []


def test_report_empty_dir(capsys, tmp_path):
    _expect_error(capsys, ["report", "--dir", str(tmp_path),
                           "--out", str(tmp_path / "r.md")], "no .eval.json")


def test_report_missing_class_shows_dash(capsys, chain, tmp_path):
    src = chain / "eval" / f"baseline_{HEAD}.eval.json"
    (tmp_path / "only_head.eval.json").write_bytes(src.read_bytes())
    assert main(["report", "--dir", str(tmp_path),
                 "--out", str(tmp_path / "r.md")]) == 0
    capsys.readouterr()
    text = (tmp_path / "r.md").read_text(encoding="utf-8")
    row = next(ln for ln in text.splitlines() if ln.startswith("| baseline"))
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[1].endswith("%")
    assert cells[2] == "-"


@pytest.mark.parametrize("key, raw, fragment", [
    pytest.param("mr2", '"0.5"', "mr2 must be a number in [0, 1], got '0.5'", id="mr2-string"),
    pytest.param("mr2", "true", "mr2 must be a number in [0, 1], got True", id="mr2-bool"),
    pytest.param("mr2", "-3", "mr2 must be a number in [0, 1], got -3", id="mr2-negative"),
    pytest.param("mr2", "1e400", "mr2 must be a number in [0, 1], got inf", id="mr2-inf"),
    pytest.param("mr2", "NaN", "mr2 must be a number in [0, 1], got nan", id="mr2-nan"),
    pytest.param("mr2", str(10 ** 400), "mr2 must be a number in [0, 1], got 1000",
                 id="mr2-huge-int"),
    pytest.param("class", '"torso"', "class must be 'head' or 'body', got 'torso'",
                 id="class-unknown"),
    pytest.param("name", "7", "name must be a string, got 7", id="name-number"),
    pytest.param(None, None, "a second head result for 'baseline'", id="duplicate"),
])
def test_report_rejects_bad_eval_result(capsys, chain, tmp_path, key, raw, fragment):
    # b.eval.json is a valid result with one value replaced by raw JSON text;
    # it sorts after its unchanged copy a.eval.json, so it is the file named
    text = (chain / "eval" / f"baseline_{HEAD}.eval.json").read_text(encoding="utf-8")
    (tmp_path / "a.eval.json").write_text(text, encoding="utf-8")
    if key is not None:
        obj = json.loads(text)
        obj[key] = "@"
        text = json.dumps(obj).replace('"@"', raw)
    (tmp_path / "b.eval.json").write_text(text, encoding="utf-8")
    out = tmp_path / "report.md"
    _expect_error(capsys, ["report", "--dir", str(tmp_path), "--out", str(out)],
                  f"b.eval.json: {fragment}")
    assert not out.exists()


@pytest.mark.parametrize("name", ["x|y\nz", "tab\there", "nul\x00", "del\x7f", "c1\x85"])
def test_eval_rejects_control_characters_in_name(capsys, chain, tmp_path, name):
    _expect_error(capsys, ["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                           "--scenes", str(chain / "scenes.jsonl"), "--class", BODY,
                           "--out-prefix", str(tmp_path / "x"), "--name", name],
                  f"variant name {name!r} holds a control character")
    assert list(tmp_path.iterdir()) == []


def test_report_rejects_control_characters_in_name(capsys, chain, tmp_path):
    obj = json.loads((chain / "eval" / f"rdm_{BODY}.eval.json").read_text(encoding="utf-8"))
    obj["name"] = "x|y\nz"
    (tmp_path / "bad.eval.json").write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "report.md"
    _expect_error(capsys, ["report", "--dir", str(tmp_path), "--out", str(out)],
                  "bad.eval.json: name 'x|y\\nz' holds a control character")
    assert not out.exists()


def test_report_escapes_pipes_in_names(capsys, chain, tmp_path):
    prefix = tmp_path / "evals" / "piped"
    for cls in (HEAD, BODY):
        assert main(["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                     "--scenes", str(chain / "scenes.jsonl"), "--class", cls,
                     "--out-prefix", f"{prefix}_{cls}", "--name", "a|b"]) == 0
    report = tmp_path / "report.md"
    assert main(["report", "--dir", str(prefix.parent), "--out", str(report)]) == 0
    capsys.readouterr()
    rows = [ln for ln in report.read_text(encoding="utf-8").splitlines()
            if ln.startswith("| a")]
    assert len(rows) == 1 and rows[0].startswith("| a\\|b | ")
    # split on the pipes no backslash escapes: the row keeps three cells
    assert len(re.split(r"(?<!\\)\|", rows[0].strip("|"))) == 3


def test_failed_command_leaves_no_output(capsys, chain, tmp_path):
    out = tmp_path / "r.json"
    assert main(["estimate-ratio", "--scenes", str(tmp_path / "missing.jsonl"),
                 "--out", str(out)]) == 1
    capsys.readouterr()
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "train-rdm", "run", "eval"])
def test_failed_command_removes_outputs_it_wrote(capsys, chain, tmp_path, command):
    # the path of the command's last output is a directory, so that write
    # fails after the others have succeeded
    argv, blocked = {
        "simulate": (["simulate", "--out-scenes", str(tmp_path / "s.jsonl"),
                      "--out-dets", str(tmp_path / "d.jsonl"), "--num-scenes", "2"],
                     "d.jsonl"),
        "train-rdm": (_train_argv(chain, tmp_path), "loss.csv"),
        "run": (["run", "--dets", str(chain / "dets.jsonl"),
                 "--model", str(chain / "model.json"), "--out-dir", str(tmp_path)],
                "audit.json"),
        "eval": (["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                  "--scenes", str(chain / "scenes.jsonl"), "--class", BODY,
                  "--out-prefix", str(tmp_path / "x"), "--name", "x"], "x.svg"),
    }[command]
    (tmp_path / blocked).mkdir()
    _expect_error(capsys, argv, blocked)
    # no output and no temp file is left, only the empty directory
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    assert list((tmp_path / blocked).iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "train-rdm"])
def test_outputs_naming_one_file_rejected(capsys, tmp_path, monkeypatch, command):
    # two spellings of one file: the second write would replace the first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.out").write_text("before")
    argv, flags = {
        "simulate": (["simulate", "--out-scenes", "same.out", "--out-dets", "./same.out",
                      "--num-scenes", "2"], ("--out-scenes", "--out-dets")),
        # a missing input: the clash is reported before anything is read
        "train-rdm": (["train-rdm", "--scenes", "missing.jsonl", "--dets", "missing.jsonl",
                       "--out-model", "same.out", "--out-loss", "./same.out"],
                      ("--out-model", "--out-loss")),
    }[command]
    _expect_error(capsys, argv,
                  f"{flags[0]} 'same.out' and {flags[1]} './same.out' name the same file")
    assert [p.name for p in tmp_path.iterdir()] == ["same.out"]
    assert (tmp_path / "same.out").read_text() == "before"


@pytest.mark.parametrize("command", ["simulate", "estimate-ratio", "train-rdm", "run", "eval",
                                     "report"])
def test_output_naming_an_input_rejected(capsys, chain, tmp_path, monkeypatch, command):
    # each input is a copy of a file the command accepts, so only the clash
    # stops it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "evals").mkdir()
    copies = {"simulate": {"c.json": '{"num_scenes": 2}'},
              "estimate-ratio": {"s.jsonl": chain / "scenes.jsonl"},
              "train-rdm": {"d.jsonl": chain / "dets.jsonl"},
              "run": {"out/rdm.jsonl": chain / "dets.jsonl"},
              "eval": {"x.eval.json": chain / "out" / "rdm.jsonl"},
              "report": {f"evals/{p.name}": p
                         for p in sorted((chain / "eval").glob("*.eval.json"))}}[command]
    for name, source in copies.items():
        (tmp_path / name).write_text(source if isinstance(source, str) else source.read_text())
    argv, clash = {
        "simulate": (["simulate", "--config", "c.json", "--out-scenes", "./c.json",
                      "--out-dets", "d.jsonl"], "--out-scenes './c.json' and --config 'c.json'"),
        "estimate-ratio": (["estimate-ratio", "--scenes", "s.jsonl", "--out", "s.jsonl"],
                           "--out 's.jsonl' and --scenes 's.jsonl'"),
        "train-rdm": (["train-rdm", "--scenes", str(chain / "scenes.jsonl"), "--dets", "d.jsonl",
                       "--out-model", "d.jsonl", "--out-loss", "loss.csv", "--epochs", "1"],
                      "--out-model 'd.jsonl' and --dets 'd.jsonl'"),
        "run": (["run", "--dets", "out/rdm.jsonl", "--model", str(chain / "model.json"),
                 "--out-dir", "out"], "--out-dir 'out/rdm.jsonl' and --dets 'out/rdm.jsonl'"),
        "eval": (["eval", "--results", "x.eval.json", "--scenes", str(chain / "scenes.jsonl"),
                  "--class", BODY, "--out-prefix", "x"],
                 "--out-prefix 'x.eval.json' and --results 'x.eval.json'"),
        "report": (["report", "--dir", "evals", "--out", "evals/rdm_body.eval.json"],
                   "--out 'evals/rdm_body.eval.json' and --dir 'evals/rdm_body.eval.json'"),
    }[command]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    _expect_error(capsys, argv, f"{clash} name the same file")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_failed_command_keeps_previous_outputs(capsys, chain, tmp_path):
    # an earlier run's files are put back when a rerun into the same
    # directory fails on its last output
    out = tmp_path / "out"
    run = ["run", "--dets", str(chain / "dets.jsonl"), "--model", str(chain / "model.json"),
           "--out-dir", str(out)]
    assert main([*run, "--nms-iou", "0.4"]) == 0
    before = {name: (out / name).read_bytes() for name in ("baseline.jsonl", "rdm.jsonl")}
    assert before["rdm.jsonl"] != (chain / "out" / "rdm.jsonl").read_bytes()
    (out / "audit.json").unlink()
    (out / "audit.json").mkdir()
    _expect_error(capsys, run, "audit.json")
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(p.name for p in out.iterdir()) == ["audit.json", "baseline.jsonl",
                                                     "rdm.jsonl"]
    # once the rerun succeeds, no backup is left behind
    (out / "audit.json").rmdir()
    assert main(run) == 0
    assert sorted(p.name for p in out.iterdir()) == ["audit.json", "baseline.jsonl",
                                                     "rdm.jsonl"]
    assert (out / "rdm.jsonl").read_bytes() == (chain / "out" / "rdm.jsonl").read_bytes()


@pytest.mark.parametrize("target", ["config", "model", "eval-result"])
def test_too_deep_json_file_is_one_line_error(capsys, chain, tmp_path, target):
    deep = tmp_path / "in" / "deep.eval.json"
    deep.parent.mkdir()
    deep.write_text("[" * 100_000, encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "config": ["simulate", "--config", str(deep), "--out-scenes", str(out / "s.jsonl"),
                   "--out-dets", str(out / "d.jsonl"), "--num-scenes", "2"],
        "model": ["run", "--dets", str(chain / "dets.jsonl"), "--model", str(deep),
                  "--out-dir", str(out)],
        "eval-result": ["report", "--dir", str(deep.parent), "--out", str(out / "report.md")],
    }[target]
    _expect_error(capsys, argv, f"{deep}: not valid JSON (maximum recursion depth")
    assert not out.exists()


@pytest.mark.parametrize("target", ["config", "nested-config", "model", "eval-result"])
def test_repeated_json_key_is_one_line_error(capsys, chain, tmp_path, target):
    # the decoder would keep the last value silently; a file is one reading
    model = (chain / "model.json").read_text(encoding="utf-8")
    text, key = {
        "config": ('{"num_scenes": 1, "num_scenes": 3}', "num_scenes"),
        "nested-config": ('{"sim": {"seed": 1, "seed": 2}}', "seed"),
        "model": ('{"hidden_dim": 1, ' + model.lstrip()[1:], "hidden_dim"),
        "eval-result": ('{"name": "a", "class": "body", "mr2": 0.5, "mr2": 0.25}', "mr2"),
    }[target]
    path = tmp_path / "in" / "repeated.eval.json"
    path.parent.mkdir()
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "config": ["simulate", "--config", str(path), "--out-scenes", str(out / "s.jsonl"),
                   "--out-dets", str(out / "d.jsonl")],
        "model": ["run", "--dets", str(chain / "dets.jsonl"), "--model", str(path),
                  "--out-dir", str(out)],
        "eval-result": ["report", "--dir", str(path.parent), "--out", str(out / "report.md")],
    }[target.removeprefix("nested-")]
    _expect_error(capsys, argv, f"{path}: repeated key {key!r}")
    assert not out.exists()


@pytest.mark.parametrize("target", ["scene", "person", "det"])
def test_repeated_key_in_a_data_line_is_one_line_error(capsys, chain, tmp_path, target):
    # the decoder would keep the last value silently: scene "b" for
    # `"scene_id": "a", "scene_id": "b"`, id 2 for `"id": 1, "id": 2`
    name, key, value = {"scene": ("scenes.jsonl", "scene_id", '"a"'),
                        "person": ("scenes.jsonl", "id", "7"),
                        "det": ("dets.jsonl", "id", "1")}[target]
    lines = (chain / name).read_text(encoding="utf-8").splitlines(keepends=True)
    field = f'"{key}": '
    assert field in lines[1]
    lines[1] = lines[1].replace(field, f"{field}{value}, {field}", 1)
    path = tmp_path / "in" / name
    path.parent.mkdir()
    path.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    argv = (["run", "--dets", str(path), "--model", str(chain / "model.json"),
             "--out-dir", str(out)] if target == "det" else
            ["estimate-ratio", "--scenes", str(path), "--out", str(out / "ratio.json")])
    _expect_error(capsys, argv, f"{name}:2: repeated key {key!r}")
    assert not out.exists()


def _audit_entries(dets_text, model, out) -> dict:
    """`run` on a detection file of these lines: each scene's audit entry
    as JSON text, by scene id."""
    out.mkdir()
    (out / "dets.jsonl").write_text(dets_text, encoding="utf-8")
    assert main(["run", "--dets", str(out / "dets.jsonl"), "--model", str(model),
                 "--out-dir", str(out)]) == 0
    audit = json.loads((out / "audit.json").read_text(encoding="utf-8"))
    return {entry["scene_id"]: json.dumps(entry) for entry in audit["scenes"]}


def test_audit_entry_of_a_scene_is_its_own(tmp_path):
    # a scene's relation scores, and so its audit entry, do not depend on
    # the other scenes of its file: alone, in the split and in the split
    # with its lines reversed, each scene gives the same bytes.  The
    # README's model and the first 20 scenes of its test split
    def simulate(prefix, num_scenes, seed):
        assert main(["simulate", "--out-scenes", str(tmp_path / f"{prefix}_scenes.jsonl"),
                     "--out-dets", str(tmp_path / f"{prefix}_dets.jsonl"),
                     "--num-scenes", str(num_scenes), "--seed", str(seed),
                     "--noise-seed", str(seed), "--cluster-prob", "0.65"]) == 0

    simulate("train", 60, 500)
    model = tmp_path / "model.json"
    assert main(["train-rdm", "--scenes", str(tmp_path / "train_scenes.jsonl"),
                 "--dets", str(tmp_path / "train_dets.jsonl"), "--out-model", str(model),
                 "--out-loss", str(tmp_path / "loss.csv"), "--epochs", "150",
                 "--learning-rate", "0.05", "--seed", "0"]) == 0
    simulate("test", 20, 0)
    lines = (tmp_path / "test_dets.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    whole = _audit_entries("".join(lines), model, tmp_path / "whole")
    assert _audit_entries("".join(lines[::-1]), model, tmp_path / "reversed") == whole
    by_scene = {}
    for line in lines:
        by_scene.setdefault(json.loads(line)["scene_id"], []).append(line)
    alone = {}
    for k, scene_lines in enumerate(by_scene.values()):
        alone.update(_audit_entries("".join(scene_lines), model, tmp_path / f"alone{k}"))
    assert alone == whole
    assert sum(entry.count('"score"') for entry in whole.values()) > 200


def test_audit_is_laid_out_as_json_dumps(chain):
    text = (chain / "out" / "audit.json").read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_file_commands_build_no_ground_truth_records(capsys, chain, tmp_path, monkeypatch):
    # estimate-ratio, train-rdm and eval take the scene file's arrays as the
    # reader's batch pass returns them; none of them parses a scene line by
    # line into its persons
    from crowdpost import data_model

    def refuse(obj):
        raise ValueError(f"scene {obj.get('scene_id')!r} parsed field by field")

    monkeypatch.setattr(data_model, "_scene_row", refuse)
    assert main(["estimate-ratio", "--scenes", str(chain / "scenes.jsonl"),
                 "--out", str(tmp_path / "ratio.json")]) == 0
    assert main(_train_argv(chain, tmp_path)) == 0
    assert main(["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                 "--scenes", str(chain / "scenes.jsonl"), "--class", BODY,
                 "--out-prefix", str(tmp_path / "rdm_body"), "--name", "rdm"]) == 0
    assert capsys.readouterr().err == ""
    assert filecmp.cmp(tmp_path / "ratio.json", chain / "ratio.json", shallow=False)
    for suffix in (".eval.json", ".curve.csv", ".svg"):
        assert filecmp.cmp(str(tmp_path / "rdm_body") + suffix,
                           chain / "eval" / ("rdm_body" + suffix), shallow=False)
    # the readers' results are columns, not sequences of records
    results = chain / "out" / "rdm.jsonl"
    for columns in (read_scenes(chain / "scenes.jsonl"), read_detection_groups(results),
                    read_detection_groups(results, BODY, "post_nms").detections):
        with pytest.raises(TypeError):
            iter(columns)


def test_eval_rejects_empty_variant_name(capsys, chain, tmp_path):
    # a prefix naming a directory gives no file name to take the name from
    prefix = str(tmp_path / "ev") + os.sep
    _expect_error(capsys, ["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                           "--scenes", str(chain / "scenes.jsonl"), "--class", BODY,
                           "--out-prefix", prefix], "empty variant name")
    assert list(tmp_path.iterdir()) == []


def test_report_reads_hidden_results(capsys, chain, tmp_path):
    evals = tmp_path / "ev"
    for cls in (HEAD, BODY):
        assert main(["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                     "--scenes", str(chain / "scenes.jsonl"), "--class", cls,
                     "--out-prefix", str(evals / f".rdm_{cls}"), "--name", "rdm"]) == 0
    assert sorted(p.name for p in evals.iterdir())[0].startswith(".")
    report = tmp_path / "report.md"
    assert main(["report", "--dir", str(evals), "--out", str(report)]) == 0
    capsys.readouterr()
    rows = [ln for ln in report.read_text(encoding="utf-8").splitlines()
            if ln.startswith("| rdm")]
    expected = [ln for ln in (chain / "report.md").read_text(encoding="utf-8").splitlines()
                if ln.startswith("| rdm")]
    assert rows == expected and len(rows) == 1


def test_report_rejects_empty_name(capsys, chain, tmp_path):
    obj = json.loads((chain / "eval" / f"rdm_{BODY}.eval.json").read_text(encoding="utf-8"))
    obj["name"] = ""
    (tmp_path / "blank.eval.json").write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "report.md"
    _expect_error(capsys, ["report", "--dir", str(tmp_path), "--out", str(out)],
                  "blank.eval.json: empty name")
    assert not out.exists()


def test_config_wrong_value_type(capsys, chain, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"post": {"low_threshold": "0.1"}}))
    out = tmp_path / "out"
    _expect_error(capsys, ["run", "--config", str(cfg), "--dets", str(chain / "dets.jsonl"),
                           "--model", str(chain / "model.json"), "--out-dir", str(out)],
                  "config key post.low_threshold: expected a number, got '0.1'")
    assert not out.exists()

    cfg.write_text(json.dumps({"num_scenes": "5"}))
    _expect_error(capsys, ["simulate", "--config", str(cfg),
                           "--out-scenes", str(tmp_path / "s.jsonl"),
                           "--out-dets", str(tmp_path / "d.jsonl")],
                  "config key num_scenes: expected an integer, got '5'")
    assert not (tmp_path / "s.jsonl").exists()

    # integers too large for a float, and negative seeds, name their setting
    simulate = ["simulate", "--config", str(cfg), "--num-scenes", "2",
                "--out-scenes", str(tmp_path / "s.jsonl"),
                "--out-dets", str(tmp_path / "d.jsonl")]
    train = _train_argv(chain, tmp_path, "--config", str(cfg))
    run = ["run", "--config", str(cfg), "--dets", str(chain / "dets.jsonl"),
           "--model", str(chain / "model.json"), "--out-dir", str(out)]
    for config, argv, fragment in [
        # a present section is an object; null is not its absence
        ({"sim": None, "noise": None}, simulate, "config key sim: expected an object, got None"),
        ({"noise": None}, simulate, "config key noise: expected an object, got None"),
        ({"post": None}, run, "config key post: expected an object, got None"),
        ({"sim": {"median_height": _HUGE}}, simulate,
         "config key sim.median_height: integer too large for a float"),
        ({"sim": {"image_size": [_HUGE, 800]}}, simulate,
         "config key sim.image_size[0]: integer too large for a float"),
        ({"noise": {"head_fp_rate": _HUGE}}, simulate,
         "config key noise.head_fp_rate: integer too large for a float"),
        ({"train": {"learning_rate": _HUGE}}, train,
         "config key train.learning_rate: integer too large for a float"),
        ({}, [*simulate, "--seed", "-1"], "seed must be non-negative, got -1"),
        ({}, [*simulate, "--noise-seed", "-1"], "seed must be non-negative, got -1"),
        ({}, [*train, "--seed", "-1"], "seed must be non-negative, got -1"),
    ]:
        cfg.write_text(json.dumps(config))
        _expect_error(capsys, argv, fragment)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"], fragment


@pytest.mark.parametrize("field, value", [("box", float("nan")), ("box", float("inf")),
                                          ("score", float("nan")),
                                          ("score", float("inf"))])
def test_non_finite_detection_rejected(capsys, chain, tmp_path, field, value):
    lines = (chain / "dets.jsonl").read_text(encoding="utf-8").splitlines()
    group = json.loads(lines[2])
    if field == "box":
        group["dets"][0]["box"][2] = value
    else:
        group["dets"][0]["score"] = value
    lines[2] = json.dumps(group)
    dets = tmp_path / "dets.jsonl"
    dets.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    fragment = "dets.jsonl:3: dets[0].box:" if field == "box" else "dets.jsonl:3: dets[0]:"
    _expect_error(capsys, ["run", "--dets", str(dets), "--model", str(chain / "model.json"),
                           "--out-dir", str(out)], fragment)
    assert not out.exists()


# inputs that once escaped as tracebacks or were misread; each must name
# its line and field in one stderr line
_HUGE = 10 ** 400


@pytest.mark.parametrize("target, path, value, fragment", [
    pytest.param("dets", ("dets", 0), 5,
                 "dets.jsonl:3: dets[0]: expected an object", id="det-not-object"),
    pytest.param("dets", ("dets", 0, "box", 2), _HUGE,
                 "dets.jsonl:3: dets[0].box: int too large", id="box-huge-int"),
    pytest.param("dets", ("dets", 0, "score"), _HUGE,
                 "dets.jsonl:3: dets[0].score: int too large", id="score-huge-int"),
    pytest.param("dets", ("dets", 0, "score"), "0.5",
                 "dets.jsonl:3: dets[0].score: expected a number, got '0.5'",
                 id="score-string"),
    pytest.param("dets", ("dets", 0, "box", 3), True,
                 "dets.jsonl:3: dets[0].box: expected a number, got True",
                 id="box-bool"),
    pytest.param("dets", ("scene_id",), 7,
                 "dets.jsonl:3: scene_id: expected a string, got 7", id="det-scene-id-int"),
    pytest.param("dets", ("dets", 0, "id"), float("inf"),
                 "dets.jsonl:3: dets[0].id: expected an integer", id="det-id-infinity"),
    pytest.param("dets", ("dets", 0, "id"), 1.5,
                 "dets.jsonl:3: dets[0].id: expected an integer", id="det-id-float"),
    pytest.param("dets", ("dets", 0, "id"), True,
                 "dets.jsonl:3: dets[0].id: expected an integer", id="det-id-bool"),
    pytest.param("dets", None, "[" * 100_000, "dets.jsonl:3: invalid JSON",
                 id="det-line-too-deep"),
    # a lone surrogate escape is written as the raw byte 0xff
    pytest.param("dets", None, '{"format": "detections/v1", "scene_id": "s\udcff"}',
                 "dets.jsonl:3: not UTF-8 (invalid start byte at byte 42)", id="det-not-utf8"),
    pytest.param("scenes", ("persons", 0), 5,
                 "scenes.jsonl:3: persons[0]: expected an object", id="person-not-object"),
    pytest.param("scenes", ("persons", 0, "id"), 1.7,
                 "scenes.jsonl:3: persons[0].id: expected an integer", id="person-id-float"),
    pytest.param("scenes", ("persons", 0, "ignore"), "false",
                 "scenes.jsonl:3: persons[0].ignore: expected a boolean", id="ignore-string"),
    pytest.param("scenes", ("persons", 0, "occ"), _HUGE,
                 "scenes.jsonl:3: persons[0].occ: int too large", id="occ-huge-int"),
    pytest.param("scenes", ("width",), _HUGE,
                 "scenes.jsonl:3: width: int too large", id="width-huge-int"),
    pytest.param("scenes", ("height",), True,
                 "scenes.jsonl:3: height: expected a number, got True", id="height-bool"),
    pytest.param("scenes", ("scene_id",), None,
                 "scenes.jsonl:3: scene_id: expected a string, got None",
                 id="scene-id-null"),
])
def test_malformed_input_is_one_line_error(capsys, chain, tmp_path, target, path, value,
                                           fragment):
    lines = (chain / f"{target}.jsonl").read_text(encoding="utf-8").splitlines()
    if path is None:
        lines[2] = value
    else:
        obj = json.loads(lines[2])
        *parents, last = path
        node = obj
        for key in parents:
            node = node[key]
        node[last] = value
        lines[2] = json.dumps(obj)
    bad = tmp_path / f"{target}.jsonl"
    bad.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    if target == "dets":
        out = tmp_path / "out"
        _expect_error(capsys, ["run", "--dets", str(bad), "--model", str(chain / "model.json"),
                               "--out-dir", str(out)], fragment)
        assert not out.exists()
    else:
        prefix = tmp_path / "eval" / "x"
        _expect_error(capsys, ["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                               "--scenes", str(bad), "--class", BODY,
                               "--out-prefix", str(prefix)], fragment)
        assert not prefix.parent.exists()


def test_outputs_honour_umask(capsys, chain, tmp_path):
    old = os.umask(0o022)
    try:
        assert main(["run", "--dets", str(chain / "dets.jsonl"),
                     "--model", str(chain / "model.json"),
                     "--out-dir", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    written = sorted((tmp_path / "out").iterdir())
    assert [p.name for p in written] == ["audit.json", "baseline.jsonl", "rdm.jsonl"]
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


def test_unknown_top_level_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_scene": 2}))
    _expect_error(capsys, ["simulate", "--config", str(cfg),
                           "--out-scenes", str(tmp_path / "s.jsonl"),
                           "--out-dets", str(tmp_path / "d.jsonl")],
                  "unknown config keys: num_scene")
    assert not (tmp_path / "s.jsonl").exists()


def test_eval_and_report_create_output_directories(capsys, chain, tmp_path):
    prefix = tmp_path / "new" / "evals" / "rdm_body"
    assert main(["eval", "--results", str(chain / "out" / "rdm.jsonl"),
                 "--scenes", str(chain / "scenes.jsonl"), "--class", BODY,
                 "--out-prefix", str(prefix), "--name", "rdm"]) == 0
    for suffix in (".eval.json", ".curve.csv", ".svg"):
        assert filecmp.cmp(str(prefix) + suffix,
                           chain / "eval" / ("rdm_body" + suffix), shallow=False)
    report = tmp_path / "other" / "report.md"
    assert main(["report", "--dir", str(prefix.parent), "--out", str(report)]) == 0
    capsys.readouterr()
    assert "| rdm | - |" in report.read_text(encoding="utf-8")


def test_run_requires_pre_nms_groups(capsys, chain, tmp_path):
    # a file holding only post-NMS groups, which `run` cannot take as input
    dets = tmp_path / "sets.jsonl"
    dets.write_text('{"format": "detections/v1", "scene_id": "s0", "class": "head", '
                    '"stage": "post_nms", "dets": []}\n')
    _expect_error(capsys, ["run", "--dets", str(dets), "--model", str(chain / "model.json"),
                           "--out-dir", str(tmp_path / "out")],
                  "no pre-NMS detection groups found")
    assert not (tmp_path / "out").exists()


def test_run_drops_zero_area_detections(capsys, chain, tmp_path):
    # the top-scoring head and body of the first scene, flattened, are dropped
    # at the score floor: the outputs equal those of a file without them
    lines = (chain / "dets.jsonl").read_text(encoding="utf-8").splitlines()
    flat, gone = list(lines), list(lines)
    for k, cls in ((0, HEAD), (1, BODY)):
        group = json.loads(lines[k])
        assert group["class"] == cls and group["stage"] == "pre_nms"
        top = max(range(len(group["dets"])), key=lambda i: group["dets"][i]["score"])
        box = group["dets"][top]["box"]
        box[2] = box[0]
        flat[k] = json.dumps(group)
        del group["dets"][top]
        gone[k] = json.dumps(group)
    for name, content in (("flat", flat), ("gone", gone)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(content) + "\n", encoding="utf-8")
        assert main(["run", "--dets", str(path), "--model", str(chain / "model.json"),
                     "--out-dir", str(tmp_path / name)]) == 0
    for rel in ("baseline.jsonl", "rdm.jsonl", "audit.json"):
        assert filecmp.cmp(tmp_path / "flat" / rel, tmp_path / "gone" / rel,
                           shallow=False), rel


# ---------------------------------------------------------------------------
# train-rdm settings: post.ioh_threshold gates the pairs, train.hidden_dim
# sets the width

def _train_argv(chain, tmp_path, *extra):
    return ["train-rdm", "--scenes", str(chain / "scenes.jsonl"),
            "--dets", str(chain / "dets.jsonl"), "--out-model", str(tmp_path / "model.json"),
            "--out-loss", str(tmp_path / "loss.csv"), "--epochs", "1", *extra]


@pytest.mark.parametrize("config, flags, fragment", [
    pytest.param(None, ["--hidden-dim", "0"], "hidden_dim must be positive", id="flag-width"),
    pytest.param({"train": {"hidden_dim": 0}}, [], "hidden_dim must be positive",
                 id="config-width"),
    pytest.param({"post": {"ioh_threshold": -1}}, [], "ioh_threshold -1 outside (0, 1)",
                 id="gate-negative"),
    pytest.param({"ioh_threshold": 0.3}, [], "unknown config keys: ioh_threshold",
                 id="old-gate-key"),
    pytest.param({"hidden_dim": 16}, [], "unknown config keys: hidden_dim", id="old-width-key"),
    pytest.param({"train": {"momentum": 0.5}}, [], "unknown TrainConfig keys: momentum",
                 id="fixed-momentum"),
    pytest.param(None, ["--learning-rate", "nan"],
                 "learning_rate must be positive and finite, got nan", id="nan-learning-rate"),
    # sizes past the limits are rejected before anything is allocated
    pytest.param({"train": {"batch_size": 10 ** 400}}, [], "batch_size must be at most 8192",
                 id="huge-batch"),
    pytest.param({"train": {"batch_size": 10 ** 11}}, [], "batch_size must be at most 8192",
                 id="large-batch"),
    pytest.param(None, ["--epochs", str(10 ** 400)], "epochs must be at most 10000",
                 id="huge-epochs"),
    pytest.param({"train": {"hidden_dim": 513}}, [], "hidden_dim must be at most 512",
                 id="wide-model"),
])
def test_train_rdm_rejects_bad_settings(capsys, chain, tmp_path, config, flags, fragment):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = ["--config", str(cfg), *flags]
    _expect_error(capsys, _train_argv(chain, tmp_path, *flags), fragment)
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "loss.csv").exists()


def test_train_rdm_rejects_a_diverging_learning_rate(capsys, chain, tmp_path):
    # the weights pass the bound in the first epoch and would overflow
    # within a few: one error line, no numpy warning, and no model or loss
    # trace left behind.  On 10 scenes, 1 to 4 epochs used to write models
    # whose largest weight was 2.5e11 to 4.1e127
    small = tmp_path / "small"
    assert main(["simulate", "--out-scenes", str(small / "scenes.jsonl"),
                 "--out-dets", str(small / "dets.jsonl"), "--num-scenes", "10",
                 "--seed", "1", "--noise-seed", "1"]) == 0
    for split, epochs in ((chain, 40), (small, 1), (small, 2), (small, 3), (small, 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(_train_argv(split, tmp_path, "--epochs", str(epochs),
                                    "--learning-rate", "1e12")) == 1
        assert re.fullmatch(r"crowdpost train-rdm: error: training diverged in epoch \d+ "
                            r"\(.+\); lower train\.learning_rate, now 1000000000000\.0\n",
                            capsys.readouterr().err), (split, epochs)
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "loss.csv").exists()


def test_simulate_rejects_nan_setting(capsys, tmp_path):
    scenes, dets = tmp_path / "s.jsonl", tmp_path / "d.jsonl"
    _expect_error(capsys, ["simulate", "--out-scenes", str(scenes), "--out-dets", str(dets),
                           "--num-scenes", "2", "--persons-per-image", "nan"],
                  "persons_per_image must be non-negative and finite, got nan")
    assert not scenes.exists() and not dets.exists()


def test_run_rejects_non_finite_model(capsys, chain, tmp_path):
    obj = json.loads((chain / "model.json").read_text())
    obj["layers"][1]["weights"][0] = float("nan")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(obj))
    out = tmp_path / "out"
    _expect_error(capsys, ["run", "--dets", str(chain / "dets.jsonl"), "--model", str(model),
                           "--out-dir", str(out)], "layer 2: non-finite weight or bias")
    assert not out.exists()


@pytest.mark.parametrize("text, fragment", [
    pytest.param("[]", "model must be a JSON object, got list", id="top-level-list"),
    pytest.param('{"layers": "abc"}', "model layers must be a list, got str", id="layers-string"),
    pytest.param('{"layers": [1, 2, 3]}', "layer 1: expected an object, got int", id="layer-int"),
    pytest.param(None, "layer 1: weights must be a list of numbers", id="weights-object"),
])
def test_run_rejects_malformed_model(capsys, chain, tmp_path, text, fragment):
    if text is None:
        obj = json.loads((chain / "model.json").read_text())
        obj["layers"][0]["weights"] = {}
        text = json.dumps(obj)
    model = tmp_path / "model.json"
    model.write_text(text)
    out = tmp_path / "out"
    _expect_error(capsys, ["run", "--dets", str(chain / "dets.jsonl"), "--model", str(model),
                           "--out-dir", str(out)], fragment)
    assert not out.exists()


@pytest.mark.parametrize("ratio", [
    pytest.param("[3, 8, Infinity, 3.5]", id="inf-delta"),
    pytest.param("[NaN, 8, 0, 3.5]", id="nan-alpha"),
    pytest.param("[3, -Infinity, 0, 3.5]", id="negative-inf-alpha"),
])
def test_simulate_rejects_non_finite_ratio(capsys, tmp_path, ratio):
    # the generating head-body ratio is fixed, not a setting, so any
    # true_ratio, finite or not, is refused as an unknown key
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sim": {"true_ratio": %s}}' % ratio)
    scenes, dets = tmp_path / "s.jsonl", tmp_path / "d.jsonl"
    _expect_error(capsys, ["simulate", "--config", str(cfg), "--out-scenes", str(scenes),
                           "--out-dets", str(dets), "--num-scenes", "2"],
                  "unknown SimConfig keys: true_ratio")
    assert not scenes.exists() and not dets.exists()


@pytest.mark.parametrize("value", ["", "bogus", "10"], ids=["empty", "bogus", "number"])
def test_log_level_variable(chain, tmp_path, value):
    # an empty CROWDPOST_LOG reads as WARNING, which keeps `train-rdm`'s INFO
    # line off stderr; a value that names no level is a one-line error that
    # leaves no output
    model, loss = tmp_path / "model.json", tmp_path / "loss.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "crowdpost.cli",
         *_train_argv(chain, tmp_path, "--epochs", "5", "--seed", "0", "--hidden-dim", "16")],
        capture_output=True, text=True, env={**os.environ, "CROWDPOST_LOG": value})
    assert proc.stdout == ""
    if value:
        assert proc.returncode == 1
        assert proc.stderr == (f"crowdpost train-rdm: error: CROWDPOST_LOG={value!r} "
                               "is not a log level name\n")
        assert not model.exists() and not loss.exists()
    else:
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert filecmp.cmp(model, chain / "model.json", shallow=False)


def test_log_lines_on_stderr(chain, tmp_path):
    # `run`'s INFO lines under CROWDPOST_LOG=INFO, the NMS ones for a
    # flattened head and body of the first scene included, and the WARNING
    # line that a zero-area head gives `estimate-ratio` at the default level,
    # byte for byte; `logging` is loaded in both processes only to log.
    # `run` prints the same bytes through `python -m` and through `script`
    env = {k: v for k, v in os.environ.items() if k != "CROWDPOST_LOG"}
    dets = (chain / "dets.jsonl").read_text(encoding="utf-8").splitlines()
    for k, cls in ((0, HEAD), (1, BODY)):
        group = json.loads(dets[k])
        assert group["class"] == cls and group["stage"] == "pre_nms"
        box = max(group["dets"], key=lambda d: d["score"])["box"]
        box[2] = box[0]
        dets[k] = json.dumps(group)
    flat = tmp_path / "dets.jsonl"
    flat.write_text("\n".join(dets) + "\n", encoding="utf-8")
    argv = ["run", "--dets", str(flat), "--model", str(chain / "model.json"),
            "--out-dir", str(tmp_path / "out")]
    errs = []
    for entry in (["-m", "crowdpost.cli"],
                  ["-c", "import sys; from crowdpost.cli import script; sys.exit(script())"]):
        proc = subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True,
                              env={**env, "CROWDPOST_LOG": "INFO"})
        assert proc.returncode == 0, proc.stderr
        errs.append(proc.stderr)
    audit = json.loads((tmp_path / "out" / "audit.json").read_text(encoding="utf-8"))["scenes"]
    recalled = sum(len(scene["recalled_body_ids"]) for scene in audit)
    removed = sum(len(scene["removed_head_ids"]) for scene in audit)
    assert errs == 2 * [("INFO crowdpost.nms: dropped 1 zero-area detections\n" * 2
                         + f"INFO crowdpost.cli: recalled {recalled} bodies, removed {removed} "
                         f"heads over {len(audit)} scenes\n")]

    scenes = (chain / "scenes.jsonl").read_text(encoding="utf-8").splitlines()
    scene = json.loads(scenes[0])
    head = scene["persons"][0]["head"]
    head[2] = head[0]
    scenes[0] = json.dumps(scene)
    flat = tmp_path / "scenes.jsonl"
    flat.write_text("\n".join(scenes) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "crowdpost.cli", "estimate-ratio", "--scenes", str(flat),
         "--out", str(tmp_path / "ratio.json")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("WARNING crowdpost.ratio: estimate_ratio skipped 1 pair(s) "
                           "with zero-area heads\n")


def test_library_calls_set_up_no_logging():
    # outside `cli.main`, a zero-area box in `nms_groups` and a zero-area head
    # in `estimate_ratio` log to their module's logger alone: the root logger
    # keeps its handlers (none), so the WARNING shows bare through Python's
    # last-resort handler, and so does a host's own later line
    code = "\n".join([
        "import logging",
        "import numpy as np",
        "from crowdpost.data_model import HEAD, PRE_NMS, group_columns",
        "from crowdpost.nms import NmsConfig, nms_groups",
        "from crowdpost.ratio import estimate_ratio",
        "groups = group_columns([('s0', HEAD, PRE_NMS, [1, 2],",
        "                         [5.0, 5.0, 5.0, 15.0, 0.0, 0.0, 10.0, 10.0], [0.9, 0.8])])",
        "nms_groups(groups.detections, NmsConfig())",
        "print(logging.getLogger().handlers)",
        "estimate_ratio(np.array([[0.0, 0.0, 0.0, 10.0], [10.0, 10.0, 20.0, 20.0]]),",
        "               np.array([[0.0, 0.0, 30.0, 80.0], [5.0, 10.0, 35.0, 90.0]]))",
        "print(logging.getLogger().handlers)",
        "logging.getLogger('host').warning('a host line')"])
    env = {k: v for k, v in os.environ.items() if k != "CROWDPOST_LOG"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
    assert proc.stderr == "estimate_ratio skipped 1 pair(s) with zero-area heads\na host line\n"


def test_train_rdm_gates_pairs_like_run(chain, tmp_path, monkeypatch):
    from crowdpost import cli
    from crowdpost.nms import NmsConfig
    from crowdpost.records import build_detection_set, build_training_pairs, detection_lists

    seen = []
    real_train = cli.train

    def spy(features, labels, cfg):
        seen.append((features, labels))
        return real_train(features, labels, cfg)

    monkeypatch.setattr(cli, "train", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"post": {"ioh_threshold": 0.3}}))
    assert main(_train_argv(chain, tmp_path, "--config", str(cfg))) == 0

    scenes = read_scenes(chain / "scenes.jsonl")
    groups = read_detection_groups(chain / "dets.jsonl")
    heads, bodies = cli._pre_nms_columns(groups)
    sets = [build_detection_set(sid, h, b, NmsConfig()) for sid, h, b in
            zip(heads.scene_ids, detection_lists(heads), detection_lists(bodies))]
    features, labels = build_training_pairs(scenes, sets, 0.3)
    (got_features, got_labels), = seen
    assert np.array_equal(got_features, features)
    assert np.array_equal(got_labels, labels)
    # the looser gate admits pairs the default 0.7 gate does not
    assert len(labels) > len(build_training_pairs(scenes, sets, 0.7)[1])
