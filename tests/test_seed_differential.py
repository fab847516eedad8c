"""Seed differential: one small split through the whole chain (simulate,
estimate-ratio, train-rdm, simulate, run, four evals, report), once with
this source tree, in process, and once with the frozen seed copy of the
package under perfbench/seed_crowdpost, as subprocesses.  Every output must
be the same bytes, except the audit's pair scores, which may differ in the
last bits."""

import json
import os
import pathlib
import subprocess
import sys

from crowdpost.cli import main
from crowdpost.data_model import BODY, HEAD

SEED_SRC = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "seed_crowdpost"


def _chain(d: pathlib.Path) -> list[list[str]]:
    """The chain's argument lists, every file under `d`."""
    def simulate(prefix, seed):
        return ["simulate", "--out-scenes", f"{d}/{prefix}_scenes.jsonl",
                "--out-dets", f"{d}/{prefix}_dets.jsonl", "--num-scenes", "12",
                "--seed", str(seed), "--noise-seed", str(seed), "--cluster-prob", "0.8"]

    argvs = [simulate("train", 3),
             ["estimate-ratio", "--scenes", f"{d}/train_scenes.jsonl",
              "--out", f"{d}/ratio.json"],
             ["train-rdm", "--scenes", f"{d}/train_scenes.jsonl",
              "--dets", f"{d}/train_dets.jsonl", "--out-model", f"{d}/model.json",
              "--out-loss", f"{d}/loss.csv", "--epochs", "20"],
             simulate("test", 4),
             ["run", "--dets", f"{d}/test_dets.jsonl", "--model", f"{d}/model.json",
              "--out-dir", f"{d}/out"]]
    for variant in ("baseline", "rdm"):
        for cls in (HEAD, BODY):
            argvs.append(["eval", "--results", f"{d}/out/{variant}.jsonl",
                          "--scenes", f"{d}/test_scenes.jsonl", "--class", cls,
                          "--out-prefix", f"{d}/eval/{variant}_{cls}", "--name", variant])
    argvs.append(["report", "--dir", f"{d}/eval", "--out", f"{d}/report.md"])
    return argvs


def _files(d: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def test_outputs_equal_the_seed_copy(tmp_path, capsys):
    ours, seed = tmp_path / "src", tmp_path / "seed"
    # the seed copy does not create missing directories
    for d in (ours, seed):
        (d / "eval").mkdir(parents=True)
    for argv in _chain(ours):
        assert main(argv) == 0, argv
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(SEED_SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("CROWDPOST_LOG", None)
    for argv in _chain(seed):
        proc = subprocess.run([sys.executable, "-m", "crowdpost.cli", *argv], env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)

    got, expected = _files(ours), _files(seed)
    assert sorted(got) == sorted(expected)
    audit = "out/audit.json"
    for name in expected:
        if name != audit:
            assert got[name] == expected[name], name

    def split(raw):
        # the audit without its pair scores, and the scores
        scenes = json.loads(raw)["scenes"]
        layout = [(s["scene_id"], s["recalled_body_ids"], s["removed_head_ids"],
                   [(p["head"], p["body"], p["phase"]) for p in s["pairs"]]) for s in scenes]
        return layout, [p["score"] for s in scenes for p in s["pairs"]]

    layout, scores = split(got[audit])
    expected_layout, expected_scores = split(expected[audit])
    assert layout == expected_layout
    assert len(scores) == len(expected_scores) > 0
    assert max(abs(a - b) for a, b in zip(scores, expected_scores)) <= 1e-12
