"""Bounded mutation test over the six commands.

Each input file a command reads (a config, scene, detection, model or
eval-result file) is mutated with fixed seeds: truncated, a bit flipped, a
line repeated, two tokens swapped or a span deleted.  Every call must exit
0, or exit 1 with one stderr line and no output file left behind.

`mutants(data, count, seed)` is the corpus generator; it is deterministic,
so the same corpus can be replayed through another build of the commands.
"""

import random
import re
import shutil

import pytest

from crowdpost.cli import main

from test_cli import _chain

# separators and blanks stay tokens of their own, so a swap moves whole
# numbers, strings and keys
_TOKEN = re.compile(rb'("(?:[^"\\]|\\.)*"|[{}\[\]:,\s])')


def _truncate(rng, data):
    return data[:rng.randrange(len(data))]


def _flip(rng, data):
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]


def _repeat_line(rng, data):
    lines = data.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    return b"".join(lines[:k + 1] + lines[k:])


def _swap_tokens(rng, data):
    parts = _TOKEN.split(data)
    tokens = [k for k, t in enumerate(parts) if t.strip()]
    a, b = rng.sample(tokens, 2)
    parts[a], parts[b] = parts[b], parts[a]
    return b"".join(parts)


def _delete(rng, data):
    i = rng.randrange(len(data))
    return data[:i] + data[i + rng.randint(1, 16):]


MUTATIONS = (_truncate, _flip, _repeat_line, _swap_tokens, _delete)


def mutants(data: bytes, count: int, seed: int) -> list[bytes]:
    """`count` mutated copies of `data`, each mutation kind in turn."""
    rng = random.Random(seed)
    return [MUTATIONS[k % len(MUTATIONS)](rng, data) for k in range(count)]


# the simulator's settings that a mutation could grow without bound, the
# scene and person counts, come from flags, which override the config
CONFIG = (b'{"sim": {"image_size": [400.0, 300.0], "median_height": 60.0, "seed": 3}, '
          b'"noise": {"head_fp_rate": 1.0, "body_fp_rate": 0.5, "seed": 4}}\n')


def _argv(command, inputs, out):
    """The argv of `command`, reading its inputs from `inputs` and writing under `out`."""
    return {
        "simulate": ["simulate", "--config", str(inputs / "config.json"),
                     "--out-scenes", str(out / "s.jsonl"), "--out-dets", str(out / "d.jsonl"),
                     "--num-scenes", "2", "--persons-per-image", "3"],
        "estimate-ratio": ["estimate-ratio", "--scenes", str(inputs / "scenes.jsonl"),
                           "--out", str(out / "ratio.json")],
        "train-rdm": ["train-rdm", "--scenes", str(inputs / "scenes.jsonl"),
                      "--dets", str(inputs / "dets.jsonl"), "--out-model", str(out / "m.json"),
                      "--out-loss", str(out / "loss.csv"), "--epochs", "1",
                      "--hidden-dim", "8"],
        "run": ["run", "--dets", str(inputs / "dets.jsonl"),
                "--model", str(inputs / "model.json"), "--out-dir", str(out / "run")],
        "eval": ["eval", "--results", str(inputs / "rdm.jsonl"),
                 "--scenes", str(inputs / "scenes.jsonl"), "--class", "body",
                 "--out-prefix", str(out / "e"), "--name", "rdm"],
        "report": ["report", "--dir", str(inputs / "eval"), "--out", str(out / "report.md")],
    }[command]


# (command, the input file mutated, seed)
CASES = [("simulate", "config.json", 1), ("estimate-ratio", "scenes.jsonl", 2),
         ("train-rdm", "scenes.jsonl", 3), ("train-rdm", "dets.jsonl", 4),
         ("run", "dets.jsonl", 5), ("run", "model.json", 6),
         ("eval", "rdm.jsonl", 7), ("eval", "scenes.jsonl", 8),
         ("report", "eval/rdm_body.eval.json", 9)]
PER_CASE = 40


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    chain = _chain(tmp_path_factory.mktemp("mutations") / "chain")
    d = tmp_path_factory.mktemp("inputs")
    for name in ("scenes.jsonl", "dets.jsonl", "model.json"):
        shutil.copy(chain / name, d / name)
    shutil.copy(chain / "out" / "rdm.jsonl", d / "rdm.jsonl")
    shutil.copytree(chain / "eval", d / "eval")
    (d / "config.json").write_bytes(CONFIG)
    return d


@pytest.mark.parametrize("command, name, seed", CASES,
                         ids=[f"{c}-{n.rsplit('/', 1)[-1]}" for c, n, _ in CASES])
def test_mutated_input_exits_cleanly(capsys, inputs, tmp_path, command, name, seed):
    original = (inputs / name).read_bytes()
    outcomes = set()
    try:
        for k, data in enumerate(mutants(original, PER_CASE, seed)):
            (inputs / name).write_bytes(data)
            out = tmp_path / str(k)
            out.mkdir()
            code = main(_argv(command, inputs, out))
            err = capsys.readouterr().err
            assert code in (0, 1), (k, data)
            if code == 1:
                assert err.startswith(f"crowdpost {command}: error: ") and err.count("\n") == 1, \
                    (k, err)
                assert not [p for p in out.rglob("*") if p.is_file()], (k, err)
            outcomes.add(code)
    finally:
        (inputs / name).write_bytes(original)
    # the corpus reaches the error path
    assert 1 in outcomes

