"""crowdpost benchmark: end-to-end CLI timings and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-apply --seed 0 --seconds 22 --trace 0

`--trace 0` times the workload's `crowdpost` command chain as subprocesses
(what a user runs), each call next to the same call on a frozen copy of the
seed code, and prints the end-to-end metrics.  `--trace 1` runs the
set-up and timed calls once through the CLI, then in this process untraced,
traced (a span around every call into a crowdpost module) and untraced
again, and prints the per-layer metrics.  Both modes check every output file byte for byte against
an in-process replay and count each program call that exits non-zero or
writes different bytes as failed.  The last stdout line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line before
it (`record ...`) carries the machine, versions, sample counts and work
counts.  See perfbench/README.md for the workloads and metric definitions.

One client, closed loop: each call starts when the previous one has ended.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# One BLAS thread here and in every child (numpy is imported later).  With
# numpy's default of one thread per CPU, a 2-vCPU machine runs a spinning
# second BLAS thread beside each call, and the call's time then depends on
# what else holds that CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# a frozen copy of crowdpost as it was when the benchmark was defined; see
# run_timed for why every timed call is paired with the same call on it
SEED_SRC = os.path.join(HERE, "seed_crowdpost")
WORK = os.path.join(ROOT, ".perfbench_work")

HEAD, BODY = "head", "body"
VARIANTS = ("baseline", "rdm")

# The README's table for its walkthrough seeds; any change in a reported
# MR-2 digit is a quality change, not a speed-up.
README_TABLE = ("| variant | head MR-2 | body MR-2 |\n"
                "|---|---|---|\n"
                "| baseline | 10.50% | 30.39% |\n"
                "| rdm | 6.64% | 20.60% |\n")

# percentiles tried for a tail, highest first; one is reported only when at
# least TAIL_BEYOND samples lie above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

SETUP_REPEATS = 3   # set-up chains per --trace 0 run
MIN_REPEATS = 2     # timed chains per --trace 0 run, however short --seconds


@dataclass(frozen=True)
class Split:
    """One `crowdpost simulate` call: scene count and crowd shape."""
    num_scenes: int
    cluster_prob: float
    persons_per_image: float | None = None  # None: the simulator default


@dataclass(frozen=True)
class Workload:
    """A model trained in set-up on `train`, applied to a `test` split seeded
    from --seed; the timed chain is `run` plus four `eval` calls."""
    name: str
    train: Split
    test: Split
    epochs: int
    # split evaluated in one process after the timed phase for the MR-2
    # metrics, and the report table it must give (None: not checked)
    reference: Split
    expected_table: str | None


README_TRAIN = Split(60, 0.65)
README_TEST = Split(200, 0.65)

WORKLOADS = {
    w.name: w for w in (
        Workload("dense-apply", README_TRAIN, Split(60, 0.95, 60.0), epochs=150,
                 reference=README_TEST, expected_table=README_TABLE),
        Workload("sparse-apply", README_TRAIN, Split(1500, 0.0, 3.0), epochs=150,
                 reference=README_TEST, expected_table=README_TABLE),
    )
}

TRAIN_SEED = 500          # README training split
LEARNING_RATE = 0.05      # README training recipe
SEEDED_BASE = 5000        # test split of seed n starts at SEEDED_BASE + n * SEED_STRIDE
SEED_STRIDE = 10000       # wider than any split, so seeds share no scene


# ---------------------------------------------------------------------------
# call chains

@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # paths relative to the chain's output directory
    out_dir: str

    @property
    def command(self) -> str:
        return self.argv[0]


def _simulate(split: Split, seed: int, prefix: str, d: str) -> Call:
    argv = ["simulate", "--out-scenes", f"{d}/{prefix}_scenes.jsonl",
            "--out-dets", f"{d}/{prefix}_dets.jsonl",
            "--num-scenes", str(split.num_scenes), "--seed", str(seed),
            "--noise-seed", str(seed), "--cluster-prob", repr(split.cluster_prob)]
    if split.persons_per_image is not None:
        argv += ["--persons-per-image", repr(split.persons_per_image)]
    return Call(tuple(argv), (f"{prefix}_scenes.jsonl", f"{prefix}_dets.jsonl"), d)


def _train(w: Workload, d: str) -> Call:
    return Call(("train-rdm", "--scenes", f"{d}/train_scenes.jsonl",
                 "--dets", f"{d}/train_dets.jsonl", "--out-model", f"{d}/model.json",
                 "--out-loss", f"{d}/loss.csv", "--epochs", str(w.epochs),
                 "--learning-rate", repr(LEARNING_RATE), "--seed", "0"),
                ("model.json", "loss.csv"), d)


def _apply(inputs: str, prefix: str, d: str, report: bool) -> list[Call]:
    """`run`, four `eval` calls and optionally `report`: model and the
    `<prefix>` split are read from `inputs`, outputs are written under `d`."""
    calls = [Call(("run", "--dets", f"{inputs}/{prefix}_dets.jsonl",
                   "--model", f"{inputs}/model.json", "--out-dir", f"{d}/out"),
                  ("out/baseline.jsonl", "out/rdm.jsonl", "out/audit.json"), d)]
    for variant in VARIANTS:
        for cls in (HEAD, BODY):
            stem = f"eval/{variant}_{cls}"
            calls.append(Call(("eval", "--results", f"{d}/out/{variant}.jsonl",
                               "--scenes", f"{inputs}/{prefix}_scenes.jsonl",
                               "--class", cls, "--out-prefix", f"{d}/{stem}",
                               "--name", variant),
                              (stem + ".eval.json", stem + ".curve.csv", stem + ".svg"), d))
    if report:
        calls.append(Call(("report", "--dir", f"{d}/eval", "--out", f"{d}/report.md"),
                          ("report.md",), d))
    return calls


def test_seed(seed: int) -> int:
    return SEEDED_BASE + SEED_STRIDE * seed


def setup_calls(w: Workload, seed: int, d: str) -> list[Call]:
    """The README preparation steps: training split, ratio, model, test split."""
    return [_simulate(w.train, TRAIN_SEED, "train", d),
            Call(("estimate-ratio", "--scenes", f"{d}/train_scenes.jsonl",
                  "--out", f"{d}/ratio.json"), ("ratio.json",), d),
            _train(w, d),
            _simulate(w.test, test_seed(seed), "test", d)]


def timed_calls(inputs: str, d: str) -> list[Call]:
    """The timed chain, reading model and test split from `inputs`."""
    return _apply(inputs, "test", d, report=False)


def reference_calls(w: Workload, d: str) -> list[Call]:
    """The README test split through the model in `d`, for the MR-2 metrics."""
    return [_simulate(w.reference, 0, "ref", d)] + _apply(d, "ref", d, report=True)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "eval"))
    return path


def digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# running calls

@dataclass
class CallResult:
    call: Call
    wall_s: float
    rss_mb: float
    digests: dict
    failed: bool  # exited non-zero, or an output failed a check


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("CROWDPOST_LOG", None)
    return env


class Runner:
    """Runs calls through the CLI or in this process; counts every call."""

    def __init__(self, after_call=None):
        self.env = _child_env(SRC)
        self.seed_env = _child_env(SEED_SRC)
        self.results: list[CallResult] = []
        # test hook: called as after_call(call) after each CLI call
        self.after_call = after_call

    def _subprocess(self, argv, env) -> tuple[int, float, float, str]:
        err_path = os.path.join(WORK, f"stderr-{os.getpid()}.txt")
        with open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "crowdpost.cli", *argv],
                                    cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode("utf-8", "replace").strip()
        os.unlink(err_path)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, message

    def probe(self) -> float:
        """Wall time of `crowdpost --help`: interpreter, numpy and package import."""
        return self.cli(Call(("--help",), (), ROOT)).wall_s

    def seed_cli(self, call: Call) -> float:
        """Wall time of `call` on the frozen seed copy.  It is not a program
        call, so it is not counted, and a failure stops the benchmark."""
        rc, wall, _, message = self._subprocess(call.argv, self.seed_env)
        if rc != 0:
            raise RuntimeError(f"seed copy: {call.command} exited {rc}: {message}")
        return wall

    def cli(self, call: Call) -> CallResult:
        rc, wall, rss, message = self._subprocess(call.argv, self.env)
        if rc != 0:
            print(f"perfbench: {call.command} exited {rc}: {message}", file=sys.stderr)
        if self.after_call is not None:
            self.after_call(call)
        return self._record(call, rc == 0, wall, rss)

    def inproc(self, call: Call, main) -> CallResult:
        t0 = time.perf_counter()
        try:
            # `report` prints its table; keep this process's stdout for the result
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(list(call.argv))
        except Exception as exc:  # a crash is a failed call; keep measuring
            print(f"perfbench: in-process {call.command} raised {exc!r}", file=sys.stderr)
            rc = 1
        return self._record(call, rc == 0, time.perf_counter() - t0, 0.0)

    def _record(self, call, ok, wall, rss) -> CallResult:
        res = CallResult(call, wall, rss,
                         {rel: digest(os.path.join(call.out_dir, rel))
                          for rel in call.outputs},
                         failed=not ok)
        self.results.append(res)
        return res

    def chain(self, calls, main=None) -> list[CallResult]:
        return [self.cli(c) if main is None else self.inproc(c, main) for c in calls]

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.results)


def check_against(results: list[CallResult], reference: list[CallResult]) -> None:
    """Mark a call failed when any output differs from the reference chain's."""
    if len(results) != len(reference):
        raise ValueError("chains of different length compared")
    for res, ref in zip(results, reference):
        if res.call.command != ref.call.command:
            raise ValueError("chains of different commands compared")
        if any(res.digests[k] is None or res.digests[k] != ref.digests[k]
               for k in res.call.outputs):
            res.failed = True


def check_table(results: list[CallResult], expected: str | None) -> None:
    """Mark the `report` call failed when its table differs from `expected`."""
    if expected is None:
        return
    for res in results:
        if res.call.command == "report":
            try:
                with open(os.path.join(res.call.out_dir, "report.md"), encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                text = ""
            table = "".join(line + "\n" for line in text.splitlines()
                            if line.startswith("|"))
            if table != expected:
                res.failed = True


def read_mr2(d: str, variant: str, cls: str) -> float:
    with open(os.path.join(d, "eval", f"{variant}_{cls}.eval.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["mr2"])


def mr2_table(d: str) -> dict:
    try:
        return {f"{v}_{c}": read_mr2(d, v, c) for v in VARIANTS for c in (HEAD, BODY)}
    except (OSError, ValueError, KeyError):
        return {}


# ---------------------------------------------------------------------------
# tracing: spans around calls into each crowdpost module

class Tracer:
    """Records (name, start, end, parent) spans in memory.

    Counting done for a span runs in its own `trace.count` span, so
    bookkeeping is not charged to the layer that called the traced function.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                self.call("trace.count", count, self, result, *args, **kwargs)
            return result
        return traced

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def busy(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, t0, t1, _ in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0)
        return out

    def self_time(self) -> dict[str, float]:
        out = self.busy()
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] -= t1 - t0
        return out

    def durations(self, name) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.spans if n == name]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_read(tr, result, path, *_):
    tr.add("data_model.bytes_read", _size(path))


def _count_write(tr, result, items, path, *_):
    tr.add("data_model.bytes_written", _size(path))


def _count_scenes(tr, scenes, *_):
    tr.add("simulator.scenes", len(scenes))


def _count_sim_dets(tr, dets, *_):
    tr.add("simulator.dets_pre_nms", sum(len(h) + len(b) for h, b in dets.values()))


def _count_nms(tr, ds, scene_id, heads_pre, bodies_pre, cfg):
    heads_floor = sum(d.score >= cfg.score_floor for d in heads_pre)
    bodies_floor = len(ds.bodies_pre_nms)
    tr.add("nms.dets_in", len(heads_pre) + len(bodies_pre))
    tr.add("nms.dets_after_floor", heads_floor + bodies_floor)
    tr.add("nms.dets_kept", len(ds.heads_post_nms) + len(ds.bodies_post_nms))
    # pairs a greedy NMS may compare: n(n-1)/2 per scene and class
    tr.add("nms.candidate_pairs", (heads_floor * (heads_floor - 1)
                                   + bodies_floor * (bodies_floor - 1)) // 2)


def _count_pairs(tr, result, *_):
    tr.add("rdm.train_pairs", len(result[1]))


def _count_train(tr, result, features, labels, cfg, *_):
    steps = cfg.epochs * max(1, math.ceil(len(labels) / cfg.batch_size))
    tr.add("rdm.train_steps", steps)
    tr.add("rdm.train_samples", steps * cfg.batch_size)


def _count_eval(tr, result, dets, *_):
    tr.add("evaluator.dets", len(dets))
    tr.add("evaluator.curve_points", len(result.curve))


def _traced_postprocess(tr: Tracer, postprocess):
    """Wrap `postprocess` and the scorer callable it is given."""
    def traced(heads, bodies_pre, bodies_post, scorer, cfg):
        calls_before = len(tr.spans)
        out = tr.call("pipeline", postprocess, heads, bodies_pre, bodies_post,
                      tr.wrap("rdm.score", scorer), cfg)
        tr.call("trace.count", _count_post, tr, out, calls_before)
        return out
    return traced


def _count_post(tr, out, first_span):
    # spans still open (this one) are None
    scored = sum(1 for s in tr.spans[first_span:] if s and s[0] == "rdm.score")
    second = [r for r in out.pair_log if r.phase == "second"]
    heads_second = {r.head_id for r in second}
    # a mismatched head either has phase-2 partners or is removed for having none
    mismatched = len(heads_second) + sum(1 for h in out.removed_head_ids
                                         if h not in heads_second)
    tr.add("pipeline.phase1_pairs", scored - len(second))
    tr.add("pipeline.phase2_pairs", len(second))
    tr.add("pipeline.mismatched_heads", mismatched)
    tr.add("pipeline.recalled", len(out.recalled_body_ids))
    tr.add("pipeline.removed", len(out.removed_head_ids))


def install_tracer(cli, tr: Tracer) -> dict:
    """Patch the names the CLI calls with traced wrappers; returns originals."""
    plan = {
        "read_scenes": ("data_model.read", _count_read),
        "read_detection_groups": ("data_model.read", _count_read),
        "write_scenes": ("data_model.write", _count_write),
        "write_detection_groups": ("data_model.write", _count_write),
        "generate_scenes": ("simulator", _count_scenes),
        "simulate_detections": ("simulator", _count_sim_dets),
        "scene_pairs": ("ratio", None),
        "estimate_ratio": ("ratio", None),
        "save_ratio": ("ratio", None),
        "build_detection_set": ("nms", _count_nms),
        "build_training_pairs": ("rdm.pairs_build", _count_pairs),
        "train": ("rdm.train", _count_train),
        "load_model": ("rdm.io", None),
        "save_model": ("rdm.io", None),
        "write_loss_csv": ("rdm.io", None),
        "compute_mr2": ("evaluator", _count_eval),
        "write_result_json": ("evaluator.write", None),
        "write_curve_csv": ("evaluator.write", None),
        "write_curve_svg": ("evaluator.write", None),
    }
    originals = {name: getattr(cli, name) for name in [*plan, "postprocess"]}
    for name, (span, count) in plan.items():
        setattr(cli, name, tr.wrap(span, originals[name], count))
    cli.postprocess = _traced_postprocess(tr, originals["postprocess"])
    return originals


# layers whose spans sit directly under a CLI call; with cli.self_s and the
# unattributed remainder they add up to the traced in-process wall time
TOP_LAYERS = ("simulator", "data_model.read", "data_model.write", "ratio", "nms",
              "rdm.pairs_build", "rdm.train", "rdm.io", "pipeline", "evaluator",
              "evaluator.write", "trace.count")


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile with at least
    TAIL_BEYOND samples above it; (0, 0) when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        # nearest rank; rounding keeps 99.9% of 3000 at rank 2997, not 2998
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 0.0, 0.0


def layer_metrics(tr: Tracer, traced_s: float, untraced_s: float,
                  cli_s: float, startup_s: float) -> dict:
    busy, own = tr.busy(), tr.self_time()
    b = lambda name: busy.get(name, 0.0)
    c = lambda key: tr.counts.get(key, 0)
    scene_ms = [d * 1000.0 for d in tr.durations("pipeline")]
    tail_pct, tail_ms = tail(scene_ms)
    attributed = own.get("cli.main", 0.0) + sum(b(n) for n in TOP_LAYERS)
    mismatched = c("pipeline.mismatched_heads")
    score_s = b("rdm.score")
    m = {
        "cli.startup_s": (startup_s, "s"),
        "cli.overhead_s": (cli_s - untraced_s, "s"),
        "cli.self_s": (own.get("cli.main", 0.0), "s"),
        "simulator.busy_s": (b("simulator"), "s"),
        "simulator.scenes": (c("simulator.scenes"), "count"),
        "simulator.dets_pre_nms": (c("simulator.dets_pre_nms"), "count"),
        "data_model.read_s": (b("data_model.read"), "s"),
        "data_model.write_s": (b("data_model.write"), "s"),
        "data_model.bytes_read": (c("data_model.bytes_read"), "bytes"),
        "data_model.bytes_written": (c("data_model.bytes_written"), "bytes"),
        "ratio.busy_s": (b("ratio"), "s"),
        "nms.busy_s": (b("nms"), "s"),
        "nms.dets_after_floor": (c("nms.dets_after_floor"), "count"),
        "nms.dets_kept": (c("nms.dets_kept"), "count"),
        "nms.candidate_pairs": (c("nms.candidate_pairs"), "computed_count"),
        "rdm.pairs_build_s": (b("rdm.pairs_build"), "s"),
        "rdm.train_pairs": (c("rdm.train_pairs"), "count"),
        "rdm.train_s": (b("rdm.train"), "s"),
        "rdm.train_steps": (c("rdm.train_steps"), "count"),
        "rdm.train_samples_per_s": (c("rdm.train_samples") / b("rdm.train")
                                    if b("rdm.train") else 0.0, "1/s"),
        "rdm.io_s": (b("rdm.io"), "s"),
        "rdm.score_s": (score_s, "s"),
        "rdm.score_calls": (len(tr.durations("rdm.score")), "count"),
        "pipeline.busy_s": (b("pipeline"), "s"),
        "pipeline.self_s": (b("pipeline") - score_s, "s"),
        "pipeline.scenes": (len(scene_ms), "count"),
        "pipeline.scene_p50_ms": (statistics.median(scene_ms) if scene_ms else 0.0, "ms"),
        "pipeline.scene_tail_ms": (tail_ms, "ms"),
        "pipeline.scene_tail_pct": (tail_pct, "percentile"),
        "pipeline.phase1_pairs": (c("pipeline.phase1_pairs"), "count"),
        "pipeline.phase2_pairs": (c("pipeline.phase2_pairs"), "count"),
        "pipeline.mismatched_heads": (mismatched, "count"),
        "pipeline.recalled": (c("pipeline.recalled"), "count"),
        "pipeline.removed": (c("pipeline.removed"), "count"),
        "pipeline.action_ratio": ((c("pipeline.recalled") + c("pipeline.removed"))
                                  / mismatched if mismatched else 0.0, "fraction"),
        "evaluator.busy_s": (b("evaluator"), "s"),
        "evaluator.write_s": (b("evaluator.write"), "s"),
        "evaluator.dets": (c("evaluator.dets"), "count"),
        "evaluator.curve_points": (c("evaluator.curve_points"), "count"),
        "trace.count_s": (b("trace.count"), "s"),
        "trace.inproc_s": (traced_s, "s"),
        "trace.unattributed_s": (traced_s - attributed, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def work_counts(tr: Tracer) -> dict:
    """Counts recorded with every result (scenes, detections, pairs)."""
    keys = ("simulator.scenes", "simulator.dets_pre_nms", "nms.dets_in",
            "nms.dets_after_floor", "nms.dets_kept", "pipeline.phase1_pairs",
            "pipeline.phase2_pairs", "pipeline.recalled", "pipeline.removed",
            "rdm.train_pairs")
    return {"scenes": len(tr.durations("pipeline")),
            **{k: tr.counts.get(k, 0) for k in keys}}


# ---------------------------------------------------------------------------
# environment record

def _blas_threads():
    """Thread count of the BLAS numpy loaded, via threadpoolctl when installed,
    else by asking numpy's bundled OpenBLAS."""
    try:
        from threadpoolctl import threadpool_info
        return [i.get("num_threads") for i in threadpool_info()
                if i.get("user_api") == "blas"]
    except ImportError:
        pass
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return [fn()]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "src_lines": src_lines}


# ---------------------------------------------------------------------------
# the two modes

def _median(values):
    return statistics.median(values) if values else 0.0


def _replay(runner, cli, calls, tracer=None) -> tuple[list[CallResult], float]:
    """All calls in this process; traced when a Tracer is given."""
    originals = install_tracer(cli, tracer) if tracer is not None else {}
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    try:
        t0 = time.perf_counter()
        results = runner.chain(calls, main)
        wall = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return results, wall


def _ratio_median(num: list[float], den: list[float]) -> float:
    return statistics.median(n / d for n, d in zip(num, den))


def _write_back(path: str) -> None:
    """fsync every file under `path`, so that the kernel does not write it
    back while a timed call runs."""
    for dirpath, _, names in os.walk(path):
        for name in names:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_timed(w: Workload, seed: int, seconds: float, runner: Runner, cli, base: str):
    seed_inputs = _fresh_dir(os.path.join(base, "seed_setup"))
    for call in setup_calls(w, seed, seed_inputs):
        if call.command != "estimate-ratio":  # `run` does not read it
            runner.seed_cli(call)
    setups = [runner.chain(setup_calls(w, seed, _fresh_dir(os.path.join(base, f"setup{i}"))))
              for i in range(SETUP_REPEATS)]
    setup_walls = [sum(r.wall_s for r in res) for res in setups]
    inputs = os.path.join(base, "setup0")
    # The other set-ups are only compared by digest.  Removing them, and
    # writing the inputs to disk now, keeps write-back of set-up files out
    # of the timed calls, which would otherwise slow whichever call it hits.
    for i in range(1, SETUP_REPEATS):
        shutil.rmtree(os.path.join(base, f"setup{i}"))
    _write_back(inputs)
    _write_back(seed_inputs)

    # Timed phase: whole chains until --seconds have passed.  The speed of a
    # shared vCPU swings by up to half over seconds to minutes, so a time on
    # its own does not repeat from run to run.  Each program call therefore
    # runs next to the same call on the frozen seed copy, the two in
    # alternating order, and chain_speedup is the median over repeats of
    # seed chain time / program chain time.
    chains, seed_chains = [], []
    t_start = time.perf_counter()
    while len(chains) < MIN_REPEATS or time.perf_counter() - t_start < seconds:
        r = len(chains)
        # both sides write into a fresh directory, so neither pays for the
        # other's files
        prog = timed_calls(inputs, _fresh_dir(os.path.join(base, "rep")))
        ref = timed_calls(seed_inputs, _fresh_dir(os.path.join(base, "seed_rep")))
        results, seed_walls = [], []
        for i, (p, q) in enumerate(zip(prog, ref)):
            if (r + i) % 2:
                results.append(runner.cli(p))
                seed_walls.append(runner.seed_cli(q))
            else:
                seed_walls.append(runner.seed_cli(q))
                results.append(runner.cli(p))
        chains.append(results)
        seed_chains.append(seed_walls)
    walls = [sum(r.wall_s for r in res) for res in chains]

    # traced in-process replay of the timed calls: reference bytes and counts.
    # Set-ups are compared with each other; --trace 1 compares them with an
    # in-process replay too.
    tr = Tracer()
    replay, _ = _replay(runner, cli, timed_calls(
        inputs, _fresh_dir(os.path.join(base, "replay"))), tr)
    for res in setups[1:]:
        check_against(res, setups[0])
    for res in chains:
        check_against(res, replay)

    # quality guard: the README test split through the set-up model
    fd = _fresh_dir(os.path.join(base, "reference"))
    shutil.copyfile(os.path.join(inputs, "model.json"), os.path.join(fd, "model.json"))
    ref, _ = _replay(runner, cli, reference_calls(w, fd))
    check_table(ref, w.expected_table)
    mr2 = mr2_table(fd)

    def call_walls(cmd, runs):
        return [r.wall_s for res in runs for r in res if r.call.command == cmd]

    def seed_walls(cmd):
        return [s for res, sw in zip(chains, seed_chains)
                for r, s in zip(res, sw) if r.call.command == cmd]

    n_test = w.test.num_scenes
    metrics = {
        "chain_speedup": (_ratio_median([sum(sw) for sw in seed_chains], walls), "x"),
        "setup_s": (_median(setup_walls), "s"),
        "peak_rss_mb": (max(r.rss_mb for res in chains for r in res), "MB"),
        "mr2_head_rdm": (mr2.get("rdm_head", 0.0), "fraction"),
        "mr2_body_rdm": (mr2.get("rdm_body", 0.0), "fraction"),
    }
    wall_pct, wall_tail = tail(walls)
    record = {"repeats": len(chains), "wall_samples_s": walls,
              "call_samples_s": [[round(r.wall_s, 4) for r in res] for res in chains],
              "seed_call_samples_s": [[round(s, 4) for s in sw] for sw in seed_chains],
              "wall_s": _median(walls),
              "run_scenes_per_s": n_test / _median(call_walls("run", chains)),
              "eval_scenes_per_s": n_test / _median(call_walls("eval", chains)),
              # too few pairs in a run to repeat within a bound; see README.md
              "run_speedup": _ratio_median(seed_walls("run"), call_walls("run", chains)),
              "eval_speedup": _ratio_median(seed_walls("eval"), call_walls("eval", chains)),
              "train_s": _median(call_walls("train-rdm", setups)),
              "wall_tail": {"percentile": wall_pct, "value_s": wall_tail,
                            "samples": len(walls)},
              "setup_samples_s": setup_walls,
              "mr2_test_split": mr2_table(os.path.join(base, "rep")),
              "counts": work_counts(tr)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, record


def run_traced(w: Workload, seed: int, runner: Runner, cli, base: str):
    startup = _median([runner.probe() for _ in range(3)])

    def calls(name):
        d = _fresh_dir(os.path.join(base, name))
        return setup_calls(w, seed, d) + timed_calls(d, d)

    cli_res = runner.chain(calls("cli"))
    cli_s = sum(r.wall_s for r in cli_res)
    # untraced passes before and after the traced one; the first in-process
    # pass also pays for heap growth, so the faster of the two is used
    before, before_s = _replay(runner, cli, calls("untraced0"))
    tr = Tracer()
    traced, traced_s = _replay(runner, cli, calls("traced"), tr)
    after, after_s = _replay(runner, cli, calls("untraced1"))
    untraced_s = min(before_s, after_s)
    for res in (cli_res, before, after):
        check_against(res, traced)
    record = {"cli_s": cli_s, "untraced_s": [before_s, after_s], "traced_s": traced_s,
              "spans": len(tr.spans), "counts": work_counts(tr)}
    return layer_metrics(tr, traced_s, untraced_s, cli_s, startup), record


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="crowdpost benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, workloads=WORKLOADS, after_call=None) -> int:
    args = parse_args(argv, workloads)
    if not os.path.isfile(os.path.join(SRC, "crowdpost", "cli.py")):
        print(f"perfbench: no crowdpost sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from crowdpost import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported crowdpost from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    w = workloads[args.workload]
    base = os.path.join(WORK, f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(WORK, exist_ok=True)
    runner = Runner(after_call)
    try:
        runner.probe()  # warm-up: compiles bytecode, fills the page cache
        runner.results.clear()
        if args.trace:
            metrics, record = run_traced(w, args.seed, runner, cli, base)
        else:
            metrics, record = run_timed(w, args.seed, args.seconds, runner, cli, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    record.update(workload=w.name, seed=args.seed, test_seed=test_seed(args.seed),
                  seconds=args.seconds, trace=args.trace, closed_loop_clients=1,
                  environment=environment(),
                  failed_calls=[" ".join(r.call.argv[:1]) for r in runner.results
                                if r.failed])
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
