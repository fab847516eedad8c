"""Command-line front end: simulate, estimate-ratio, train-rdm, run, eval, report.

`simulate`, `train-rdm` and `run` read an optional JSON config whose sections
are the config dataclasses; command-line flags override config values.  All
outputs are written atomically, a failed command leaves each output path as
it found it, and they are byte-identical across reruns with the same inputs and
seeds.  Log verbosity comes from the CROWDPOST_LOG environment variable, a
level name in any case (WARNING when unset or empty).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import logging
import os
import sys

import numpy as np

from .data_model import (BODY, HEAD, POST_NMS, PRE_NMS, DetectionColumns, GroupColumns,
                         group_columns, id_keys, read_detection_groups, read_scenes,
                         scene_columns, write_detection_groups, write_scenes)
from .fileio import atomic_write_text, read_json, restored_on_error

logger = logging.getLogger(__name__)

# The names this module takes from the modules behind the commands.  A
# command imports only the modules it uses (`_bind`), so that `eval`, say,
# does not pay for importing, and compiling, the simulator, the relation
# model or the records.  The names become attributes of this module as their
# module is imported, or when read from outside (`__getattr__`), so that a
# caller can patch them here, as the benchmark's tracer does.
_COMMAND_NAMES = {
    "evaluator": ("EvalConfig", "compute_mr2", "write_curve_csv", "write_curve_svg",
                  "write_result_json"),
    "nms": ("NmsConfig", "nms_groups"),
    "pipeline": ("PostProcessConfig", "postprocess", "scene_inputs"),
    "ratio": ("estimate_ratio", "save_ratio", "scene_pairs"),
    "rdm": ("TrainConfig", "load_model", "save_model", "train", "write_loss_csv"),
    "records": ("build_detection_set", "build_training_pairs", "detection_lists"),
    "simulator": ("NoiseConfig", "SimConfig", "generate_scenes", "simulate_detections"),
}


def _bind(*modules: str) -> None:
    """Import `modules` and bind their names here; a name already bound (a
    caller's patch) stays as it is."""
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _COMMAND_NAMES[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """A command module's name, read before a command bound it."""
    for module, names in _COMMAND_NAMES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_DEFAULT_NUM_SCENES = 50
# far above any useful split; a larger count is rejected before simulating
_MAX_NUM_SCENES = 100_000

# every top-level key some command reads; one config file may serve them all
_CONFIG_KEYS = frozenset({"sim", "noise", "num_scenes", "nms", "train", "post"})


def _load_config(path) -> dict:
    if path is None:
        return {}
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return obj


def _check_value(key: str, value, like) -> None:
    """Reject a JSON config value that does not have the type of `like`, the
    default it replaces: an integer for an int, any number that fits a float
    for a float, and a list of as many such values for a tuple."""
    if isinstance(like, tuple):
        if not isinstance(value, list) or len(value) != len(like):
            raise ValueError(f"config key {key}: expected a list of {len(like)} "
                             f"values, got {value!r}")
        for i, (item, item_like) in enumerate(zip(value, like)):
            _check_value(f"{key}[{i}]", item, item_like)
        return
    integral = isinstance(like, int)
    if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
        raise ValueError(f"config key {key}: expected "
                         f"{'an integer' if integral else 'a number'}, got {value!r}")
    if not integral:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"config key {key}: integer too large for a float") from None


def _build(cls, cfg: dict, section: str, **overrides):
    """Instantiate a config dataclass from one config section plus flag overrides."""
    obj = cfg.get(section, {})
    if not isinstance(obj, dict):
        raise ValueError(f"config key {section}: expected an object, got {obj!r}")
    data = dict(obj)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    for key, value in data.items():
        _check_value(f"{section}.{key}", value, fields[key].default)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return cls(**data)


def _check_distinct(outputs, inputs) -> None:
    """Reject an output, a (flag, path), that names one file with a later
    output or with an input (a None path is an absent option)."""
    named = [(flag, path) for flag, path in [*outputs, *inputs] if path is not None]
    for i, (flag, path) in enumerate(outputs):
        for other, other_path in named[i + 1:]:
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise ValueError(f"{flag} {path!r} and {other} {other_path!r} name the same file")


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    _check_distinct([("--out-scenes", args.out_scenes), ("--out-dets", args.out_dets)],
                    [("--config", args.config)])
    _bind("simulator")
    cfg = _load_config(args.config)
    sim = _build(SimConfig, cfg, "sim", seed=args.seed,
                 crowd_cluster_prob=args.cluster_prob,
                 persons_per_image=args.persons_per_image)
    noise = _build(NoiseConfig, cfg, "noise", seed=args.noise_seed,
                   head_fp_rate=args.head_fp_rate, detect_prob=args.detect_prob)
    num_scenes = args.num_scenes
    if num_scenes is None:
        num_scenes = cfg.get("num_scenes", _DEFAULT_NUM_SCENES)
        _check_value("num_scenes", num_scenes, _DEFAULT_NUM_SCENES)
    if num_scenes < 0:
        raise ValueError("num-scenes must be non-negative")
    if num_scenes > _MAX_NUM_SCENES:
        raise ValueError(f"num-scenes must be at most {_MAX_NUM_SCENES}, got {num_scenes}")

    rows = generate_scenes(sim, num_scenes)
    scenes = scene_columns(rows)
    # a detection's id is its position in its scene's head or body list
    groups = group_columns([
        (scene_id, class_name, PRE_NMS, list(range(len(dets))),
         [v for box, _ in dets for v in box], [score for _, score in dets])
        for scene_id, pair in simulate_detections(rows, noise).items()
        for class_name, dets in zip((HEAD, BODY), pair)])
    write_scenes(scenes, args.out_scenes)
    write_detection_groups(groups, args.out_dets)
    logger.info("wrote %d scenes (%d persons) and %d detection groups",
                len(scenes.scene_ids), len(scenes.person_ids), len(groups.class_names))
    return 0


def cmd_estimate_ratio(args) -> int:
    _check_distinct([("--out", args.out)], [("--scenes", args.scenes)])
    _bind("ratio")
    scenes = read_scenes(args.scenes)
    ratio = estimate_ratio(*scene_pairs(scenes))
    save_ratio(ratio, args.out)
    logger.info("ratio: %s", ratio)
    return 0


def _pre_nms_columns(groups: GroupColumns) -> tuple[DetectionColumns, DetectionColumns]:
    """The pre-NMS heads and bodies, one group per scene in the order the
    scenes first appear, a class the file lacks for a scene as an empty group."""
    slots: dict[str, list[int]] = {}
    d = groups.detections
    for g, (scene_id, class_name, stage) in enumerate(zip(d.scene_ids, groups.class_names,
                                                          groups.stages)):
        if stage == PRE_NMS:
            slots.setdefault(scene_id, [-1, -1])[class_name == BODY] = g
    if not slots:
        raise ValueError("no pre-NMS detection groups found")
    scene_ids = list(slots)
    head_groups, body_groups = zip(*slots.values())
    return d.regroup(scene_ids, head_groups), d.regroup(scene_ids, body_groups)


def cmd_train_rdm(args) -> int:
    _check_distinct([("--out-model", args.out_model), ("--out-loss", args.out_loss)],
                    [("--config", args.config), ("--scenes", args.scenes), ("--dets", args.dets)])
    _bind("nms", "pipeline", "rdm", "records")
    cfg = _load_config(args.config)
    nms_cfg = _build(NmsConfig, cfg, "nms")
    train_cfg = _build(TrainConfig, cfg, "train", epochs=args.epochs,
                       learning_rate=args.learning_rate, seed=args.seed,
                       hidden_dim=args.hidden_dim)
    # the pairs the model learns from pass the same gate as the pairs `run` scores
    post_cfg = _build(PostProcessConfig, cfg, "post")

    scenes = read_scenes(args.scenes)
    groups = read_detection_groups(args.dets)
    heads, bodies = _pre_nms_columns(groups)
    sets = [build_detection_set(sid, h, b, nms_cfg) for sid, h, b in
            zip(heads.scene_ids, detection_lists(heads), detection_lists(bodies))]
    features, labels = build_training_pairs(scenes, sets, post_cfg.ioh_threshold)
    logger.info("training on %d pairs (%d positive)", len(labels), int(labels.sum()))
    model, trace = train(features, labels, train_cfg)
    save_model(model, args.out_model)
    write_loss_csv(trace, args.out_loss)
    return 0


def _post_nms_groups(heads: DetectionColumns, bodies: DetectionColumns) -> GroupColumns:
    """Each scene's head group, then its body group, at the post-NMS stage,
    each group's detections sorted by det id."""
    num_scenes = len(heads.scene_ids)
    ids = heads.det_ids + bodies.det_ids
    # group 2k holds scene k's heads, group 2k + 1 its bodies
    group = np.concatenate([2 * heads.det_groups(), 2 * bodies.det_groups() + 1])
    order = np.lexsort((id_keys(ids), group))
    counts = np.bincount(group, minlength=2 * num_scenes)
    dets = DetectionColumns([scene_id for scene_id in heads.scene_ids for _ in (HEAD, BODY)],
                            [0, *np.cumsum(counts).tolist()], [ids[i] for i in order.tolist()],
                            np.concatenate([heads.boxes, bodies.boxes])[order],
                            np.concatenate([heads.scores, bodies.scores])[order])
    return GroupColumns(dets, [HEAD, BODY] * num_scenes, [POST_NMS] * (2 * num_scenes))


def _split_index(dets: DetectionColumns, parts: list[list[int]]) -> np.ndarray:
    """`parts[k]`, indices into group k of `dets`, as indices into `dets`."""
    return np.array([a + i for a, part in zip(dets.det_offsets, parts) for i in part],
                    dtype=np.intp)


def cmd_run(args) -> int:
    files = [os.path.join(args.out_dir, f) for f in ("baseline.jsonl", "rdm.jsonl", "audit.json")]
    _check_distinct([("--out-dir", path) for path in files],
                    [("--config", args.config), ("--dets", args.dets), ("--model", args.model)])
    _bind("nms", "pipeline", "rdm")
    cfg = _load_config(args.config)
    nms_cfg = _build(NmsConfig, cfg, "nms", iou_threshold=args.nms_iou,
                     score_floor=args.score_floor)
    post_cfg = _build(PostProcessConfig, cfg, "post",
                      ioh_threshold=args.ioh_threshold,
                      low_threshold=args.low_threshold,
                      high_threshold=args.high_threshold)
    model = load_model(args.model)
    heads_pre, bodies_pre = _pre_nms_columns(read_detection_groups(args.dets))

    heads_floor, heads_kept = nms_groups(heads_pre, nms_cfg)
    heads = heads_floor.take(heads_kept)
    bodies_floor, bodies_kept = nms_groups(bodies_pre, nms_cfg)
    outs = [postprocess(*scene, post_cfg) for scene in
            scene_inputs(heads, bodies_floor, bodies_kept, model.score_pairs, post_cfg)]

    write_detection_groups(_post_nms_groups(heads, bodies_floor.take(bodies_kept)), files[0])
    write_detection_groups(_post_nms_groups(
        heads.take(_split_index(heads, [out.final_heads for out in outs])),
        bodies_floor.take(_split_index(bodies_floor, [out.final_bodies for out in outs]))),
        files[1])
    audit_scenes = [{
        "scene_id": scene_id,
        "recalled_body_ids": out.recalled_body_ids,
        "removed_head_ids": out.removed_head_ids,
        "pairs": [{"head": r.head_id, "body": r.body_id, "score": r.score, "phase": r.phase}
                  for r in out.pair_log],
    } for scene_id, out in zip(heads.scene_ids, outs)]
    atomic_write_text(files[2], json.dumps({"scenes": audit_scenes}, indent=2) + "\n")
    logger.info("recalled %d bodies, removed %d heads over %d scenes",
                sum(len(out.recalled_body_ids) for out in outs),
                sum(len(out.removed_head_ids) for out in outs), len(outs))
    return 0


def _has_control_character(name: str) -> bool:
    return any(c < " " or "\x7f" <= c <= "\x9f" for c in name)


def cmd_eval(args) -> int:
    files = [args.out_prefix + suffix for suffix in (".eval.json", ".curve.csv", ".svg")]
    _check_distinct([("--out-prefix", path) for path in files],
                    [("--results", args.results), ("--scenes", args.scenes)])
    _bind("evaluator")
    eval_cfg = _build(EvalConfig, {}, "eval", iou_match_threshold=args.iou,
                      class_under_test=args.class_name)
    name = args.name if args.name else os.path.basename(args.out_prefix)
    if not name:
        raise ValueError("empty variant name: give --name, or an --out-prefix that ends "
                         f"in a file name (got {args.out_prefix!r})")
    # a line break or another control character would break the report's table rows
    if _has_control_character(name):
        raise ValueError(f"variant name {name!r} holds a control character")
    scenes = read_scenes(args.scenes)
    groups = read_detection_groups(args.results)
    if not groups.class_names:
        raise ValueError(f"{args.results}: empty results file")
    selected = groups.select(args.class_name, POST_NMS)
    if not selected.scene_ids:
        raise ValueError(f"{args.results}: no post-NMS {args.class_name} groups")

    result = compute_mr2(selected, scenes, eval_cfg)
    write_result_json(result, files[0], name, args.class_name)
    write_curve_csv(result, files[1])
    write_curve_svg(name, result, files[2])
    logger.info("%s %s: mr2 %.4f over %d GT / %d images",
                name, args.class_name, result.mr2, result.num_gt, result.num_images)
    return 0


def _read_eval_result(path) -> tuple[str, str, float]:
    """(name, class, mr2) of an eval result file, each of its JSON type: a
    string name, head or body, and a number in [0, 1]."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a valid eval result (expected a JSON object)")
    name, class_name, mr2 = obj.get("name"), obj.get("class"), obj.get("mr2")
    if not isinstance(name, str):
        raise ValueError(f"{path}: name must be a string, got {name!r}")
    if not name:
        raise ValueError(f"{path}: empty name")
    if _has_control_character(name):
        raise ValueError(f"{path}: name {name!r} holds a control character")
    if class_name not in (HEAD, BODY):
        raise ValueError(f"{path}: class must be {HEAD!r} or {BODY!r}, got {class_name!r}")
    # an integer is compared before it is converted, so a huge one cannot overflow
    if type(mr2) not in (int, float) or not 0 <= mr2 <= 1:
        raise ValueError(f"{path}: mr2 must be a number in [0, 1], got {mr2!r}")
    return name, class_name, float(mr2)


def cmd_report(args) -> int:
    # hidden files too, which a glob would skip
    paths = [os.path.join(args.dir, f) for f in sorted(os.listdir(args.dir))
             if f.endswith(".eval.json")]
    if not paths:
        raise ValueError(f"no .eval.json files under {args.dir}")
    _check_distinct([("--out", args.out)], [("--dir", path) for path in paths])
    cells: dict[str, dict[str, float]] = {}
    for path in paths:
        name, class_name, mr2 = _read_eval_result(path)
        row = cells.setdefault(name, {})
        if class_name in row:
            raise ValueError(f"{path}: a second {class_name} result for {name!r}")
        row[class_name] = mr2

    lines = ["# Detection post-process comparison", "",
             "Log-average miss rate (MR-2, lower is better).", "",
             "| variant | head MR-2 | body MR-2 |",
             "|---|---|---|"]
    for name in sorted(cells):
        row = cells[name]
        fmt = lambda c: f"{row[c] * 100.0:.2f}%" if c in row else "-"
        cell = name.replace("|", "\\|")  # an unescaped pipe would end the cell
        lines.append(f"| {cell} | {fmt(HEAD)} | {fmt(BODY)} |")
    text = "\n".join(lines) + "\n"
    atomic_write_text(args.out, text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_simulate(sub):
    p = sub.add_parser("simulate", help="generate synthetic scenes and detections")
    p.add_argument("--config", help="JSON with 'sim', 'noise' and 'num_scenes'")
    p.add_argument("--out-scenes", required=True)
    p.add_argument("--out-dets", required=True)
    p.add_argument("--num-scenes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-seed", type=int)
    p.add_argument("--cluster-prob", type=float)
    p.add_argument("--persons-per-image", type=float)
    p.add_argument("--detect-prob", type=float)
    p.add_argument("--head-fp-rate", type=float)
    p.set_defaults(func=cmd_simulate)


def _add_estimate_ratio(sub):
    p = sub.add_parser("estimate-ratio", help="fit the head-body ratio from scenes")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate_ratio)


def _add_train_rdm(sub):
    p = sub.add_parser("train-rdm", help="train the relation model on labeled pairs")
    p.add_argument("--config", help="JSON with 'nms', 'train' and 'post' "
                   "(post.ioh_threshold gates the training pairs)")
    p.add_argument("--scenes", required=True)
    p.add_argument("--dets", required=True, help="pre-NMS detection file")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-loss", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-dim", type=int, help="overrides train.hidden_dim")
    p.set_defaults(func=cmd_train_rdm)


def _add_run(sub):
    p = sub.add_parser("run", help="apply NMS and the relation post-process")
    p.add_argument("--config", help="JSON with 'nms' and 'post'")
    p.add_argument("--dets", required=True, help="pre-NMS detection file")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--nms-iou", type=float)
    p.add_argument("--score-floor", type=float)
    p.add_argument("--ioh-threshold", type=float)
    p.add_argument("--low-threshold", type=float)
    p.add_argument("--high-threshold", type=float)
    p.set_defaults(func=cmd_run)


def _add_eval(sub):
    p = sub.add_parser("eval", help="score a results file against ground truth")
    p.add_argument("--results", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--class", dest="class_name", required=True, choices=[HEAD, BODY])
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--name", help="variant name for report legends")
    p.add_argument("--iou", type=float)
    p.set_defaults(func=cmd_eval)


def _add_report(sub):
    p = sub.add_parser("report", help="summarize eval results as a markdown table")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdpost",
        description="Joint head/person detection post-processing toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_simulate, _add_estimate_ratio, _add_train_rdm,
                _add_run, _add_eval, _add_report):
        add(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        level = os.environ.get("CROWDPOST_LOG") or "WARNING"
        # `getLevelName` maps a level's name, in upper case, to its number
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise ValueError(f"CROWDPOST_LOG={level!r} is not a log level name")
        logging.basicConfig(level=level.upper(), format="%(levelname)s %(name)s: %(message)s",
                            stream=sys.stderr)
        with restored_on_error():
            return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"crowdpost {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
