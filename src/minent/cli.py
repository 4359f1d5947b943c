"""Command-line interface: ``gen``, ``train``, ``eval``, and ``inspect``.

Every command is a pure function of its flags and input files, so
rerunning a command reproduces its outputs byte for byte (wall-clock
columns aside).  Values resolve as: explicit flags, then an optional
``--config`` JSON file, then the library defaults.

Exit codes: 0 success, 1 runtime failure (missing or bad files, training
divergence, unknown bag), 2 usage or validation error.  A library warning
prints as one ``warning:`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import asdict, fields

from .data import (
    DataError,
    SynthConfig,
    finite_number,
    generate_synthetic,
    load_dataset,
    open_dataset,
    save_dataset,
    whole_number,
)
from .entropy import clique_mean_scores
from .evaluate import DEFAULT_NMS_IOU, DEFAULT_SCORE_FLOOR, evaluate
from .jsonio import TWIN_SUFFIX, dumps_canonical, read_json, write_atomic, write_json
from .trainer import (
    ABLATION_TIERS,
    CheckpointError,
    TrainConfig,
    bag_run,
    check_dims,
    check_resume,
    load_checkpoint,
    save_checkpoint,
    tier_switches,
    train,
    visit,
)


class UsageError(Exception):
    """Bad flag or config values; maps to exit code 2."""


_SYNTH_FIELDS = {f.name for f in fields(SynthConfig)}
_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


def _provided(args: argparse.Namespace, names: set[str]) -> dict:
    """Flag values the user actually passed (SUPPRESS hides the rest)."""
    return {k: v for k, v in vars(args).items() if k in names}


def _config_file(args: argparse.Namespace, allowed: set[str]) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        doc = read_json(path)
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read config file {path}: {e}") from e
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise UsageError(f"unknown config key(s) in {path}: {', '.join(unknown)}")
    return doc


def _read(what: str, load, path: str, *args):
    try:
        return load(path, *args)
    except OSError as e:
        raise RuntimeError(f"cannot read {what} {path}: {e}") from e


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _files(dest: str, path: str, twinned: bool) -> list[tuple[str, bool, str]]:
    """``(dest, is the twin, path)`` of the file of flag ``dest`` and, if
    ``twinned``, of its twin."""
    return [(dest, False, path)] + ([(dest, True, path + TWIN_SUFFIX)] if twinned else [])


def _check_outputs(args: argparse.Namespace, **outputs: str) -> None:
    """Fail before any work unless the path of each output flag given, as
    ``dest=what``, can be created, and neither it nor the twin written with a
    dataset or checkpoint names a file of an input flag, an input's twin, or
    an earlier output or its twin.  ``train`` may write the checkpoint it
    resumes, and so its twin: it reads both whole first."""
    taken = [file for dest in ("data", "checkpoint", "resume", "config")
             if getattr(args, dest, None) is not None
             for file in _files(dest, getattr(args, dest), dest != "config")]
    for dest, what in outputs.items():
        path = getattr(args, dest)
        if path is None:
            continue
        if (not path or os.path.isdir(path)
                or not os.path.isdir(os.path.dirname(os.path.abspath(path)))):
            why = "it is a directory" if os.path.isdir(path) else "no such directory"
            raise RuntimeError(f"cannot write {what} {path!r}: {why}")
        written = _files(dest, path, what in ("dataset", "checkpoint"))
        for _, twin, target in written:
            for other, other_twin, given in taken:
                if ((dest, other, twin) != ("out_checkpoint", "resume", other_twin)
                        and _same_file(target, given)):
                    flags = ["--" + name.replace("_", "-") for name in (dest, other)]
                    mine = f"writes its twin {target!r} over" if twin else "names the same file as"
                    theirs = f"the twin of {flags[1]}" if other_twin else flags[1]
                    raise RuntimeError(f"{flags[0]} {path!r} {mine} {theirs}")
        taken += written


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    defaults = asdict(SynthConfig())
    defaults.pop("feature_dim")  # derived from num_classes unless given
    merged = {**defaults, **_config_file(args, _SYNTH_FIELDS), **_provided(args, _SYNTH_FIELDS)}
    classes = merged["num_classes"]
    if not whole_number(classes) or classes < 1:
        raise UsageError(f"num_classes must be an integer >= 1, got {classes!r}")
    if hasattr(args, "total_bags"):  # --bags counts positives across all classes
        per_class, rem = divmod(args.total_bags, classes)
        if rem or per_class < 1:
            raise UsageError(
                f"--bags {args.total_bags} must be a positive multiple of --classes {classes}"
            )
        merged["bags_per_class"] = per_class
    merged.setdefault("feature_dim", 12 * classes)
    try:
        cfg = SynthConfig(**merged)
    except (TypeError, DataError) as e:
        raise UsageError(str(e)) from e
    _check_outputs(args, out="dataset")
    ds = generate_synthetic(cfg)
    save_dataset(ds, args.out)
    print(
        f"wrote {args.out}: {len(ds.bags)} bags, {ds.num_classes} classes, "
        f"{cfg.proposals_per_bag} proposals/bag, feature_dim {ds.feature_dim}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    file_cfg = _config_file(args, _TRAIN_FIELDS)
    provided = _provided(args, _TRAIN_FIELDS)
    if args.stop_after is not None and args.stop_after < 1:
        raise UsageError(f"--stop-after must be >= 1, got {args.stop_after}")
    _check_outputs(args, out_checkpoint="checkpoint", csv="epoch CSV")

    state = _read("checkpoint", load_checkpoint, args.resume) if args.resume else None
    # resumed runs inherit their own config
    merged = {**asdict(state.config if state else TrainConfig()), **file_cfg, **provided}
    try:
        cfg = TrainConfig(**merged)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from e

    if state is not None:
        try:
            check_resume(state, cfg)
        except CheckpointError as e:
            raise UsageError(f"--resume {e}") from e
    ds = _read("dataset", load_dataset, args.data)
    state, reports = train(ds, cfg, state=state, csv_path=args.csv, stop_after=args.stop_after)
    del ds  # freed first, so the checkpoint's write does not raise train's peak RSS
    save_checkpoint(state, args.out_checkpoint)

    if reports:
        last = reports[-1]
        print(
            f"trained epochs {reports[0].epoch}..{last.epoch} ({cfg.ablation}): "
            f"disc_loss {last.disc_loss:.6f}, global_entropy {last.global_entropy:.6f}"
        )
    else:
        print(f"nothing to train: checkpoint already at epoch {state.epoch} of {cfg.epochs}")
    print(f"checkpoint -> {args.out_checkpoint}")
    if args.csv:
        print(f"epoch csv -> {args.csv}")
    return 0


def _metrics_csv(report_dict: dict) -> str:
    cols: list[tuple[str, object]] = [("mAP", report_dict["mAP"])]
    cols += [(f"ap_{i}", v) for i, v in enumerate(report_dict["per_class_ap"])]
    cols.append(("mean_corloc", report_dict["mean_corloc"]))
    cols += [(f"corloc_{i}", v) for i, v in enumerate(report_dict["per_class_corloc"])]
    cols += [
        ("pointing", report_dict["pointing"]),
        ("localization_accuracy", report_dict["localization_accuracy"]),
        ("localization_variance", report_dict["localization_variance"]),
    ]
    header = ",".join(name for name, _ in cols)
    row = ",".join("" if v is None else repr(float(v)) for _, v in cols)
    return header + "\n" + row + "\n"


def cmd_eval(args: argparse.Namespace) -> int:
    """Score the dataset through ``open_dataset``: a twin's dataset is scored
    while the JSON's hash runs, and counts only if the twin proves current."""
    allowed = {"nms_iou", "score_floor"}
    merged = {
        "nms_iou": DEFAULT_NMS_IOU,
        "score_floor": DEFAULT_SCORE_FLOOR,
        **_config_file(args, allowed),
        **_provided(args, allowed),
    }
    for name in sorted(allowed):
        if not finite_number(merged[name]):
            raise UsageError(f"{name} must be a finite number, got {merged[name]!r}")
    if not 0.0 <= merged["nms_iou"] <= 1.0:
        raise UsageError(f"--nms-iou must lie in [0, 1], got {merged['nms_iou']}")
    if merged["score_floor"] < 0.0:
        raise UsageError(f"--score-floor must be >= 0, got {merged['score_floor']}")

    _check_outputs(args, out="metrics file", csv="metrics CSV")
    state = _read("checkpoint", load_checkpoint, args.checkpoint)
    head = tier_switches(state.config).detect_head

    def score(ds):
        if not ds.has_ground_truth():
            raise RuntimeError("evaluation requires ground-truth boxes; the dataset has none")
        check_dims(state.params, ds)
        return evaluate(state.params, ds, head=head, **merged)

    report = _read("dataset", open_dataset, args.data, score)
    doc = report.to_dict()
    sys.stdout.write(dumps_canonical(doc))
    if getattr(args, "out", None):
        write_json(doc, args.out)
    if getattr(args, "csv", None):
        row = _metrics_csv(doc).encode()
        write_atomic(args.csv, lambda f: f.write(row))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    state = _read("checkpoint", load_checkpoint, args.checkpoint)
    ds = _read("dataset", load_dataset, args.data)
    check_dims(state.params, ds)
    try:
        bag = ds.bag_by_id(args.bag)
    except KeyError as e:
        raise RuntimeError(f"unknown bag id '{args.bag}'") from e

    cfg, switches = state.config, tier_switches(state.config)
    # what one training visit of the bag would do at the checkpoint's
    # parameters, on the bag's own features: like eval, it never applies s(h)
    seen = visit(state.params, cfg, switches, bag, bag.feature_matrix(),
                 bag_run(bag, cfg, switches))
    boxes, partition = bag.box_array(), seen.partition
    cliques = []
    if partition is not None:
        for i, mean_scores in enumerate(clique_mean_scores(partition, seen.scores[0]).tolist()):
            members = partition.clique_members(i).tolist()
            cliques.append({"members": members, "boxes": boxes[members].tolist(),
                            "mean_scores": mean_scores})
    doc = {
        "bag": bag.id,
        "labels": bag.labels.tolist(),
        "cliques": cliques,
        "selected": {str(y): ci for y, ci in seen.disc.selected.items()},
        "disc_loss": seen.disc.loss,
        "branches": [{"anchors": [{"class": y, "h": h, "members": home.tolist(),
                                   "weights": w.tolist(), "loss": loss}
                                  for y, h, home, w, loss in scored]}
                     for scored in seen.anchors],
    }
    sys.stdout.write(dumps_canonical(doc))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minent",
        description="Min-entropy latent model for weakly supervised object localization.",
    )
    sub = parser.add_subparsers(dest="command")
    S = argparse.SUPPRESS

    g = sub.add_parser("gen", help="generate a synthetic part-domination dataset")
    g.add_argument("--classes", dest="num_classes", type=int, default=S)
    g.add_argument("--bags", dest="total_bags", type=int, default=S,
                   help="total positive bags, split evenly across classes")
    g.add_argument("--negatives", type=int, default=S)
    g.add_argument("--proposals", dest="proposals_per_bag", type=int, default=S)
    g.add_argument("--dim", dest="feature_dim", type=int, default=S,
                   help="feature dimension (default: 12 per class)")
    g.add_argument("--part-fraction", dest="part_fraction", type=float, default=S)
    g.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=S)
    g.add_argument("--seed", type=int, default=S)
    g.add_argument("--config", help="JSON file with generator settings")
    g.add_argument("--out", required=True, help="dataset JSON path")
    g.set_defaults(handler=cmd_gen)

    t = sub.add_parser("train", help="train on a dataset file")
    t.add_argument("--data", required=True, help="dataset JSON path")
    t.add_argument("--out-checkpoint", required=True, help="checkpoint JSON path")
    t.add_argument("--csv", default=None, help="append per-epoch reports to this CSV")
    t.add_argument("--resume", default=None, help="checkpoint to continue from")
    t.add_argument("--stop-after", dest="stop_after", type=int, default=None,
                   help="pause after this many total epochs (resumable)")
    t.add_argument("--epochs", type=int, default=S)
    t.add_argument("--lr", type=float, default=S)
    t.add_argument("--lr-late", dest="lr_late", type=float, default=S)
    t.add_argument("--momentum", type=float, default=S)
    t.add_argument("--wd", dest="weight_decay", type=float, default=S)
    t.add_argument("--tau", type=float, default=S, help="clique overlap threshold")
    t.add_argument("--topk", dest="top_k", type=int, default=S)
    t.add_argument("--lambda", dest="loc_weight", type=float, default=S,
                   help="localization loss weight")
    t.add_argument("--kernel-a", dest="kernel_a", type=float, default=S)
    t.add_argument("--branches", type=int, default=S)
    t.add_argument("--seed", type=int, default=S)
    t.add_argument("--ablation", choices=list(ABLATION_TIERS), default=S)
    t.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=S)
    t.add_argument("--init-scale", dest="init_scale", type=float, default=S)
    t.add_argument("--config", help="JSON file with training settings")
    t.set_defaults(handler=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint against ground truth")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out", default=None, help="also write the metrics JSON here")
    e.add_argument("--csv", default=None, help="also write a one-row metrics CSV")
    e.add_argument("--nms-iou", dest="nms_iou", type=float, default=S)
    e.add_argument("--score-floor", dest="score_floor", type=float, default=S)
    e.add_argument("--config", help="JSON file with evaluation settings")
    e.set_defaults(handler=cmd_eval)

    i = sub.add_parser("inspect", help="dump one training visit of a bag as JSON: its "
                       "cliques, selection and each branch's anchors")
    i.add_argument("--data", required=True)
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--bag", required=True, help="bag id to inspect")
    i.set_defaults(handler=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse already printed usage/help
        return int(e.code or 0)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    with warnings.catch_warnings():  # scoped: an in-process caller gets its handler back
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.handler(args)
        except UsageError as e:
            print(f"error: {e}", file=sys.stderr)
            parser.print_usage(sys.stderr)
            return 2
        except (RuntimeError, OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        except MemoryError as e:  # numpy's message names the allocation that failed
            print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
