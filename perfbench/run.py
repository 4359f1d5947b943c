"""minent's benchmark: the gen -> train -> eval pipeline, timed end to end
or traced layer by layer.

    python3 perfbench/run.py --workload quickstart --seed 7 --seconds 20 --trace 0

Run it inside a checkout that holds ``src/minent``.  Metric names and units
come from ``BENCHMARK.json`` at the checkout root; ``perfbench/README.md``
says what each one means.

Each command runs in a fresh worker process (``pipeline.py``), one at a
time: a closed loop with one client.  With ``--trace 0`` the run repeats
the whole pipeline, gen then train then eval, for ``--seconds`` and at
least ``MIN_ITERATIONS`` times, cycling over ``DATASETS`` datasets, and
reports each command's mean time over the run, at a fixed machine speed
(see ``PROBE_REFERENCE_S``).  The machine this was tuned on switches
between a fast and a slow speed (about 1.3x apart for these commands) every
few seconds to minutes; the median of a handful of calls jumps between the
two, while the mean moves only with the share of time spent in each.  Repeating all three
commands across the whole run, rather than setting up first and measuring
after, averages each of them over the longest window.  With ``--trace 1``
the run executes each command once untraced and once traced on the
``--seed`` dataset, and reports the per-layer split of the traced pass.
The last stdout line is the result; the lines before it list every metric
the run computed.

Every command's output is checked: its exit code, the seven eval metrics
in [0, 1], and the sha256 of the dataset, checkpoint and metrics JSON of
each gen seed, which must agree within the run, with earlier result files
of the same source and benchmark, and with ``reference.json``.

Datasets and checkpoints live in ``.bench_out/work/`` and are removed
afterwards; each run leaves a result file (environment, fingerprints,
metrics, span tables) and, traced, its raw spans in ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from pipeline import BLAS_ENV, COMMANDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
RESULTS = os.path.join(OUT, "results")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 7  # the README quick start's seed
# One BLAS thread: the benchmark is one client in one process, and on a
# small shared machine a second BLAS thread adds more noise than speed.
BLAS_THREADS = "1"
# Three iterations at least, so that setup_s averages several set-ups.
# Iteration i uses dataset i % DATASETS, whose gen seed is
# --seed + i * SEED_STRIDE: training time depends on the data (one dense
# seed in ten trained 80% slower than its neighbours), and an average over
# several datasets varies less from seed to seed than the time of one.
# Dataset 0 is the --seed dataset itself.
MIN_ITERATIONS = 3
DATASETS = 3
SEED_STRIDE = 100_000
# Command times are reported at a fixed machine speed: each call's wall time
# times PROBE_REFERENCE_S over the speed probe's time around it (see
# pipeline.speed_probe), i.e. in seconds on a machine where the probe takes
# PROBE_REFERENCE_S.  On the host this was tuned on, this cut the spread of
# train times over ten seeds from 0.20 to 0.11 of the median, and of eval
# times from 0.31 to 0.13.  Raw wall times are printed and kept as well.
PROBE_REFERENCE_S = 0.006
# A run must end within 180 s, whatever the machine does.
BUDGET_S = 170.0
FINGERPRINT = {"gen": "dataset", "train": "checkpoint", "eval": "metrics"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def tree_digest(top: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_name(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


class Runner:
    """Starts one worker per command and collects what they report."""

    def __init__(self, args, workdir: str, deadline: float):
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.results: list[dict] = []
        self.env = dict(os.environ)
        self.env.update({k: BLAS_THREADS for k in BLAS_ENV})
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + os.pathsep + path if path else SRC
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"

    def step(self, command: str, seed: int, traced: bool = False) -> dict:
        workdir = os.path.join(self.workdir, str(seed))
        os.makedirs(workdir, exist_ok=True)
        result_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "pipeline.py"), command,
               "--workload", self.args.workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--workdir", workdir, "--result", result_path]
        if traced:
            cmd += ["--spans", os.path.join(RESULTS, f"{run_name(self.args)}-{command}-spans.json")]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before {command}")
        if os.path.exists(result_path):
            os.remove(result_path)
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{command} did not finish within the run's time budget") from e
        if done.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(f"{command} worker exited {done.returncode}: {done.stderr.strip()}")
        with open(result_path) as f:
            result = json.load(f)
        self.results.append(result)
        for rec in result["records"]:
            if rec["rc"] != 0:
                raise BenchError(f"{command}: {rec['error']}")
        return result

    def run(self) -> None:
        if self.args.trace:
            for command in COMMANDS:
                self.step(command, self.args.seed)
                self.step(command, self.args.seed, traced=True)
            return
        loop_end = time.monotonic() + self.args.seconds
        done = 0
        while done < MIN_ITERATIONS or time.monotonic() < loop_end:
            seed = self.args.seed + (done % DATASETS) * SEED_STRIDE
            for command in COMMANDS:
                self.step(command, seed)
            done += 1


def expected_fingerprints(args, environment: dict) -> dict:
    """``{gen seed: {kind: sha256}}`` from reference.json and from earlier
    result files of this workload and seed on the same source and benchmark."""
    expected = {}
    for trace in (0, 1):
        path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{trace}.json")
        if os.path.exists(path):
            with open(path) as f:
                prior = json.load(f)
            if all(prior["environment"][k] == environment[k]
                   for k in ("src_sha256", "bench_sha256")):
                expected.update(prior["fingerprints"])
    if not args.write_reference:
        with open(REFERENCE) as f:
            expected.update(json.load(f)["workloads"].get(args.workload, {}))
    return {seed: dict(kinds) for seed, kinds in expected.items()}


def check_fingerprints(records: list[dict], expected: dict) -> dict:
    """Marks every record whose output differs from the expected (or else the
    first) fingerprint of its gen seed and kind; returns the fingerprints."""
    for rec in records:
        kind = FINGERPRINT[rec["command"]]
        want = expected.setdefault(str(rec["seed"]), {}).setdefault(kind, rec["sha256"])
        if rec["sha256"] != want and rec["error"] is None:
            rec["error"] = (f"seed {rec['seed']} {kind} sha256 {rec['sha256'][:12]} "
                            f"!= expected {want[:12]}")
    return expected


def end_to_end(records: list[dict], results: list[dict]) -> dict:
    def mean(command, key="scaled_s"):
        return statistics.mean(r[key] for r in records if r["command"] == command)

    # gen is set-up, measured on its own
    peak_kb = max(r["peak_rss_kb"] for r in results if r["records"][0]["command"] != "gen")
    # One report per dataset, each deterministic.  The median over datasets:
    # on about one dense dataset in five no score of some class clears eval's
    # detection floor, and that class's AP of 0 would swing a mean.
    reports = list({r["seed"]: r["metrics"] for r in records if r["command"] == "eval"}.values())
    return {
        "setup_s": mean("gen"),
        "train_cmd_s": mean("train"),
        "eval_cmd_s": mean("eval"),
        "setup_wall_s": mean("gen", "wall_s"),
        "train_cmd_wall_s": mean("train", "wall_s"),
        "eval_cmd_wall_s": mean("eval", "wall_s"),
        "peak_rss_mb": peak_kb / 1024.0,
        "mean_corloc": statistics.median(m["mean_corloc"] for m in reports),
        "mAP": statistics.median(m["mAP"] for m in reports),
    }


def per_layer(results: list[dict]) -> dict:
    traced = {r["records"][0]["command"]: r for r in results if r["records"][0]["traced"]}
    values: dict[str, float] = {}
    for name in traced["gen"]["wrapped"]:
        for stat in ("calls", "total_s", "self_s"):
            values[f"{name}.{stat}"] = sum(
                r["table"].get(name, {}).get(stat, 0) for r in traced.values()
            )
    layers: dict[str, float] = {}
    for command, r in traced.items():
        values[f"cli.{command}.self_s"] = r["table"][f"cli.{command}"]["self_s"]
        for name, row in r["table"].items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    values.update({f"layer.{layer}.self_s": s for layer, s in layers.items()})

    def count(command, key):
        return traced[command]["counts"].get(key, 0)

    def calls(command, name):
        return traced[command]["table"].get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    cliques = count("train", "entropy.partition_cliques.cliques")
    values.update({
        "entropy.partition_cliques.iou_cells": count("train", "entropy.partition_cliques.iou_cells"),
        "entropy.partition_cliques.cliques_per_call": ratio(
            cliques, calls("train", "entropy.partition_cliques")),
        "entropy.partition_cliques.mean_clique_size": ratio(
            count("train", "entropy.partition_cliques.pooled"), cliques),
        # discovery_loss runs exactly once per bag visit
        "entropy.localization_loss.calls_per_visit": ratio(
            calls("train", "entropy.localization_loss"), calls("train", "entropy.discovery_loss")),
        "evaluate.head_probs.calls_per_bag": ratio(
            calls("eval", "evaluate.head_probs"), count("eval", "data.load_dataset.bags")),
        "model.flops": sum(count(c, "model.flops") for c in traced),
        "data.dataset_bytes": count("gen", "data.dataset_bytes"),
        "trainer.ckpt_bytes": count("train", "trainer.ckpt_bytes"),
    })
    untraced = sum(r["records"][0]["scaled_s"] for r in results if not r["records"][0]["traced"])
    traced_time = sum(r["records"][0]["scaled_s"] for r in traced.values())
    values["trace.overhead_frac"] = traced_time / untraced - 1.0
    return values


def bench(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "minent", "cli.py")):
        raise BenchError(f"no minent sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(OUT, "work", f"{run_name(args)}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(args, workdir, deadline)
    try:
        runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results = runner.results

    environment = dict(results[-1]["environment"])
    environment.update({"git_commit": git_commit(), "src_sha256": tree_digest(SRC),
                        "bench_sha256": tree_digest(HERE), "blas_threads_pinned": BLAS_THREADS})
    records = []
    for r in results:
        for rec in r["records"]:
            rec["scaled_s"] = rec["wall_s"] * PROBE_REFERENCE_S / r["probe_s"]
            records.append(rec)
    fingerprints = check_fingerprints(records, expected_fingerprints(args, environment))
    failed = sum(1 for r in records if r["error"] is not None)
    values = per_layer(results) if args.trace else end_to_end(records, results)
    values["failed_ops_frac"] = failed / len(records)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this run does not produce: {missing}")

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment, "fingerprints": fingerprints,
        "attempted": len(records), "failed": failed,
        "errors": [f"{r['command']}: {r['error']}" for r in records if r["error"]],
        "metrics": values, "records": records,
        "tables": {r["records"][0]["command"]: r["table"] for r in results if "table" in r},
    }
    with open(os.path.join(RESULTS, run_name(args) + ".json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    if args.write_reference and failed == 0:
        with open(REFERENCE) as f:
            ref = json.load(f)
        ref["workloads"][args.workload] = fingerprints
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=2, sort_keys=True)
            f.write("\n")
    summary["listed"] = listed
    return summary


def unit_of(name: str) -> str:
    """Unit of a metric BENCHMARK.json does not list, from its suffix."""
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="minent end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="gen seed of the run's first dataset")
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long the untraced gen/train/eval loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's fingerprints as the seed-{REFERENCE_SEED} reference")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.write_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        summary = bench(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    values = summary["metrics"]
    units = {m["name"]: m["unit"] for m in summary["listed"]}
    units["failed_ops_frac"] = "ratio"
    for error in summary["errors"]:
        print(f"failed: {error}")
    for name in sorted(values):
        print(f"{name} {values[name]:.6g} {units.get(name) or unit_of(name)}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in summary["listed"]},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
