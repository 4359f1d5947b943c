"""Benchmark worker: runs one minent CLI command in-process and times it.

``run.py`` starts this file once per command, in a fresh child process
whose environment pins the BLAS thread count and puts the checkout's
``src/`` first on the import path, so every command starts cold, as a
user's ``minent <command> ...`` does.  The command goes through
``minent.cli.main`` with stdout and stderr captured, so that terminal I/O
is not timed; only the call to ``main`` is.

    python3 perfbench/pipeline.py gen|train|eval --workload W --seed N \\
        --trace 0|1 --workdir DIR --result FILE [--spans FILE]

An untraced command shorter than ``REPEAT_S`` is repeated in the same
process (see below).  The result file holds, per call, the wall time, exit
code, output fingerprint and check; the speed probe's time around the calls
(see ``speed_probe``); the process's peak RSS of one call and its
environment; traced, also the per-function span table and work counts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from tracer import Tracer, span_names, summarize

# Each workload is a closed loop with one client: one process issues one
# command at a time and waits for it.  Its seed goes to ``gen``; training
# and evaluation use their defaults unless listed here.
WORKLOADS = {
    # The README quick start, flag for flag.  Small bags: per-call Python
    # glue in the bag loop and the losses is the cost.
    "quickstart": {
        "gen": ["--classes", "2", "--bags", "100", "--negatives", "50", "--proposals", "30"],
        "train": [],
    },
    # 300-proposal bags: the O(n^2) clique partition dominates training, and
    # the 54 MB dataset makes load, NMS and memory show.  Five epochs keep a
    # run of three iterations near 55 s; the per-epoch split is the same.
    # (With 80 bags and 10 epochs, one dataset in three scored an AP of 0 on
    # some class; with these 160 bags, about one in five.)
    "dense": {
        "gen": ["--classes", "4", "--bags", "120", "--negatives", "40", "--proposals", "300"],
        "train": ["--epochs", "5"],
    },
    # A hidden layer in the base tier: matmuls and the singleton-clique
    # discovery scatter cost; the partition and localization loss never run.
    # 125 bags (not 250) and 5 epochs keep a run of three iterations near 25 s.
    "hidden-base": {
        "gen": ["--classes", "4", "--bags", "100", "--negatives", "25", "--proposals", "60",
                "--dim", "256"],
        "train": ["--ablation", "base", "--hidden-dim", "128", "--epochs", "5"],
    },
    # Only for selftest.py: a pipeline that finishes in well under a second.
    "tiny": {
        "gen": ["--classes", "2", "--bags", "8", "--negatives", "4", "--proposals", "12"],
        "train": ["--epochs", "2"],
    },
}

# Thread-count variables of the BLAS builds numpy ships with; run.py pins
# each to BLAS_THREADS in the worker's environment.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
METRICS_KEYS = {
    "mAP", "per_class_ap", "mean_corloc", "per_class_corloc", "pointing",
    "localization_accuracy", "localization_variance",
}
COMMANDS = ("gen", "train", "eval")
# An untraced command shorter than REPEAT_S runs again in the same process
# until its samples add up to REPEAT_S, at most MAX_REPEATS times: one
# quarter-second sample says little on a machine whose speed wanders by tens
# of percent.  (On quickstart's gen and eval, later calls in a process
# measured no faster than the first.)
REPEAT_S = 1.0
MAX_REPEATS = 5
# Iterations of the speed probe's fixed integer loop (5.5 to 8 ms on the
# 2.1 GHz Xeon this was tuned on, as its speed drifted).
PROBE_LOOPS = 100_000


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_metrics(doc) -> str | None:
    """Why ``doc`` is not a valid eval report, or None if it is."""
    if not isinstance(doc, dict) or set(doc) != METRICS_KEYS:
        return f"metrics keys {sorted(doc) if isinstance(doc, dict) else doc!r}"
    for key, value in doc.items():
        values = value if isinstance(value, list) else [value]
        for v in values:
            if v is None and key == "per_class_corloc":
                continue
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                return f"metrics value {key}={value!r} outside [0, 1]"
    return None


def files(workdir: str) -> dict[str, str]:
    """The file chain one workload's commands share."""
    names = {"dataset": "ds.json", "checkpoint": "ckpt.json", "csv": "epochs.csv",
             "metrics": "metrics.json"}
    return {k: os.path.join(workdir, v) for k, v in names.items()}


def command_argv(command: str, workload: str, seed: int, workdir: str) -> list[str]:
    spec, f = WORKLOADS[workload], files(workdir)
    if command == "gen":
        return ["gen", *spec["gen"], "--seed", str(seed), "--out", f["dataset"]]
    if command == "train":
        return ["train", "--data", f["dataset"], "--out-checkpoint", f["checkpoint"],
                "--csv", f["csv"], *spec["train"]]
    return ["eval", "--data", f["dataset"], "--checkpoint", f["checkpoint"],
            "--out", f["metrics"]]


def run_command(argv: list[str], tracer: Tracer | None) -> tuple[int, float, str, str]:
    """``minent.cli.main(argv)`` with stdout and stderr captured; returns the
    exit code, wall seconds and the captured text."""
    from minent import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is None:
            start = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - start
        else:
            tracer.install()
            try:
                with tracer.root(f"cli.{argv[0]}"):
                    start = time.perf_counter()
                    rc = cli.main(argv)
                    wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
    return rc, wall, out.getvalue(), err.getvalue()


def check_output(command: str, workdir: str, stdout: str) -> dict:
    """The output's fingerprint, and why it is wrong if it is."""
    f = files(workdir)
    if command == "gen":
        return {"sha256": sha256_file(f["dataset"]), "error": None}
    if command == "train":
        return {"sha256": sha256_file(f["checkpoint"]), "error": None}
    with open(f["metrics"]) as fh:
        text = fh.read()
    doc = json.loads(text)
    error = "metrics file differs from eval's stdout" if text != stdout else check_metrics(doc)
    return {"sha256": sha256_file(f["metrics"]), "error": error, "metrics": doc}


def speed_probe() -> float:
    """Median seconds of five runs of a fixed pure-Python loop.

    The host this was tuned on drifts between a fast and a slow speed, about
    1.3x apart, over seconds to minutes; the probe slows down with it, and
    does not depend on minent.  run.py divides it out of the command times.
    """
    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(5))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="gen seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="write the raw spans here (traced runs)")
    args = parser.parse_args(argv)

    import minent

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(minent.__file__).startswith(src + os.sep):
        print(f"error: imported minent from {minent.__file__}, not from {src}", file=sys.stderr)
        return 2

    argv = command_argv(args.command, args.workload, args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    records = []
    probe_before = speed_probe()
    while True:
        if args.command == "train":
            csv = files(args.workdir)["csv"]
            if os.path.exists(csv):
                os.remove(csv)  # train appends to its CSV; keep one run's rows
        rc, wall, out, err = run_command(argv, tracer)
        if not records:  # the peak of one call, as a user's command sees it
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record = {"command": args.command, "seed": args.seed, "traced": bool(args.trace),
                  "wall_s": wall, "rc": rc}
        records.append(record)
        if rc != 0:
            record.update({"sha256": None, "error": f"exit code {rc}: {err.strip()}"})
            break
        record.update(check_output(args.command, args.workdir, out))
        if (tracer is not None or len(records) == MAX_REPEATS
                or sum(r["wall_s"] for r in records) >= REPEAT_S):
            break
    result = {
        "records": records,
        # the machine's speed around the calls, for run.py to divide out
        "probe_s": (probe_before + speed_probe()) / 2,
        "peak_rss_kb": peak_rss_kb,
        "environment": environment(),
    }
    if tracer is not None:
        result.update({"table": summarize(tracer.spans), "counts": dict(tracer.counts),
                       "wrapped": span_names()})
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump(tracer.spans, f)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
