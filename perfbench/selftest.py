"""Self-test of the benchmark on the ``tiny`` workload; takes a few seconds.

    python3 perfbench/selftest.py

Checks that
1. the tracer puts back every object it replaced, records spans whose self
   times add up to each command's wall time, and leaves the outputs
   byte-identical to an untraced pass (in this process);
2. ``run.py`` prints every metric BENCHMARK.json names, with its unit, and
   ``failed_ops_frac``, traced and untraced, and both runs agree on the
   dataset, checkpoint and metrics fingerprints.
Exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from pipeline import COMMANDS, check_output, command_argv, run_command  # noqa: E402
from tracer import Tracer, minent_modules  # noqa: E402


class SelfTestError(Exception):
    """A self-test check failed."""


def expect(condition, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def bindings() -> dict:
    """Every function bound in a minent module namespace or class body."""
    found = {}
    for name, mod in minent_modules().items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                found[(name, attr)] = obj
            elif inspect.isclass(obj) and obj.__module__.startswith("minent"):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        found[(name, f"{attr}.{meth}")] = fn
    return found


def pipeline_pass(workdir: str, tracer: Tracer | None) -> dict:
    os.makedirs(workdir, exist_ok=True)
    fingerprints = {}
    for command in COMMANDS:
        rc, _wall, out, err = run_command(command_argv(command, "tiny", 7, workdir), tracer)
        expect(rc == 0, f"{command} exited {rc}: {err}")
        checked = check_output(command, workdir, out)
        expect(checked["error"] is None, f"{command}: {checked['error']}")
        fingerprints[command] = checked["sha256"]
    return fingerprints


def check_in_process(scratch: str) -> None:
    import minent.cli  # noqa: F401  (imports every layer)

    before = bindings()
    plain = pipeline_pass(os.path.join(scratch, "plain"), None)
    tracer = Tracer()
    traced = pipeline_pass(os.path.join(scratch, "traced"), tracer)
    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed and set(after) == set(before), f"not restored: {changed[:5]}")
    expect(plain == traced, f"traced outputs differ: {plain} != {traced}")

    spans = tracer.spans
    names = {s[0] for s in spans}
    for name in ("entropy.partition_cliques", "evaluate.head_probs", "geometry.nms",
                 "data.load_dataset", "trainer.sgd_step", "data.Bag.feature_matrix"):
        expect(name in names, f"no span recorded for {name}")
    # a span's parent precedes it, so one pass finds each span's root
    covered = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            root[i] = root[parent]
    self_sums = [0.0] * len(spans)
    for i, (_name, start, end, _parent) in enumerate(spans):
        self_sums[root[i]] += end - start - covered[i]
    for i, (name, start, end, parent) in enumerate(spans):
        if parent == -1:
            wall = end - start
            expect(abs(self_sums[i] - wall) <= 0.05 * wall,
                   f"{name}: self times sum to {self_sums[i]}, wall {wall}")


def run_bench(trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tiny", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    expect(done.returncode == 0, f"run.py --trace {trace} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    return json.loads(lines[-1]), printed


def check_run_py() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    fingerprints = []
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        line, printed = run_bench(trace)
        expect(line["correct"] and line["failed"] == 0, f"trace {trace}: {line}")
        for m in listed:
            got = line["metrics"].get(m["name"])
            expect(got is not None, f"trace {trace}: {m['name']} missing from the result")
            expect(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}")
            expect(printed.get(m["name"]) == m["unit"], f"{m['name']} not printed with its unit")
        expect(set(line["metrics"]) == {m["name"] for m in listed}, "unlisted metrics in result")
        expect(printed.get("failed_ops_frac") == "ratio", "failed_ops_frac not printed")
        with open(os.path.join(ROOT, ".bench_out", "results", f"tiny-seed7-trace{trace}.json")) as f:
            fingerprints.append(json.load(f)["fingerprints"])
    expect(fingerprints[0] == fingerprints[1], f"fingerprints differ: {fingerprints}")


def main() -> int:
    scratch = os.path.join(ROOT, ".bench_out", "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_in_process(scratch)
        check_run_py()
    except SelfTestError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
