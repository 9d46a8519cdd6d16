"""The botsift benchmark: one workload, set up, warmed up and measured.

    python3 bench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports botsift from `src/`. The
seed makes the inputs; the program sees only the generated files. Set-up
(generating the inputs and extracting the model workloads' feature
files) runs in a separate process, three times, and reports its median.
Then this process runs one untimed warm-up round of the workload's
commands and measures whole rounds, one command after another, for about
`--seconds` seconds. Every command's output is checked.

With `--trace 0` the result holds the end-to-end metrics: the median
round's wall and CPU time, this process's peak RSS, the set-up time and
the test F1. With `--trace 1` untraced and traced rounds alternate, and
the result holds the per-layer metrics of the traced rounds and the
tracing overhead. The last line of standard output is the result as one
JSON object; a copy, with the spans of a traced run, goes to
bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field

import numpy

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "forest-bootstrap", "model-zoo")
SETUP_REPS = 3
MIN_ROUNDS = 3
SETUP_TIMEOUT_S = 170

# (metric, unit, better); BENCHMARK.json lists the same, in this order.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
    ("test_f1", "ratio", "higher"),
]


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    f1: float = None


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def set_up(workload: str, seed: int, work: str, env: dict):
    """Make the inputs SETUP_REPS times in fresh processes; returns the
    wall time of each, the inputs directory, and whether every repetition
    wrote the same bytes."""
    seconds, digests = [], []
    for rep in range(SETUP_REPS):
        out = os.path.join(work, f"inputs{rep}")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "make_inputs.py"),
             "--workload", workload, "--seed", str(seed), "--out", out],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        seconds.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        digests.append(tree_digest(out))
        if rep:
            shutil.rmtree(out)
    return seconds, os.path.join(work, "inputs0"), len(set(digests)) == 1


def run_op(cli_main, op, probe):
    """One botsift command in this process: (exit code, wall, cpu,
    stdout, stderr). CPU time covers every thread of the process."""
    probe.begin(op.test_rows)
    out, err = io.StringIO(), io.StringIO()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(op.argv)
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return rc, wall, cpu, out.getvalue(), err.getvalue()


def run_round(wl, cli_main, probe) -> Round:
    r = Round()
    outcomes = []
    for op in wl.ops:
        rc, wall, cpu, stdout, stderr = run_op(cli_main, op, probe)
        r.wall += wall
        r.cpu += cpu
        r.attempted += 1
        if rc != 0:
            r.failed += 1
            print(f"{op.name}: exit {rc}: {stderr.strip()[-500:]}",
                  file=sys.stderr)
            continue
        try:
            outcome = wl.check(op, stdout, probe)
        except Exception:  # output too malformed for the check to parse
            outcome = workloads.Outcome([traceback.format_exc(limit=2)])
        if outcome.problems:
            r.failed += 1
            r.wrong += [f"{op.name}: {p}" for p in outcome.problems]
        outcomes.append(outcome)
    if any(o.f1 is not None for o in outcomes):
        r.f1 = wl.test_f1(outcomes)
    return r


def traced_round(wl, cli_main, probe, tracer, memory=False) -> Round:
    patcher = spans.Patcher()
    tracer.install(patcher)
    tracer.begin_round(memory)
    try:
        return run_round(wl, cli_main, probe)
    finally:
        patcher.restore()


def measure(wl, cli_main, probe, seconds: float, traced: bool) -> dict:
    """Warm-up round, then whole rounds until the next one would end
    after `seconds`. In a traced run every second round is traced, and
    one more round runs under tracemalloc for the allocation peaks.

    Peak RSS is read after the warm-up and the first MIN_ROUNDS rounds, a
    fixed amount of work: a faster program fits more rounds into the run
    and must not be charged for a high-water mark over more of them."""
    warm = run_round(wl, cli_main, probe)
    rounds, flags = [], []
    tracer = spans.Tracer()
    minimum = 2 * MIN_ROUNDS if traced else MIN_ROUNDS
    start = time.perf_counter()
    while True:
        on = traced and len(rounds) % 2 == 1
        rounds.append(traced_round(wl, cli_main, probe, tracer) if on
                      else run_round(wl, cli_main, probe))
        flags.append(on)
        if len(rounds) == MIN_ROUNDS:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        if (len(rounds) >= minimum
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
            break
    extra = []
    if traced:
        tracemalloc.start()
        try:
            extra.append(traced_round(wl, cli_main, probe, tracer,
                                      memory=True))
        finally:
            tracemalloc.stop()
    everything = [warm] + rounds + extra
    wrong = [w for r in everything for w in r.wrong]
    if len({r.f1 for r in everything}) != 1:
        wrong.append(f"test f1 differs between rounds: "
                     f"{[r.f1 for r in everything]}")
    plain = [r for r, on in zip(rounds, flags) if not on]
    return {
        "warm": warm, "plain": plain,
        "traced": [r for r, on in zip(rounds, flags) if on],
        "tracer": tracer, "wrong": wrong, "peak_kib": peak_kib,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="botsift benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "botsift", "__init__.py")):
        print(f"no botsift sources under {src}; run from the repository "
              "root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    sys.path.insert(0, src)

    work = os.path.join(BENCH, "work",
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_times, inputs, same_inputs = set_up(args.workload, args.seed,
                                                  work, env)
        import botsift
        from botsift.cli import main as cli_main
        if not os.path.abspath(botsift.__file__).startswith(src + os.sep):
            raise RuntimeError(f"botsift imported from {botsift.__file__}")
        wl = workloads.Workload(args.workload, args.seed, inputs, work)
        probe = workloads.Probe(spans.Patcher())
        run = measure(wl, cli_main, probe, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = run["wrong"]
    if not same_inputs:
        wrong.append("set-up repetitions wrote different inputs")
    for line in wrong[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    plain = run["plain"]
    if args.trace:
        values = spans.layer_metrics(run["tracer"],
                                     [r.wall for r in run["traced"]],
                                     [r.wall for r in plain],
                                     wl.artifact_bytes)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        values = {
            "wall_s": statistics.median(r.wall for r in plain),
            "cpu_s": statistics.median(r.cpu for r in plain),
            "peak_rss_mb": run["peak_kib"] / 1024.0,
            "setup_s": statistics.median(setup_times),
            "test_f1": run["warm"].f1,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {"correct": not wrong, "attempted": run["attempted"],
              "failed": run["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}

    results = os.path.join(BENCH, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "rounds": [r.__dict__ for r in
                                        [run["warm"]] + plain + run["traced"]],
                   "setup_s": setup_times, "python": sys.version.split()[0],
                   "numpy": numpy.__version__,
                   "nproc": os.cpu_count()},
                  fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(run["tracer"].dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
