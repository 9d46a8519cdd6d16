"""Write one workload's inputs: its generated captures and, for the model
workloads, the feature files `botsift extract` builds from them.

    PYTHONPATH=src python3 bench/make_inputs.py --workload model-zoo \\
        --seed 1 --out bench/work/inputs

run.py times this script as the benchmark's set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

import gen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for name, capture in gen.captures(args.workload, args.seed).items():
        flows = os.path.join(args.out, f"{name}.binetflow")
        gen.write_csv(capture, flows)
        if args.workload == "ingest":
            continue
        from botsift.cli import main as botsift
        with contextlib.redirect_stdout(io.StringIO()):
            rc = botsift(["extract", flows, "--scenario", name, "-o",
                          os.path.join(args.out, f"{name}.features.csv")])
        if rc != 0:
            print(f"extract of {flows} exited {rc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
