"""Benchmark of the sepattn package: desk training, full-scale training, inference and scoring.

Run from the repository root:

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 45 --trace 0

Workloads (BENCHMARK.json lists the two measured for every change, and why):

* ``desk_train`` -- ``trainer.train`` on the desk profile over a 200-pair 64 px set;
* ``infer_eval`` -- ``sepattn enhance`` then ``sepattn eval`` on a desk checkpoint;
* ``full_train`` -- ``trainer.train`` on the paper's full-scale 256 px profile, one
  step per call. Activations reach 21 MB and peak RSS about 3 GB, so memory-bound
  batch norm, leaky ReLU and large matmuls dominate and recompute-vs-store trades
  show in ``peak_rss_mb``. Its 10 s steps make each run long, and on a 2-vCPU
  shared VM the listed workloads need that time for runs long enough to be
  steady, so it is run by hand for changes to memory-bound ops.

End-to-end timings are read at a reference host speed: see ``speed.py``.

Each invocation runs one workload in this one process, so ``peak_rss_mb`` is
that workload's own. Inputs are rendered from ``--seed``. Work repeats in whole
units (a ``trainer.train`` call, or one enhance + eval pass) until ``--seconds``
have passed. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced units and prints the per-layer metrics. Human
readable lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only when
every correctness check passed; without the package source next to this
directory it is 2 and no result is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk_train", "full_train", "infer_eval")
#: BLAS and package worker threads, pinned below nproc so runs on a small shared box stay steady
THREADS = {"OPENBLAS_NUM_THREADS": "1", "SATT_THREADS": "1"}


def git_sha(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; "unavailable" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def run_context(args, inputs: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{k: os.environ[k] for k in THREADS},
        "git_sha": git_sha(ROOT),
        "inputs": inputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "sepattn" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: need the sepattn sources under {src} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.environ.update(THREADS)  # before numpy loads its BLAS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (needs the thread caps and the source path)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a crashed run with the same pid
    work.mkdir(parents=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception:  # any crash is a failed run: report it, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    got = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if got != wanted:
        print(f"error: metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(wanted.items())}",
              file=sys.stderr)
        return 1
    print("context " + json.dumps(run_context(args, outcome.inputs), sort_keys=True))
    for line in outcome.report:
        print(line)
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"ops_attempted {outcome.attempted}")
    print(f"ops_failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
