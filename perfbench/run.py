"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload label --seed 1 --seconds 22 --trace 0

Workloads: ``label``, ``train``, ``serve-unique``, ``serve-repeat`` (see
``BENCHMARK.json`` for why each exists).  Every workload is a stream of
operations of one kind (a graph labeled, a training epoch, a ``/predict``
request), and with ``--trace 0`` every workload reports the same
end-to-end metrics of them; with ``--trace 1`` it installs timing wrappers
around the program's public functions and reports the per-layer metrics
instead.  Each metric is printed by name with its unit, then the
operations attempted and failed by kind, and the last line of standard
output is one JSON object.  The exit code is 1 when an output check failed
and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import RepoMissing, import_repro  # noqa: E402
from perfbench.layers import END_TO_END, complete  # noqa: E402

WORKLOADS = ("label", "train", "serve-unique", "serve-repeat")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload in ("label", "train"):
        from perfbench import pipeline

        run = pipeline.run_label if workload == "label" else pipeline.run_train
        return run(seed, seconds, trace)
    from perfbench import serve

    return serve.run(workload.split("-", 1)[1], seed, seconds, trace)


def result_line(result: dict, trace: bool) -> dict:
    """The final JSON object of a run."""
    tally = result["tally"]
    chosen = complete(result["layers"]) if trace else result["metrics"]
    return {
        "correct": tally.total_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.total_failed,
        "metrics": {
            name: {"value": entry[0], "unit": entry[1]}
            for name, entry in chosen.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="label and train only: set up in this process, print the "
        "seconds it took and exit (the workload's set-up samples)",
    )
    parser.add_argument(
        "--detail", default=None,
        help="also write end-to-end metrics, per-layer metrics with their "
        "sample counts, and failures by kind to this JSON file",
    )
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so the server it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import_repro()
    except (RepoMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        from perfbench.pipeline import SETUP

        if args.workload not in SETUP:
            parser.error("--setup-only applies to label and train")
        start = time.perf_counter()
        SETUP[args.workload](args.seed, args.seconds)
        print(time.perf_counter() - start)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if list(result["metrics"]) != list(END_TO_END):
        raise RuntimeError(
            f"{args.workload} reported {list(result['metrics'])}, not {list(END_TO_END)}"
        )
    line = result_line(result, bool(args.trace))
    for name, metric in line["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {line['attempted']}, "
          f"succeeded {line['attempted'] - line['failed']}, "
          f"failed {line['failed']}: "
          + ", ".join(f"{k} {v}" for k, v in result["tally"].by_kind().items()))
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump({
                "metrics": result["metrics"],
                "layers": complete(result["layers"]) if args.trace else {},
                "failed": result["tally"].by_kind(),
            }, handle)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
