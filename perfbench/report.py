"""Traced-run report: per-layer metrics and tracing overhead per workload.

Usage, from the root of a checkout::

    python3 perfbench/report.py --seed 1 --seconds 22 [--workloads serve-repeat,...]

For each workload it runs ``perfbench/run.py`` twice in fresh processes,
untraced and traced, then prints every per-layer metric with its value,
its sample count and the end-to-end metric it should move, the metrics a
wrapper outside the program cannot measure (with the reason), and for
each end-to-end metric the traced-minus-untraced difference: the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import WORK  # noqa: E402
from perfbench.layers import NOT_MEASURED, PER_LAYER  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int, detail: Path) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--detail", str(detail),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0 or not detail.exists():
        raise SystemExit(
            f"{workload} (trace {trace}) failed with {done.returncode}:\n"
            + done.stdout[-2000:] + done.stderr[-2000:]
        )
    return json.loads(detail.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in args.workloads.split(","):
            plain = _run(workload, args.seed, args.seconds, 0, Path(tmp) / "plain.json")
            traced = _run(workload, args.seed, args.seconds, 1, Path(tmp) / "traced.json")
            print(f"\n== {workload} (seed {args.seed}, {args.seconds:g} s) ==")
            print(f"{'per-layer metric':28s} {'value':>12s} {'unit':6s} {'samples':>8s}  should move")
            for name, (value, unit, samples) in traced["layers"].items():
                moves = PER_LAYER[name][2]
                print(f"{name:28s} {value:12.6g} {unit:6s} {samples:8d}  {moves}")
            print("not measured from outside the program:")
            for name, reason in NOT_MEASURED.items():
                print(f"  {name}: {reason}")
            print(f"{'end-to-end metric':28s} {'untraced':>12s} {'traced':>12s} {'overhead':>10s}")
            for name, (value, unit) in plain["metrics"].items():
                traced_value = traced["metrics"][name][0]
                share = (traced_value - value) / value if value else float("nan")
                print(f"{name:28s} {value:12.6g} {traced_value:12.6g} {share:+10.1%}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
