"""Experiment abl-fixed — fixed-angle relabeling coverage and effect.

The paper: fixed-angle tables exist only for regular degrees 3-11,
covering ~6% of the full dataset (587 of 9598 graphs), and the
improvement on that slice alone was too small to move the GNN. This
bench measures coverage and the per-record label-quality change on the
benchmark dataset, plus the quality of fixed angles as direct (no
optimization) initializations.
"""

import numpy as np

from repro.analysis.tables import format_rows
from repro.data.pruning import fixed_angle_relabel
from repro.graphs.generators import random_regular_graph
from repro.qaoa.fixed_angles import lookup_fixed_angles
from repro.qaoa.simulator import QAOASimulator

from benchmarks.conftest import RESULTS_DIR, write_artifact
from repro.analysis.figures import export_csv


def test_ablation_fixed_angle_relabel(bench_dataset, benchmark):
    relabeled, report = benchmark.pedantic(
        fixed_angle_relabel, args=(bench_dataset,), rounds=1, iterations=1
    )
    before = bench_dataset.approximation_ratios()
    after = relabeled.approximation_ratios()
    rows = [
        {
            "total": report.total,
            "eligible": report.eligible,
            "relabeled": report.relabeled,
            "coverage": report.coverage_fraction,
            "mean_ar_before": float(before.mean()),
            "mean_ar_after": float(after.mean()),
        }
    ]
    text = format_rows(
        rows,
        [
            "total",
            "eligible",
            "relabeled",
            "coverage",
            "mean_ar_before",
            "mean_ar_after",
        ],
        title="Ablation: fixed-angle relabeling (coverage = degrees 3-11)",
    )
    write_artifact("ablation_fixed_angles", text)
    export_csv(rows, RESULTS_DIR / "ablation_fixed.csv")

    # relabeling never hurts (only_if_better) and covers a strict subset
    assert after.mean() >= before.mean() - 1e-12
    assert 0 < report.eligible < report.total


def test_fixed_angles_quality_per_degree(benchmark):
    def measure():
        rng = np.random.default_rng(20240305)
        rows = []
        for degree in (3, 4, 5, 6):
            entry = lookup_fixed_angles(degree, p=1)
            # p=1 entries are closed form, so the table measures no
            # ratio for them: simulate an 8-graph, 12-node ensemble here.
            ratios = [
                QAOASimulator(
                    random_regular_graph(12, degree, rng=rng)
                ).approximation_ratio(list(entry.gammas), list(entry.betas))
                for _ in range(8)
            ]
            rows.append(
                {
                    "degree": degree,
                    "gamma": entry.gammas[0],
                    "beta": entry.betas[0],
                    "ensemble_mean_ar": float(np.mean(ratios)),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = format_rows(
        rows,
        ["degree", "gamma", "beta", "ensemble_mean_ar"],
        title="Fixed angles (p=1) per degree, ensemble mean AR",
    )
    write_artifact("fixed_angles_per_degree", text)
    # fixed angles give nontrivial ratios without any optimization
    assert all(row["ensemble_mean_ar"] > 0.6 for row in rows)
