"""Statistical significance of warm-start improvements.

Table 1 reports mean ± std, but with per-instance spread ~3x the mean
(paper: 3.66 ± 9.97) the natural question is whether the improvement is
statistically distinguishable from zero. The comparisons are *paired*
(same test graph, two initializations), so the right tools are the
paired t-test and the Wilcoxon signed-rank test, plus a sign test for a
distribution-free check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class SignificanceReport:
    """Paired-test results for one strategy's improvements.

    Attributes
    ----------
    mean, std:
        Improvement statistics in percentage points.
    t_statistic, t_pvalue:
        Paired t-test against zero mean (two-sided).
    wilcoxon_pvalue:
        Wilcoxon signed-rank test p-value (two-sided); NaN for
        degenerate inputs (e.g. all-zero differences).
    sign_test_pvalue:
        Binomial sign-test p-value (two-sided).
    n:
        Number of paired comparisons.
    """

    mean: float
    std: float
    t_statistic: float
    t_pvalue: float
    wilcoxon_pvalue: float
    sign_test_pvalue: float
    n: int

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the paired t-test rejects zero mean at ``alpha``."""
        return bool(self.t_pvalue < alpha)


def paired_significance(improvements) -> SignificanceReport:
    """Run all three paired tests on per-instance improvements (pp)."""
    # Imported here, not at module top: scipy.stats costs ~0.5 s and
    # ~40 MB, and every command imports this module via repro.analysis.
    from scipy import stats

    values = np.asarray(list(improvements), dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least two paired comparisons")
    t_statistic, t_pvalue = stats.ttest_1samp(values, 0.0)
    nonzero = values[values != 0.0]
    if nonzero.size >= 1 and not np.allclose(nonzero, nonzero[0] * 0):
        try:
            _, wilcoxon_pvalue = stats.wilcoxon(nonzero)
        except ValueError:
            wilcoxon_pvalue = float("nan")
    else:
        wilcoxon_pvalue = float("nan")
    wins = int((values > 0).sum())
    losses = int((values < 0).sum())
    if wins + losses > 0:
        sign_pvalue = float(
            stats.binomtest(wins, wins + losses, 0.5).pvalue
        )
    else:
        sign_pvalue = float("nan")
    return SignificanceReport(
        mean=float(values.mean()),
        std=float(values.std()),
        t_statistic=float(t_statistic),
        t_pvalue=float(t_pvalue),
        wilcoxon_pvalue=float(wilcoxon_pvalue),
        sign_test_pvalue=sign_pvalue,
        n=int(values.size),
    )


def significance_table(results: dict) -> List[dict]:
    """Per-architecture significance rows from EvaluationResult dict."""
    rows = []
    for name, result in results.items():
        report = paired_significance(result.improvements)
        rows.append(
            {
                "strategy": name,
                "mean_pp": report.mean,
                "t_pvalue": report.t_pvalue,
                "wilcoxon_pvalue": report.wilcoxon_pvalue,
                "sign_pvalue": report.sign_test_pvalue,
                "significant_5pct": report.significant(0.05),
                "n": report.n,
            }
        )
    return rows
