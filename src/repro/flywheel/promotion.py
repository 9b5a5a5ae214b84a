"""The promotion gate: a candidate earns its way into serving.

Both models run the *same* held-out evaluation — identically seeded
:class:`~repro.pipeline.evaluation.WarmStartEvaluator` sweeps, the same
engine ``repro evaluate`` runs — so the random-arm draws and optimizer
budgets match arm for arm. The score is the mean approximation ratio
the warm-started optimizer reaches from each model's predicted
parameters (``mean_strategy_ar``), i.e. exactly the quantity serving
exists to maximize.

Decision rule: promote iff

.. code-block:: text

    candidate_score >= incumbent_score - margin

``margin`` is the regression tolerance — ``0.0`` demands the candidate
be at least as good; a small positive margin accepts a statistical tie
in exchange for the fresher training data. An *exact* tie promotes (the
candidate has seen strictly more data), and because both scores are
deterministic functions of (models, eval graphs, seed), the tie case is
itself deterministic: re-running the gate flips nothing.

The gate only ever *returns* a decision; publishing the winner is the
caller's job (see :mod:`repro.flywheel.versions`), which is what keeps a
rejected candidate from leaving any trace in the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.exceptions import FlywheelError
from repro.graphs.graph import Graph
from repro.maxcut.cache import ProblemCache
from repro.pipeline.evaluation import WarmStartEvaluator
from repro.serving.registry import model_fingerprint
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass(frozen=True)
class PromotionConfig:
    """Knobs for one gate evaluation."""

    #: Optimizer iterations per evaluation arm.
    eval_iters: int = 40
    learning_rate: float = 0.05
    #: Regression tolerance: candidate may trail the incumbent by at
    #: most this much mean AR and still promote.
    margin: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.eval_iters < 1:
            raise FlywheelError("eval_iters must be >= 1")
        if self.margin < 0.0:
            raise FlywheelError(f"margin must be >= 0, got {self.margin}")


@dataclass
class PromotionDecision:
    """The gate's verdict plus the evidence behind it."""

    promote: bool
    candidate_score: float
    incumbent_score: Optional[float]
    margin: float
    candidate_fingerprint: str
    incumbent_fingerprint: Optional[str]
    eval_graphs: int
    reason: str

    def manifest(self) -> dict:
        """JSON-safe record for the promotion manifest."""
        return {
            "promote": self.promote,
            "candidate_score": self.candidate_score,
            "incumbent_score": self.incumbent_score,
            "margin": self.margin,
            "candidate_fingerprint": self.candidate_fingerprint,
            "incumbent_fingerprint": self.incumbent_fingerprint,
            "eval_graphs": self.eval_graphs,
            "reason": self.reason,
        }


def _score(
    model,
    graphs: Sequence[Graph],
    config: PromotionConfig,
    problem_cache: Optional[ProblemCache],
) -> float:
    """Mean warm-started AR under a freshly seeded evaluator.

    A *new* evaluator per model is deliberate: both sweeps consume
    identical random-arm streams, so the comparison is paired.
    """
    evaluator = WarmStartEvaluator(
        p=model.p,
        optimizer_iters=config.eval_iters,
        learning_rate=config.learning_rate,
        rng=config.seed,
        problem_cache=problem_cache,
    )
    result = evaluator.evaluate_model(graphs, model)
    return float(result.summary()["mean_strategy_ar"])


def gate_candidate(
    candidate,
    incumbent,
    eval_graphs: Sequence[Graph],
    config: Optional[PromotionConfig] = None,
    problem_cache: Optional[ProblemCache] = None,
) -> PromotionDecision:
    """Decide whether ``candidate`` replaces ``incumbent``.

    ``incumbent`` may be ``None`` (cold start): the candidate promotes
    unconditionally — there is nothing to regress against.
    """
    if config is None:
        config = PromotionConfig()
    if not eval_graphs:
        raise FlywheelError("promotion gate needs a non-empty eval set")
    cache = problem_cache if problem_cache is not None else ProblemCache()

    candidate_score = _score(candidate, eval_graphs, config, cache)
    candidate_fp = model_fingerprint(candidate)
    if incumbent is None:
        decision = PromotionDecision(
            promote=True,
            candidate_score=candidate_score,
            incumbent_score=None,
            margin=config.margin,
            candidate_fingerprint=candidate_fp,
            incumbent_fingerprint=None,
            eval_graphs=len(eval_graphs),
            reason="cold start: no incumbent to beat",
        )
        logger.info("promotion gate: %s", decision.reason)
        return decision

    incumbent_score = _score(incumbent, eval_graphs, config, cache)
    promote = candidate_score >= incumbent_score - config.margin
    delta = candidate_score - incumbent_score
    if promote:
        reason = (
            f"candidate {candidate_score:.4f} vs incumbent "
            f"{incumbent_score:.4f} (delta {delta:+.4f}, "
            f"margin {config.margin:.4f}): promoted"
        )
    else:
        reason = (
            f"candidate {candidate_score:.4f} trails incumbent "
            f"{incumbent_score:.4f} by more than margin "
            f"{config.margin:.4f}: rejected"
        )
    logger.info("promotion gate: %s", reason)
    return PromotionDecision(
        promote=promote,
        candidate_score=candidate_score,
        incumbent_score=incumbent_score,
        margin=config.margin,
        candidate_fingerprint=candidate_fp,
        incumbent_fingerprint=model_fingerprint(incumbent),
        eval_graphs=len(eval_graphs),
        reason=reason,
    )
