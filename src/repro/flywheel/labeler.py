"""Background relabeling: turn served warm starts into real labels.

Each selected candidate is re-optimized on the statevector simulator,
*warm-started from the parameters the service actually served* — the
optimizer can only improve on what the user got, and the improvement is
exactly the signal the next model version trains on.

Execution rides the fault-tolerant runtime end to end:

- Candidates are labeled in shard-sized waves under a
  :class:`~repro.data.checkpoint.LabelingCheckpoint`: every completed
  shard is durably on disk before the next begins, so a killed cycle
  resumes from its checkpoint directory and produces byte-identical
  records (relabeling is deterministic — the warm start is data, not
  randomness — so a re-run of any shard rewrites the same bytes).
- Within a shard, candidates are bucketed by node count (at most
  :data:`~repro.qaoa.simulator.MAX_STACK_ROWS` per bucket) and each
  bucket runs as one executor task — one ``(K, 2^n)`` statevector stack
  through the Adam optimizer — under the executor's
  :class:`~repro.runtime.RetryPolicy` and (in tests/CI) its
  deterministic :class:`~repro.runtime.FaultInjector`.

The checkpoint fingerprint covers everything that shapes the output:
the optimizer configuration *and* the full candidate worklist including
the served warm-start parameters. Resuming against a directory written
for a different worklist fails loudly instead of mixing labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.checkpoint import LabelingCheckpoint
from repro.data.dataset import QAOARecord, record_to_payload
from repro.data.generation import (
    LABEL_METHODS,
    canonical_representative,
    canonicalize_angles,
    label_graph_analytic,
)
from repro.exceptions import ExecutionError, FlywheelError
from repro.flywheel.selector import MAX_LABELABLE_NODES, Candidate
from repro.maxcut.cache import ProblemCache
from repro.maxcut.problem import MaxCutProblem
from repro.qaoa.optimizers import AdamOptimizer
from repro.qaoa.simulator import MAX_STACK_ROWS, QAOASimulator
from repro.runtime import FaultInjector, ParallelExecutor, RetryPolicy
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Provenance tag of labels produced by the flywheel.
SOURCE_FLYWHEEL = "flywheel"


@dataclass(frozen=True)
class RelabelConfig:
    """Knobs for one relabeling pass.

    The first block shapes the *output* (it is fingerprinted into the
    checkpoint manifest); the second is pure execution and may differ
    between a run and its resume.
    """

    p: int = 1
    optimizer_iters: int = 120
    learning_rate: float = 0.05
    tol: float = 0.0
    seed: int = 0
    #: ``"analytic-p1"`` labels buckets beyond the dense statevector
    #: bound on the closed-form p=1 surface instead of refusing them.
    label_method: str = "statevector"
    #: Candidates per durable checkpoint shard.
    checkpoint_every: int = 16
    backend: str = "serial"
    workers: Optional[int] = None
    retries: int = 0
    backoff_base_s: float = 0.0
    task_timeout_s: Optional[float] = None
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.p < 1:
            raise FlywheelError("depth p must be >= 1")
        if self.optimizer_iters < 1:
            raise FlywheelError("optimizer_iters must be >= 1")
        if self.checkpoint_every < 1:
            raise FlywheelError("checkpoint_every must be >= 1")
        if self.label_method not in LABEL_METHODS:
            raise FlywheelError(
                f"unknown label method {self.label_method!r}; "
                f"choose from {LABEL_METHODS}"
            )

    def executor(
        self, fault_injector: Optional[FaultInjector] = None
    ) -> ParallelExecutor:
        """The labeling executor implied by this config."""
        return ParallelExecutor(
            backend=self.backend,
            max_workers=self.workers,
            retry_policy=RetryPolicy(
                retries=self.retries,
                backoff_base_s=self.backoff_base_s,
                jitter=0.1 if self.backoff_base_s > 0 else 0.0,
                seed=self.seed,
            ),
            task_timeout_s=self.task_timeout_s,
            deadline_s=self.deadline_s,
            fault_injector=fault_injector,
        )

    def fingerprint(self, candidates: Sequence[Candidate]) -> dict:
        """Output identity: optimizer config + the exact worklist.

        Execution knobs (backend, workers, retries, timeouts) are
        excluded on purpose — a resume on different hardware must still
        produce the same labels.
        """
        return {
            "kind": "flywheel-relabel",
            "p": self.p,
            "optimizer_iters": self.optimizer_iters,
            "learning_rate": self.learning_rate,
            "tol": self.tol,
            "seed": self.seed,
            "label_method": self.label_method,
            "candidates": [
                {
                    "wl_hash": c.wl_hash,
                    "gammas": list(c.served_gammas),
                    "betas": list(c.served_betas),
                }
                for c in candidates
            ],
        }

    def manifest_config(self) -> dict:
        """JSON-safe config stored alongside the fingerprint."""
        return {
            "p": self.p,
            "optimizer_iters": self.optimizer_iters,
            "learning_rate": self.learning_rate,
            "tol": self.tol,
            "seed": self.seed,
            "label_method": self.label_method,
            "checkpoint_every": self.checkpoint_every,
        }


#: One candidate's slot in a bucket task: (graph, served gammas, betas).
_BucketEntry = Tuple[object, tuple, tuple]


def _relabel_bucket(payload) -> List[QAOARecord]:
    """Relabel one same-size bucket of candidates in lock step.

    Module-level (tuple payload) so the process backend can pickle it.
    Every candidate contributes one instance row warm-started from its
    served parameters; the Adam optimizer tracks the per-row best
    iterate, so the returned label is never worse than what the
    service served. Angles are folded onto the canonical manifold
    exactly as offline generation does, so flywheel labels and seed
    labels live on the same target surface.
    """
    entries, p, optimizer_iters, learning_rate, tol, cache, label_method = payload
    # Buckets group same-node-count candidates, so the whole bucket is
    # either within the dense statevector bound or beyond it. Beyond it
    # (only reachable when the selector admitted the class under the
    # analytic-p1 labeler) each entry is labeled on the closed-form
    # surface, warm-started from the served parameters.
    if (
        label_method == "analytic-p1"
        and entries
        and entries[0][0].num_nodes > MAX_LABELABLE_NODES
    ):
        return [
            label_graph_analytic(
                graph,
                p=p,
                warm_start=(gammas, betas),
                source=SOURCE_FLYWHEEL,
            )
            for graph, gammas, betas in entries
        ]
    problems: List[MaxCutProblem] = []
    gamma_rows = []
    beta_rows = []
    for graph, gammas, betas in entries:
        problem = cache.get(graph) if cache is not None else MaxCutProblem(graph)
        problems.append(problem)
        gamma_rows.append(np.asarray(gammas, dtype=np.float64))
        beta_rows.append(np.asarray(betas, dtype=np.float64))
    simulator = QAOASimulator(problems)
    optimizer = AdamOptimizer(learning_rate=learning_rate)
    result = optimizer.run(
        simulator,
        np.stack(gamma_rows),
        np.stack(beta_rows),
        max_iters=optimizer_iters,
        tol=tol,
    )
    records = []
    for row, (graph, _, _) in enumerate(entries):
        problem = problems[row]
        expectation = float(result.expectation[row])
        gammas, betas = canonicalize_angles(
            result.gammas[row], result.betas[row], graph.is_weighted
        )
        if not graph.is_weighted:
            gammas, betas = canonical_representative(
                QAOASimulator(problem), gammas, betas
            )
        optimum = problem.max_cut_value()
        records.append(
            QAOARecord(
                graph=graph,
                p=p,
                gammas=tuple(float(g) for g in gammas),
                betas=tuple(float(b) for b in betas),
                expectation=expectation,
                optimal_value=float(optimum),
                approximation_ratio=problem.approximation_ratio(expectation),
                best_cut_value=float(optimum),
                source=SOURCE_FLYWHEEL,
            )
        )
    return records


def _shard_buckets(
    candidates: Sequence[Candidate], config: RelabelConfig
) -> List[Tuple[int, List[List[int]]]]:
    """The full labeling plan: ``(shard_id, [bucket indices...])``.

    Shards are fixed chunks of the candidate order (the checkpoint
    granularity); buckets group a shard's candidates by node count under
    the stack-size cap. The plan depends only on the candidate list and
    config, so a resumed run rebuilds the identical plan and the
    injector's global bucket numbering stays stable.
    """
    plan = []
    for shard_id, start in enumerate(
        range(0, len(candidates), config.checkpoint_every)
    ):
        indices = list(range(start, min(start + config.checkpoint_every,
                                        len(candidates))))
        by_size: Dict[int, List[int]] = {}
        for index in indices:
            by_size.setdefault(
                candidates[index].graph.num_nodes, []
            ).append(index)
        buckets = []
        for size in sorted(by_size):
            members = by_size[size]
            for chunk_start in range(0, len(members), MAX_STACK_ROWS):
                buckets.append(
                    members[chunk_start:chunk_start + MAX_STACK_ROWS]
                )
        plan.append((shard_id, buckets))
    return plan


def _wave_injector(
    injector: Optional[FaultInjector],
    global_indices: List[int],
) -> Optional[FaultInjector]:
    """Remap a run-global injector onto one wave's local task indices."""
    if injector is None:
        return None
    fails = {
        local: injector.failing_attempts(global_index)
        for local, global_index in enumerate(global_indices)
        if injector.failing_attempts(global_index) > 0
    }
    if not fails:
        return None
    return FaultInjector(fail_tasks=fails, delay_s=injector.delay_s)


def relabel_candidates(
    candidates: Sequence[Candidate],
    config: Optional[RelabelConfig] = None,
    checkpoint: Optional[Union[str, LabelingCheckpoint]] = None,
    resume: bool = False,
    executor: Optional[ParallelExecutor] = None,
    fault_injector: Optional[FaultInjector] = None,
    problem_cache: Optional[ProblemCache] = None,
) -> List[QAOARecord]:
    """Produce one :class:`QAOARecord` per candidate, in order.

    With ``checkpoint`` set, completed shards are durable and
    ``resume=True`` skips them — the returned records are byte-identical
    to an uninterrupted run. Raises
    :class:`~repro.exceptions.FlywheelError` when labeling fails past
    its retry budget.
    """
    if config is None:
        config = RelabelConfig()
    if not candidates:
        return []
    if executor is None:
        executor = config.executor(fault_injector)
    cache = problem_cache if problem_cache is not None else ProblemCache()
    plan = _shard_buckets(candidates, config)

    ckpt: Optional[LabelingCheckpoint] = None
    done: Dict[int, QAOARecord] = {}
    if checkpoint is not None:
        ckpt = (
            checkpoint
            if isinstance(checkpoint, LabelingCheckpoint)
            else LabelingCheckpoint(checkpoint)
        )
        fingerprint = config.fingerprint(candidates)
        if resume:
            ckpt.validate(fingerprint, len(candidates))
        else:
            ckpt.initialize(
                fingerprint,
                config.manifest_config(),
                len(candidates),
                config.checkpoint_every,
            )
        done = ckpt.load_records()
        if resume and done:
            logger.info(
                "resuming relabeling: %d/%d candidates already checkpointed",
                len(done),
                len(candidates),
            )

    base_injector = executor.fault_injector
    # Global bucket numbering over the full plan keeps injected faults
    # pinned to the same work regardless of which shards already ran.
    bucket_offset = {}
    counter = 0
    for shard_id, buckets in plan:
        bucket_offset[shard_id] = counter
        counter += len(buckets)
    try:
        for shard_id, buckets in plan:
            shard_indices = [i for bucket in buckets for i in bucket]
            if all(i in done for i in shard_indices):
                continue
            global_bucket_ids = [
                bucket_offset[shard_id] + j for j in range(len(buckets))
            ]
            executor.fault_injector = _wave_injector(
                base_injector, global_bucket_ids
            )
            payloads = [
                (
                    [
                        (
                            candidates[i].graph,
                            candidates[i].served_gammas,
                            candidates[i].served_betas,
                        )
                        for i in bucket
                    ],
                    config.p,
                    config.optimizer_iters,
                    config.learning_rate,
                    config.tol,
                    cache,
                    config.label_method,
                )
                for bucket in buckets
            ]
            labels = [
                f"shard{shard_id}/n={candidates[bucket[0]].graph.num_nodes}"
                f" x{len(bucket)}"
                for bucket in buckets
            ]
            try:
                results = executor.map(_relabel_bucket, payloads, labels=labels)
            except ExecutionError as exc:
                names = ", ".join(f.label for f in exc.failures[:5])
                raise FlywheelError(
                    f"relabeling failed for {len(exc.failures)} bucket(s): "
                    f"{names}"
                ) from exc
            shard_records: Dict[int, QAOARecord] = {}
            for bucket, bucket_records in zip(buckets, results):
                shard_records.update(zip(bucket, bucket_records))
            if ckpt is not None:
                ordered = sorted(shard_records)
                ckpt.write_shard(
                    shard_id,
                    ordered,
                    [record_to_payload(shard_records[i]) for i in ordered],
                )
            done.update(shard_records)
    finally:
        executor.fault_injector = base_injector

    records = [done[i] for i in range(len(candidates))]
    improved = sum(
        1
        for candidate, record in zip(candidates, records)
        if candidate.served_ar is None
        or record.approximation_ratio > candidate.served_ar + 1e-12
    )
    logger.info(
        "relabeled %d candidates (%d improved on served parameters, "
        "mean AR %.3f)",
        len(records),
        improved,
        float(np.mean([r.approximation_ratio for r in records])),
    )
    return records
