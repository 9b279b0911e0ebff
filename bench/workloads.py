"""The benchmark's workloads: inputs drawn from the seed, the op timed on
them, a compact copy of each result, and the check against the dense oracle.

Ops call the package through module attributes (``betadpca.cluster.run_sockets``)
so the probes attached by ``probe`` see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple

import numpy as np

import betadpca
import oracle
from betadpca import CvSelect, FixedBeta

# The planted population is part of a workload's definition; the seed draws
# the samples.  Seed-dependent populations made rho_r spread 11% across seeds
# on wide_fixed_tcp, against 5% with a fixed one.
POPULATION_SEED = 2410
# Held-out mismatch scores are means of squared projector distances, O(r).
SCORE_TOL = 1e-6
RHO_TOL = 1e-6


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Check(NamedTuple):
    """Outcome of checking every result of one pool entry."""

    mismatches: list[str]  # one line per result that disagreed with the oracle
    unresolved: int        # comparisons skipped because the reference is not determined
    rho_r: float | None    # rho at k = r of the entry's results


class RoundInput(NamedTuple):
    shards: list
    truth: np.ndarray


class RoundOutcome(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray
    beta: float
    scores: dict | None


@dataclass(frozen=True)
class RoundWorkload:
    """One complete round per op, through run_sockets or run_local."""

    transport: str  # "sockets" or "local"
    p: int
    n: int
    m: int
    q: int
    r: int
    distribution: str
    beta_mode: FixedBeta | CvSelect
    pool_size: int
    min_ops: int
    has_frames: ClassVar[bool] = True

    def job(self) -> betadpca.JobSpec:
        return betadpca.JobSpec(r=self.r, q=self.q, beta_mode=self.beta_mode)

    def make_pool(self, seed: int) -> list[RoundInput]:
        model = betadpca.make_population(self.p, self.n, self.r, self.distribution, POPULATION_SEED)
        truth = model.truth_basis()
        return [RoundInput(betadpca.split_shards(
                               betadpca.sample_data(replace(model, seed=derived_seed(seed, j))), self.m),
                           truth)
                for j in range(self.pool_size)]

    def run(self, entry: RoundInput):
        run = betadpca.cluster.run_sockets if self.transport == "sockets" else betadpca.cluster.run_local
        return run(entry.shards, self.job())

    def digest(self, result) -> RoundOutcome:
        return RoundOutcome(result.leading.values.copy(), result.leading.vectors.copy(), result.beta_used,
                            dict(result.cv.scores) if result.cv is not None else None)

    def check(self, entry: RoundInput, outcomes: list[RoundOutcome]) -> Check:
        summaries = [oracle.summarize(s.samples, self.q) for s in entry.shards]
        refs = {b: oracle.beta_mean(summaries, b) for b in {out.beta for out in outcomes}}
        scores, scores_resolved = None, True
        mode = self.beta_mode
        if isinstance(mode, CvSelect):
            # the coordinator's fold plan, rebuilt through the public API
            plan = betadpca.make_folds(self.m, mode.folds, mode.seed, candidate_set=mode.candidates,
                                       r=self.r, q=self.q)
            scores, scores_resolved = oracle.cv_scores(summaries, plan.folds, plan.candidate_set, self.r)
            scores = dict(zip(plan.candidate_set, scores))
        mismatches, unresolved = [], 0
        for out in outcomes:
            problem = None
            if scores is not None:
                if not scores_resolved:
                    unresolved += 1
                elif scores[out.beta] > min(scores.values()) + SCORE_TOL:
                    problem = f"chose beta={out.beta}, oracle scores {scores}"
                elif max(abs(out.scores[b] - s) for b, s in scores.items()) > SCORE_TOL:
                    problem = f"cv scores {out.scores}, oracle {scores}"
            ref_values, ref_vectors = refs[out.beta]
            if problem is None:
                if oracle.resolved(ref_values, self.r):
                    problem = oracle.leading_mismatch(out.values, out.vectors, ref_values, ref_vectors)
                else:
                    unresolved += 1
            if problem is not None:
                mismatches.append(problem)
        rho_r = oracle.rho(outcomes[0].vectors, entry.truth) if outcomes else None
        return Check(mismatches, unresolved, rho_r)


@dataclass(frozen=True)
class ReplicateWorkload:
    """One paper-scale replicate (all five methods) per op, through run_experiment."""

    distribution: str
    pool_size: int
    min_ops: int
    has_frames: ClassVar[bool] = False

    def spec(self, spec_seed: int) -> betadpca.ExperimentSpec:
        paper = betadpca.ExperimentSpec(distribution=self.distribution).paper_scale()
        return replace(paper, replicates=1, seed=spec_seed)

    def make_pool(self, seed: int) -> list[int]:
        return [derived_seed(seed, j) for j in range(self.pool_size)]

    def run(self, spec_seed: int):
        return betadpca.experiment.run_experiment(self.spec(spec_seed), workers=1)

    def digest(self, result) -> tuple:
        return tuple(result.rows)

    def check(self, spec_seed: int, outcomes: list[tuple]) -> Check:
        """Recompute the fixed-beta rows from the replicate's own data."""
        spec = self.spec(spec_seed)
        rep_seed = betadpca.rngs.child_seed(spec.seed, betadpca.rngs.REPLICATE, 1)
        model = betadpca.make_population(spec.p, spec.n, spec.r, spec.distribution, rep_seed)
        truth = model.truth_basis()
        shards = betadpca.split_shards(betadpca.sample_data(model), spec.m)
        summaries = [oracle.summarize(s.samples, spec.q) for s in shards]
        expected, unresolved_rows = {}, set()
        for method in spec.methods:
            if not method.startswith("beta=") or method == "beta=cv":
                continue
            beta = float(method.split("=", 1)[1])
            values, vectors = oracle.beta_mean(summaries, beta, spec.delta)
            for k in range(spec.r, spec.k_max + 1):
                if oracle.resolved(values, k):
                    expected[method, k] = oracle.rho(vectors[:, :k], truth)
                else:
                    unresolved_rows.add((method, k))
        mismatches, unresolved = [], 0
        for rows in outcomes:
            bad = [(meth, k, rho) for _, meth, _, k, rho in rows
                   if (meth, k) in expected and not abs(rho - expected[meth, k]) <= RHO_TOL]
            unresolved += sum((meth, k) in unresolved_rows for _, meth, _, k, _ in rows)
            if bad:
                meth, k, rho = bad[0]
                mismatches.append(f"{len(bad)} rows off, e.g. {meth} k={k}: {rho!r} "
                                  f"vs oracle {expected[meth, k]!r}")
        rho_r = None
        if outcomes:
            rho_r = float(np.mean([rho for _, _, _, k, rho in outcomes[0] if k == spec.r]))
        return Check(mismatches, unresolved, rho_r)


WORKLOADS = {
    "wide_fixed_tcp": RoundWorkload("sockets", p=1000, n=250, m=5, q=10, r=5, distribution="t3",
                                    beta_mode=FixedBeta(0.0), pool_size=9, min_ops=9),
    "narrow_many_tcp": RoundWorkload("sockets", p=64, n=2560, m=64, q=8, r=4, distribution="gaussian",
                                     beta_mode=FixedBeta(-1.0), pool_size=9, min_ops=100),
    "cv_round_local": RoundWorkload("local", p=500, n=250, m=5, q=10, r=5, distribution="t3",
                                    beta_mode=CvSelect(), pool_size=7, min_ops=7),
    "paper_replicate": ReplicateWorkload(distribution="t3", pool_size=7, min_ops=7),
}
