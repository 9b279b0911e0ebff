"""Replicated simulation experiments comparing the aggregation methods, and
their outputs: the CSVs and a gnuplot script for the similarity curves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .aggregation import BetaConfig, SummarySpan, fan_aggregate
from .cluster import CvSelect, FixedBeta, JobSpec, resolve_beta
from .errors import InvalidInput, IoError
from .local_pca import local_summary, truncate_summary
from .rngs import REPLICATE, child_seed
from .selection import DEFAULT_CANDIDATES
from .simgen import GAUSSIAN, check_distribution, check_sizes, make_population, rho_curve, sample_data, split_shards

METHODS = (*(f"beta={b:g}" for b in DEFAULT_CANDIDATES), "beta=cv", "fan")
CSV_HEADER = "replicate,method,beta_used,k,rho_k"
FREQ_HEADER = "dist,p,m,beta,count"
RHO_HEADER = "method,k,mean_rho"
FREQ_FILENAME = "summary_frequencies.csv"
RHO_FILENAME = "summary_rho.csv"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a population law and shard layout, on which every
    method of METHODS races; beta=cv chooses among DEFAULT_CANDIDATES.

    Defaults are the quick desk scale; paper_scale() switches the size knobs
    to the full setting.  cv_folds and delta default to CvSelect's and
    BetaConfig's, which a replicate's jobs use.
    """

    p: int = 200
    n: int = 250
    m: int = 5
    r: int = 5
    q: int = 10
    distribution: str = GAUSSIAN
    cv_folds: int = CvSelect.folds
    delta: float = BetaConfig.delta
    replicates: int = 20
    k_max: int = 15
    seed: int = 0
    methods: ClassVar[tuple[str, ...]] = METHODS

    def __post_init__(self):
        check_sizes(self.p, self.n, self.r)  # the planted law's sizes first, so a bad one is named
        check_distribution(self.distribution)
        # the beta=cv job validates r <= q, the folds, the seed and delta
        JobSpec(self.r, self.q, CvSelect(self.cv_folds, self.seed), self.delta)
        if self.q > self.p:
            raise InvalidInput(f"need q <= p, got q={self.q}, p={self.p}")
        if not 2 <= self.m <= self.n:
            raise InvalidInput(f"beta=cv needs 2 <= m <= n, got m={self.m}, n={self.n}")
        if self.replicates < 1:
            raise InvalidInput("need at least one replicate")
        if self.k_max < self.r:
            raise InvalidInput(f"k_max={self.k_max} must be >= r={self.r}")

    def paper_scale(self) -> "ExperimentSpec":
        return replace(self, p=500, n=250, m=5, replicates=100)

    @property
    def k_range(self) -> tuple[int, ...]:
        """The ranks k at which every method's rho_k curve is read: r..min(k_max, p)."""
        return tuple(range(self.r, min(self.k_max, self.p) + 1))


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Raw rows plus the two summary views (selection counts, mean curves)."""

    spec: ExperimentSpec
    rows: list[tuple]                    # (replicate, method, beta_used, k, rho_k)
    selection_counts: dict[float, int]   # per candidate beta, over replicates
    mean_rho: dict[str, dict[int, float]]


def _replicate_rows(spec: ExperimentSpec, rep: int) -> tuple[list[tuple], float]:
    seed_rep = child_seed(spec.seed, REPLICATE, rep)
    model = make_population(spec.p, spec.n, spec.r, spec.distribution, seed_rep)
    shards = split_shards(sample_data(model), spec.m)
    summaries_q = [local_summary(s, spec.q) for s in shards]
    span = SummarySpan.of(summaries_q)  # one basis for every beta method

    def job(mode):
        return JobSpec(r=spec.r, q=spec.q, beta_mode=mode, delta=spec.delta)

    # in METHODS order: each candidate beta, beta=cv, fan
    aggs = [resolve_beta(span, job(FixedBeta(b))) for b in DEFAULT_CANDIDATES]
    cv = resolve_beta(span, job(CvSelect(folds=spec.cv_folds, seed=seed_rep)))
    aggs += [cv, fan_aggregate([truncate_summary(s, spec.r) for s in summaries_q])]
    truth, ks = model.truth_basis(), spec.k_range
    rows = [(rep, method, agg.beta_used, k, rho)
            for method, agg in zip(spec.methods, aggs)
            # curves need up to k_max directions, which may exceed q
            for k, rho in zip(ks, rho_curve(agg.top(ks[-1]), truth, ks))]
    return rows, cv.cv.best_beta


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run the replicates serially (workers must be 1) and collate summaries.

    Each replicate draws from its own derived RNG streams; rows come out
    grouped by replicate in order.
    """
    if workers != 1:
        raise InvalidInput(f"replicates run serially: workers must be 1, got {workers}")
    outcomes = [_replicate_rows(spec, rep) for rep in range(1, spec.replicates + 1)]

    rows = [row for out, _ in outcomes for row in out]
    selected = [beta for _, beta in outcomes]
    counts = {b: selected.count(b) for b in DEFAULT_CANDIDATES}
    curves = {(method, k): [] for method in spec.methods for k in spec.k_range}
    for _, method, _, k, rho in rows:
        curves[method, k].append(rho)
    mean_rho = {method: {k: float(np.mean(curves[method, k])) for k in spec.k_range} for method in spec.methods}
    return ExperimentResult(spec=spec, rows=rows, selection_counts=counts, mean_rho=mean_rho)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: str, rows) -> str:
    """The header line, then one comma-separated line per row: None is written
    as "", a float as its repr, anything else as str."""
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """Write text to path, raising IoError on failure."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def run_and_write(spec: ExperimentSpec, out_path) -> ExperimentResult:
    """Run the experiment and emit the main CSV (one row per replicate, method
    and k), the selection-frequency and mean-similarity summaries, and a gnuplot
    script for the rho_k curves (<csv stem>.gp), all beside the CSV."""
    result = run_experiment(spec)
    out_path = Path(out_path)
    write_text(out_path, csv_text(CSV_HEADER, result.rows))
    write_text(out_path.parent / FREQ_FILENAME, csv_text(FREQ_HEADER, [
        (spec.distribution, spec.p, spec.m, b, result.selection_counts[b]) for b in DEFAULT_CANDIDATES]))
    write_text(out_path.parent / RHO_FILENAME, csv_text(RHO_HEADER, [
        (method, k, result.mean_rho[method][k]) for method in spec.methods for k in spec.k_range]))
    _write_plot_script(out_path, spec.methods, out_path.with_suffix(".gp"))
    return result


def _write_plot_script(csv_path: Path, methods, out_path) -> None:
    """A gnuplot script drawing one mean-similarity curve per method from the
    CSV at csv_path (no rendering happens here)."""
    curves = ", \\\n  ".join(
        f"csv using 4:(strcol(2) eq '{meth}' ? column(5) : 1/0) "
        f"smooth unique with linespoints title '{meth}'"
        for meth in methods
    )
    script = "\n".join([
        "#!/usr/bin/env gnuplot",
        f"# mean similarity per method, averaged over replicates of {csv_path.name}",
        f"csv = '{csv_path}'",
        "set datafile separator ','",
        "set xlabel 'k'",
        "set ylabel 'mean rho_k'",
        "set yrange [0:1.05]",
        "set key bottom right",
        f"plot {curves}",
        "",
    ])
    write_text(out_path, script)
