"""Replicated simulation experiments comparing the aggregation methods, CSV
emission, and a gnuplot script generator for the similarity curves.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .aggregation import fan_aggregate
from .cluster import CvSelect, FixedBeta, JobSpec, resolve_beta
from .errors import InvalidInput, IoError, ParseError
from .local_pca import local_summary, truncate_summary
from .rngs import REPLICATE, child_seed
from .selection import DEFAULT_CANDIDATES
from .simgen import GAUSSIAN, make_population, rho_similarity, sample_data, split_shards

logger = logging.getLogger(__name__)

METHODS = ("beta=-1", "beta=0", "beta=1", "beta=cv", "fan")
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
    to the full setting.
    """

    p: int = 200
    n: int = 250
    m: int = 5
    r: int = 5
    q: int = 10
    distribution: str = GAUSSIAN
    cv_folds: int = 5
    delta: float = 1e-5
    replicates: int = 20
    k_max: int = 15
    seed: int = 0
    center: bool = False
    methods: ClassVar[tuple[str, ...]] = METHODS

    def __post_init__(self):
        if not 1 <= self.r <= self.q <= self.p:
            raise InvalidInput(f"need 1 <= r <= q <= p, got r={self.r}, q={self.q}, p={self.p}")
        if not (2 <= self.m <= self.n and self.cv_folds >= 2):
            raise InvalidInput(f"beta=cv needs 2 <= m <= n and cv_folds >= 2, "
                               f"got m={self.m}, n={self.n}, cv_folds={self.cv_folds}")
        if self.replicates < 1:
            raise InvalidInput("need at least one replicate")
        if self.k_max < self.r:
            raise InvalidInput(f"k_max={self.k_max} must be >= r={self.r}")

    def paper_scale(self) -> "ExperimentSpec":
        return replace(self, p=500, n=250, m=5, replicates=100)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Raw rows plus the two summary views (selection counts, mean curves)."""

    spec: ExperimentSpec
    rows: list[tuple]                    # (replicate, method, beta_used, k, rho_k)
    selection_counts: dict[float, int]   # per candidate beta, over replicates
    mean_rho: dict[str, dict[int, float]]
    k_range: tuple[int, ...]


def _replicate_rows(spec: ExperimentSpec, rep: int) -> tuple[list[tuple], float]:
    seed_rep = child_seed(spec.seed, REPLICATE, rep)
    model = make_population(spec.p, spec.n, spec.r, spec.distribution, seed_rep)
    shards = split_shards(sample_data(model), spec.m)
    summaries_q = [local_summary(s, spec.q, center=spec.center) for s in shards]
    truth = model.truth_basis()
    k_eff = min(spec.k_max, spec.p)
    ks = range(spec.r, k_eff + 1)

    rows: list[tuple] = []
    for method in spec.methods:
        if method == "fan":
            agg = fan_aggregate([truncate_summary(s, spec.r) for s in summaries_q])
        else:
            mode = (CvSelect(folds=spec.cv_folds, seed=seed_rep)
                    if method == "beta=cv" else FixedBeta(float(method.removeprefix("beta="))))
            job = JobSpec(r=spec.r, q=spec.q, beta_mode=mode, delta=spec.delta)
            agg = resolve_beta(summaries_q, job)
            if agg.cv is not None:
                selected = agg.cv.best_beta
        # curves need up to k_max directions, which may exceed q
        block = agg.top(k_eff)
        for k in ks:
            rho = rho_similarity(truncate_summary(block, k), truth)
            rows.append((rep, method, agg.beta_used, k, rho))
    return rows, selected


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run the replicates (optionally in threads) and collate summaries.

    Each replicate draws from its own derived RNG streams, so results do not
    depend on scheduling; rows come out grouped by replicate in order.
    """
    reps = range(1, spec.replicates + 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda rep: _replicate_rows(spec, rep), reps))
    else:
        outcomes = [_replicate_rows(spec, rep) for rep in reps]

    rows = [row for out, _ in outcomes for row in out]
    counts = {b: 0 for b in DEFAULT_CANDIDATES}
    for _, selected in outcomes:
        counts[selected] += 1

    k_range = tuple(range(spec.r, min(spec.k_max, spec.p) + 1))
    mean_rho: dict[str, dict[int, float]] = {}
    for method in spec.methods:
        by_k = {k: [] for k in k_range}
        for _, meth, _, k, rho in rows:
            if meth == method:
                by_k[k].append(rho)
        mean_rho[method] = {k: float(np.mean(v)) for k, v in by_k.items()}
    return ExperimentResult(spec=spec, rows=rows, selection_counts=counts,
                            mean_rho=mean_rho, k_range=k_range)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows, path) -> None:
    """The main output: one row per (replicate, method, k)."""
    lines = [CSV_HEADER]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def write_summary_files(result: ExperimentResult, out_dir) -> tuple[Path, Path]:
    """Selection-frequency and mean-similarity summaries next to the main CSV."""
    out_dir = Path(out_dir)
    freq_path = out_dir / FREQ_FILENAME
    lines = [FREQ_HEADER]
    for b in DEFAULT_CANDIDATES:
        lines.append(",".join([
            result.spec.distribution, str(result.spec.p), str(result.spec.m),
            repr(b), str(result.selection_counts[b]),
        ]))
    write_text(freq_path, "\n".join(lines) + "\n")

    rho_path = out_dir / RHO_FILENAME
    lines = [RHO_HEADER]
    for method in result.spec.methods:
        for k in result.k_range:
            lines.append(f"{method},{k},{repr(result.mean_rho[method][k])}")
    write_text(rho_path, "\n".join(lines) + "\n")
    return freq_path, rho_path


def write_text(path, text: str) -> None:
    """Write text to path, raising IoError on failure."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def run_and_write(spec: ExperimentSpec, out_path) -> ExperimentResult:
    """Run the experiment and emit the main CSV plus both summary files."""
    result = run_experiment(spec)
    out_path = Path(out_path)
    write_rows_csv(result.rows, out_path)
    write_summary_files(result, out_path.parent)
    return result


def emit_plot_script(csv_path, out_path=None) -> str:
    """Generate a gnuplot script drawing one mean-similarity curve per method.

    The script references the CSV (no rendering happens here).  Raises
    ParseError when the CSV is empty, lacks the expected header, or has no
    data rows.
    """
    csv_path = Path(csv_path)
    try:
        text = csv_path.read_text()
    except OSError as exc:
        raise IoError(f"cannot read {csv_path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{csv_path}: empty CSV")
    if lines[0] != CSV_HEADER:
        raise ParseError(f"{csv_path}: expected header {CSV_HEADER!r}, got {lines[0]!r}")
    methods: list[str] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ParseError(f"{csv_path}: malformed row {ln!r}")
        if parts[1] not in methods:
            methods.append(parts[1])
    if not methods:
        raise ParseError(f"{csv_path}: no data rows")

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
    if out_path is not None:
        write_text(out_path, script)
    return script
