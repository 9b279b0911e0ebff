"""Command-line interface.

Subcommands, one per job: gen, simulate, aggregate, perturb, serve, worker.
A flag that several of them take is declared once, in _FLAGS, with the type
that checks it.  `aggregate` and `serve` take the job flags, `simulate` the ones
it shares with them (`--r --q --delta --cv-folds`), and `worker` only `--q`.
A job that cannot run (a bad flag, or CV over fewer than two machines) exits 2
before any shard is read or port bound.  Each output comes from the run that
computes it: `simulate` writes its gnuplot script beside the CSV;
`aggregate`/`serve --beta cv --out` keep the CV scores.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import cluster, experiment
from .errors import (ConvergenceError, CorruptMessage, DomainError, InvalidInput, IoError,
                     ParseError, PreconditionError)
from .local_pca import read_shard, write_shard
from .perturbation import PerturbationScenario, tolerance
from .selection import DEFAULT_CANDIDATES, make_folds
from .simgen import DISTRIBUTIONS, make_population, planted_spectra, sample_data, split_shards

_NPZ_HELP = "write the factored estimate and leading block (with --beta cv, also the fold scores) to this .npz"


def _checked(kind, expected: str, ok=lambda value: True):
    """An argparse type: the text parsed by kind, if ok(value); otherwise the
    command exits 2 with "expected <expected>"."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_beta_value = _checked(lambda text: text if text == "cv" else float(text), "a number or 'cv'")
_float_list = _checked(lambda text: [float(tok) for tok in text.split(",") if tok.strip()],
                       "comma-separated numbers", bool)


# Each default is read from the spec that owns it: ExperimentSpec (sizes, ranks,
# seed), JobSpec (delta, from BetaConfig) and CvSelect (folds, fold seed).
_SPEC = experiment.ExperimentSpec
_FLAGS = {
    "--p": dict(type=int, default=_SPEC.p, help="ambient dimension"),
    "--n": dict(type=int, default=_SPEC.n, help="total sample count"),
    "--m": dict(type=int, default=_SPEC.m, help="number of machines"),
    "--r": dict(type=int, default=_SPEC.r, help="target rank"),
    "--q": dict(type=int, default=_SPEC.q, help="local summary rank (q >= r)"),
    "--dist": dict(choices=DISTRIBUTIONS, default=_SPEC.distribution),
    "--seed": dict(type=int, default=_SPEC.seed),
    "--beta": dict(type=_beta_value, default=1.0, help="a number or 'cv'"),
    "--delta": dict(type=float, default=cluster.JobSpec.delta),
    "--cv-folds": dict(type=int, default=cluster.CvSelect.folds, help="folds for beta selection"),
    "--cv-seed": dict(type=int, default=cluster.CvSelect.seed, help="fold-shuffle seed"),
    "--host": dict(default="127.0.0.1"),
    "--port": dict(type=_checked(int, "a port in 0-65535", cluster.valid_port), default=7071),
    "--timeout": dict(type=_checked(float, f"a positive number of seconds up to {cluster.MAX_TIMEOUT_SECS:g}",
                                    cluster.valid_timeout),
                      default=cluster.DEFAULT_TIMEOUT_SECS,
                      help=f"seconds for the round (serve), or for each connect and send (worker), "
                           f"at most {cluster.MAX_TIMEOUT_SECS:g}; default %(default)g"),
}
_SIZE_FLAGS = ("--p", "--n", "--m", "--r")
_JOB_FLAGS = ("--q", "--r", "--beta", "--delta", "--cv-folds", "--cv-seed")  # see _build_job
_ENDPOINT_FLAGS = ("--host", "--port", "--timeout")


def _add_flags(sub, *names):
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


def _build_job(args, m: int) -> cluster.JobSpec:
    """The job for a round of m machines; InvalidInput if it cannot run."""
    if args.beta == "cv":
        mode = cluster.CvSelect(folds=args.cv_folds, seed=args.cv_seed)
        make_folds(m, mode.folds, mode.seed)  # CV needs two machines: say so now, not after the round
    else:
        mode = cluster.FixedBeta(beta=args.beta)
    return cluster.JobSpec(r=args.r, q=args.q, beta_mode=mode, delta=args.delta)


def _report(agg, out) -> None:
    """Print the round's result; with out, also write it (CV scores included) to that .npz."""
    vals = ", ".join(f"{v:.6g}" for v in agg.leading.values)
    print(f"branch={agg.branch} beta_used={agg.beta_used}")
    print(f"leading eigenvalues: [{vals}]")
    if agg.cv is not None:
        for b, s in agg.cv.scores.items():
            print(f"  cv score beta={b:g}: {s:.6g}")
        print(f"  selected beta = {agg.cv.best_beta:g}")
    if agg.missing:
        print(f"  missing machines: {list(agg.missing)}")
    if out is None:
        return
    arrays = dict(span_values=agg.span_values, span_vectors=agg.span_vectors,
                  complement=agg.complement_value, values=agg.leading.values,
                  vectors=agg.leading.vectors, branch=agg.branch,
                  beta_used=np.nan if agg.beta_used is None else agg.beta_used)
    if agg.cv is not None:
        arrays.update(cv_betas=list(agg.cv.scores), cv_scores=list(agg.cv.scores.values()),
                      cv_per_fold=agg.cv.per_fold)
    _write_npz(out, **arrays)
    print(f"wrote {out}")


def _write_npz(path, **arrays) -> None:
    """np.savez to exactly path (it adds no suffix to an open file); IoError on failure."""
    try:
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def cmd_gen(args) -> int:
    model = make_population(args.p, args.n, args.r, args.dist, args.seed)
    shards = split_shards(sample_data(model), args.m)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    for shard in shards:
        path = out_dir / f"shard_{shard.machine_id:03d}.bdpx"
        write_shard(path, shard)
        print(f"wrote {path} ({shard.p} x {shard.n_ell})")
    pop_path = out_dir / "population.npz"
    _write_npz(pop_path, gamma=model.gamma, lam=model.lam, r=model.r)
    print(f"wrote {pop_path}")
    return 0


def cmd_simulate(args) -> int:
    spec = experiment.ExperimentSpec(
        p=args.p, n=args.n, m=args.m, r=args.r, q=args.q,
        distribution=args.dist, cv_folds=args.cv_folds, delta=args.delta,
        replicates=args.reps, k_max=args.k_max, seed=args.seed,
    )
    result = experiment.run_and_write(spec, args.out)
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    print(f"selection counts over {spec.replicates} replicates:")
    for b, c in result.selection_counts.items():
        print(f"  beta={b:g}: {c}")
    print("mean rho_k at k=r and k=k_max:")
    lo, hi = spec.k_range[0], spec.k_range[-1]
    for method in spec.methods:
        print(f"  {method}: {result.mean_rho[method][lo]:.4f} .. {result.mean_rho[method][hi]:.4f}")
    return 0


def cmd_aggregate(args) -> int:
    job = _build_job(args, len(args.shards))  # a bad job exits before any shard is read
    shards = [read_shard(path) for path in args.shards]
    agg = cluster.run_local(shards, job)
    _report(agg, args.out)
    return 0


def cmd_perturb(args) -> int:
    # One planted spectrum per machine, each sorted descending; the last machine's first
    # noise eigenvalue (index r) is the one inflated.
    spectra = np.sort(planted_spectra(args.p, args.n, args.r, args.m, args.seed), axis=1)[:, ::-1]
    rows = []
    for beta in args.beta:
        for d in args.d_l:
            rep = tolerance(PerturbationScenario(base_spectra=spectra, r=args.r,
                                                 noise_index=args.r, d_l=d, beta=beta))
            rows.append((beta, d, rep.lambda_tilde_l, rep.tau, int(rep.order_invariant)))
    text = experiment.csv_text("beta,d_l,lambda_tilde_l,tau,order_invariant", rows)
    if args.out:
        experiment.write_text(args.out, text)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_serve(args) -> int:
    job = _build_job(args, args.m)  # a bad job exits before the port is bound
    server = cluster.listen(args.host, args.port, args.m)
    host, port = server.getsockname()[:2]
    print(f"listening on {host}:{port}", flush=True)
    agg = cluster.serve(server, args.m, job, timeout=args.timeout)
    _report(agg, args.out)
    return 0


def cmd_worker(args) -> int:
    shard = read_shard(args.shard)
    msg = cluster.worker_round(shard, args.q)
    sent = cluster.send_summary(args.host, args.port, msg, timeout=args.timeout)
    print(f"machine {shard.machine_id}: sent {sent} bytes to {args.host}:{args.port}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="betadpca",
                                     description="distributed PCA via matrix beta-mean aggregation")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a population and write shard files")
    _add_flags(gen, *_SIZE_FLAGS, "--dist", "--seed")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    sim = subs.add_parser("simulate", help="run the replicated method comparison")
    _add_flags(sim, *_SIZE_FLAGS, "--q", "--dist")
    sim.add_argument("--reps", type=int, default=_SPEC.replicates)
    _add_flags(sim, "--seed", "--delta")
    sim.add_argument("--k-max", type=int, default=_SPEC.k_max)
    _add_flags(sim, "--cv-folds")
    sim.add_argument("--out", default="results.csv",
                     help="main CSV; the summaries and the gnuplot script <stem>.gp go beside it")
    sim.set_defaults(func=cmd_simulate)

    agg = subs.add_parser("aggregate", help="aggregate shard files in one round")
    agg.add_argument("shards", nargs="+", help=".bdpx shard files, as gen writes them")
    _add_flags(agg, *_JOB_FLAGS)
    agg.add_argument("--out", help=_NPZ_HELP)
    agg.set_defaults(func=cmd_aggregate)

    pert = subs.add_parser("perturb", help="perturbation tolerance sweep of the first noise eigenvalue (CSV)")
    _add_flags(pert, *_SIZE_FLAGS)
    _add_flags(pert, "--seed")
    pert.add_argument("--beta", type=_float_list, default=DEFAULT_CANDIDATES,
                      help="comma-separated betas")  # a list, not the job flag --beta
    pert.add_argument("--d-l", type=_float_list, default=[0.5, 5.0, 50.0],
                      help="comma-separated perturbation sizes")
    pert.add_argument("--out", help="CSV path (stdout when omitted)")
    pert.set_defaults(func=cmd_perturb)

    srv = subs.add_parser("serve", help="coordinator: listen for worker summaries")
    _add_flags(srv, *_ENDPOINT_FLAGS)
    srv.add_argument("--m", type=int, required=True, help="number of expected workers")
    _add_flags(srv, *_JOB_FLAGS)
    srv.add_argument("--out", help=_NPZ_HELP)
    srv.set_defaults(func=cmd_serve)

    wrk = subs.add_parser("worker", help="compute one shard's summary and send it")
    wrk.add_argument("--shard", required=True, help="a .bdpx shard file; it carries the machine id")
    _add_flags(wrk, *_ENDPOINT_FLAGS, "--q")
    wrk.set_defaults(func=cmd_worker)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (InvalidInput, DomainError, ConvergenceError, PreconditionError,
            CorruptMessage, IoError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
