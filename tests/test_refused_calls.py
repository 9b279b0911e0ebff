"""Every refusal of the library, one row each: the library twin of
test_cli.py's refused_commands.  A row names the rule, makes one call through
the package's public functions, and states the exact exception class and a
regex of its message.  Tests elsewhere keep what a refusal table cannot say:
a value the error carries, a socket closed after it, a round trip that fits."""

import dataclasses
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from betadpca import (BetaConfig, CorruptMessage, CvPlan, DataShard, DomainError, ExperimentSpec, FixedBeta,
                      InvalidInput, IoError, JobSpec, LocalSummaryMsg, NotPSD, ParseError, PerturbationScenario,
                      PreconditionError, TruncatedEig, beta_aggregate, beta_mean, coordinator_round, decode_summary,
                      divergence, eig_sym, encode_summary, generating_value, listen, local_summary,
                      make_population, make_folds, read_shard, rho_curve, rho_similarity, run_experiment,
                      select_beta, serve, signal_eigenvalues, split_shards, symmetrize, tolerance,
                      truncate_summary, truncated_eig, verify_minimizer, write_shard)
from betadpca.linalg import complete_basis, spectral_map
from betadpca.rngs import REPLICATE, child_seed
from betadpca.simgen import planted_spectra
from helpers import rand_orthogonal, rand_summary, wrap_frame

CFG = BetaConfig(beta=1.0)
JOB = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
U32 = r"must lie in {}\.\.4294967295, got {}"


def shard_file(edit):
    """A 4 x 6 shard file in the working directory, its bytes passed through edit."""
    path = Path("shard.bdpx")
    write_shard(path, DataShard(np.ones((4, 6))))
    path.write_bytes(edit(path.read_bytes()))
    return path


def bind_a_taken_port():
    with listen("127.0.0.1", 0, 1) as taken:
        listen("127.0.0.1", taken.getsockname()[1], 1)


def scenario(**over):
    return PerturbationScenario(**{"base_spectra": [[4.0, 1.0]] * 2, "r": 1, "noise_index": 1, "d_l": 1.0,
                                   "beta": 1.0, **over})


def refused_calls():
    """(rule, call, exception class, message regex) for every call that must refuse."""
    rng = np.random.default_rng(41)
    s52, s53, s62 = rand_summary(rng, 5, 2), rand_summary(rng, 5, 3), rand_summary(rng, 6, 2)
    singular, eye2 = np.diag([1.0, 0.0]), np.eye(2)
    for b in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        yield (f"beta_mean: an indefinite input, beta={b}",
               lambda b=b: beta_mean([np.diag([1.0, -0.5]), eye2], BetaConfig(b)), NotPSD,
               "matrix is not PSD: eigenvalue -0.5 is below -")
    for b in (np.nan, np.inf, -np.inf):  # 0 and -1 are the limits: only a non-finite beta names no member
        for name, call in [("BetaConfig", lambda b=b: BetaConfig(beta=b)),
                           ("divergence", lambda b=b: divergence(eye2, eye2, b)),
                           ("generating_value", lambda b=b: generating_value(eye2, b)),
                           ("PerturbationScenario", lambda b=b: scenario(beta=b)),
                           ("make_folds", lambda b=b: make_folds(4, 2, seed=0, candidate_set=(1.0, b)))]:
            yield f"{name}: beta={b}", call, InvalidInput, f"beta must be finite, got {b}"
    for side, b, args in [("M1", 0.0, (singular, eye2)), *(("M2", b, (eye2, singular)) for b in (-1.0, -2.0))]:
        yield (f"divergence: a singular {side} at beta={b}", lambda a=args, b=b: divergence(*a, b), DomainError,
               f"{side} must be positive definite here; eigenvalue 0 < 1e-12")
    for rule, call, error, message in [
            ("divergence: an indefinite slot", lambda: divergence(np.diag([1.0, -1e-6]), eye2, 1.0), NotPSD, "not PSD"),
            ("truncated_eig: diag(1, -5)", lambda: truncated_eig(np.diag([1.0, -5.0]), 2), NotPSD, "value -5 is below"),
            ("spectral_map: undefined at a value", lambda: spectral_map([1.0, -0.5], np.log), DomainError,
             "scalar map undefined at eigenvalue -0.5"),
            ("tolerance: a degenerate unperturbed aggregate", lambda: tolerance(scenario(base_spectra=[[2.0, 2.0]])),
             PreconditionError, "unperturbed aggregate is degenerate: lbar_r=2 <= lbar_l=2"),
            ("read_shard: no file", lambda: read_shard("nope.bdpx"), IoError, "cannot read shard nope.bdpx"),
            ("listen: a taken port", bind_a_taken_port, IoError, r"cannot bind 127\.0\.0\.1:\d+: "),
            *((f"listen: port {port}", lambda p=port: listen("127.0.0.1", p, 1), IoError,  # not socket's OverflowError
               f"cannot bind 127.0.0.1:{port}: a port lies in 0-65535") for port in (65536, -5)),
            ("serve: no worker within the deadline", lambda: serve(listen("127.0.0.1", 0, 1), 1, JOB, timeout=0.2),
             IoError, r"no usable worker message arrived within 0\.2s")]:
        yield rule, call, error, message

    # InvalidInput, in module order
    est = truncated_eig(np.eye(6), 4)
    msgs = [LocalSummaryMsg(machine_id=i, n_ell=20, summary=s52) for i in (1, 2, 3)]
    for rule, call, message in [
            ("beta_mean: no input", lambda: beta_mean([], CFG), "need at least one input matrix"),
            ("beta_mean: two dimensions", lambda: beta_mean([eye2, np.eye(3)], CFG), "input matrices differ in dim"),
            *((f"BetaConfig: delta={d}", lambda d=d: BetaConfig(1.0, d), f"delta must be positive and finite, got {d}")
              for d in (0.0, np.inf, np.nan)),
            *((f"BetaConfig: delta^beta past the float range, delta={d}", lambda d=d: BetaConfig(-2.0, d),
               rf"delta\^beta must be a positive, finite float, got delta={re.escape(str(d))}, beta=-2\.0")
              for d in (1e-200, 1e200)),  # delta^beta overflows, or underflows to 0: branch_transform's rule
            ("beta_aggregate: no summary", lambda: beta_aggregate([], CFG, 1), "need at least one local summary"),
            ("beta_aggregate: r > q", lambda: beta_aggregate([s52], CFG, 3), "need 1 <= r <= q=2, got r=3"),
            ("beta_aggregate: two dimensions", lambda: beta_aggregate([s52, s62], CFG, 1), "differ in p or q"),
            ("beta_aggregate: two ranks", lambda: beta_aggregate([s52, s53], CFG, 1), "differ in p or q"),
            ("divergence: two dimensions", lambda: divergence(eye2, np.eye(3), 1.0), "matrices differ in dimension"),
            ("verify_minimizer: no trial", lambda: verify_minimizer([eye2], CFG, 0, 0.1), "need at least one trial"),
            ("verify_minimizer: noise_scale=0", lambda: verify_minimizer([eye2], CFG, 1, 0.0), "noise_scale must be"),
            ("symmetrize: not square", lambda: symmetrize(np.zeros((2, 3))), r"square matrix, got shape \(2, 3\)"),
            ("symmetrize: non-finite", lambda: symmetrize([[1.0, np.nan]] * 2), "matrix has non-finite entries"),
            ("eig_sym: not square", lambda: eig_sym(np.ones((3, 2))), r"square matrix, got shape \(3, 2\)"),
            ("complete_basis: too many columns", lambda: complete_basis(np.eye(3)[:, :2], 2), "cannot add 2 columns"),
            ("spectral_map: a shape change", lambda: spectral_map([1.0, 2.0], lambda v: v[:1]), "one value per"),
            ("TruncatedEig: shapes", lambda: TruncatedEig([1, 1], np.eye(3)), r"values \(2,\), vectors \(3, 3\)"),
            ("TruncatedEig: q = 0", lambda: TruncatedEig([], np.eye(3)[:, :0]), "need 1 <= q <= p, got q=0, p=3"),
            ("TruncatedEig: q > p", lambda: TruncatedEig(np.ones(3), np.eye(2, 3)), "need 1 <= q <= p, got q=3, p=2"),
            ("TruncatedEig: nan", lambda: TruncatedEig([1.0, np.nan], np.eye(3)[:, :2]), "non-finite entries"),
            *((f"TruncatedEig: values {v}", lambda v=v: TruncatedEig(v, np.eye(3)[:, :2]),
               "values must be non-negative and non-increasing") for v in ([1.0, 2.0], [1.0, -0.5])),
            ("TruncatedEig: not orthonormal", lambda: TruncatedEig([1.0, 0.5], np.ones((3, 2))), "not orthonormal"),
            *((f"truncated_eig: q={q}", lambda q=q: truncated_eig(np.eye(3), q), f"need 1 <= k <= p=3, got k={q}")
              for q in (0, 4)),
            *((f"local_summary: q={q} in p=3", lambda q=q: local_summary(DataShard(np.ones((3, 5))), q),
               f"need 1 <= q <= p=3, got q={q}") for q in (0, 4)),
            ("truncate_summary: r > q", lambda: truncate_summary(s52, 3), "need 1 <= r <= q=2, got r=3"),
            *((f"DataShard: samples of shape {shape}", lambda s=shape: DataShard(np.zeros(s)),
               rf"samples must be a p x n matrix with n >= 1, got shape \({shape[0]},{shape[1:] and ' 0'}\)")
              for shape in ((3,), (3, 0))),
            ("DataShard: non-finite", lambda: DataShard(np.array([[1.0, np.inf]])), "shard has non-finite entries"),
            *((f"DataShard: machine_id={i}", lambda i=i: DataShard([[1.0]], i), "machine_id " + U32.format(0, i))
              for i in (-1, 2**32)),  # the shard header stores it as u32, as the frame does the id and n_ell
            *((f"LocalSummaryMsg: {field}={msg[field]}", lambda m=msg: LocalSummaryMsg(**m, summary=s52),
               f"{field} " + U32.format(low, msg[field]))
              for field, low, msg in [("machine_id", 0, dict(machine_id=2**32, n_ell=10)),
                                      ("n_ell", 1, dict(machine_id=1, n_ell=2**32)),
                                      ("n_ell", 1, dict(machine_id=1, n_ell=0))]),
            ("JobSpec: r > q", lambda: JobSpec(5, 4, FixedBeta(1.0)), "need 1 <= r <= q, got r=5, q=4"),
            ("JobSpec: a beta_mode of another type", lambda: JobSpec(1, 2, 1.0), "must be FixedBeta or CvSelect"),
            ("coordinator_round: every message of another q than the job's",
             lambda: coordinator_round(msgs, JOB, expected_ids=(1, 2, 3)), "need at least one local summary"),
            ("listen: no worker", lambda: listen("127.0.0.1", 0, 0), "need at least one expected worker"),
            # experiment: each at construction, not inside the first replicate's job, fold plan, seed or population
            *((f"ExperimentSpec: {over}", lambda o=over: ExperimentSpec(**o), message) for over, message in [
                (dict(r=5, q=4), "need 1 <= r <= q, got r=5, q=4"),  # JobSpec's
                (dict(q=300), "need q <= p, got q=300, p=200"),
                (dict(k_max=1), "k_max=1 must be >= r=5"),
                (dict(m=1), "beta=cv needs 2 <= m <= n, got m=1, n=250"),  # every experiment runs beta=cv
                (dict(replicates=0), "need at least one replicate"),
                (dict(cv_folds=1), "need at least two folds, got 1"),  # CvSelect's
                (dict(seed=-1), "seed must be non-negative, got -1"),
                *((dict(delta=d), f"delta must be positive and finite, got {d}") for d in (-1.0, 0.0, np.inf)),
                (dict(delta=1e-320), r"delta\^beta must be a positive, finite float, got delta=1e-320, beta=-1\.0"),
                (dict(r=0), "need 1 <= r < p, got r=0, p=200"),  # simgen's, before JobSpec's
                (dict(distribution="cauchy"), r"unknown distribution 'cauchy'; pick one of \('gaussian', 't3'\)")]),
            ("run_experiment: workers=2", lambda: run_experiment(ExperimentSpec(), workers=2), "workers must be 1"),
            *((f"PerturbationScenario: {rule}", lambda o=over: scenario(**o), message) for rule, over, message in [
                ("one eigenvalue", dict(base_spectra=[[4.0]]), r"must be m x p with p >= 2, got \(1, 1\)"),
                ("an eigenvalue 0", dict(base_spectra=[[4.0, 0.0]]), "spectra must be finite and strictly positive"),
                ("an increasing row", dict(base_spectra=[[1.0, 4.0]]), "each spectrum must be non-increasing"),
                ("r = p", dict(r=2), "need 1 <= r < p=2, got r=2"),
                ("noise_index in the signal block", dict(noise_index=0), r"in the noise block \[1, 1\], got 0"),
                ("noise_index past p", dict(noise_index=2), r"in the noise block \[1, 1\], got 2"),
                ("d_l < 0", dict(d_l=-0.5), "d_l must be non-negative")]),
            ("PerturbationScenario: replace", lambda: dataclasses.replace(scenario(), d_l=-1.0), "d_l must be"),
            ("make_folds: one machine", lambda: make_folds(1, 5, seed=0), "needs at least two machines"),
            ("make_folds: one fold", lambda: make_folds(4, 1, seed=0), "need at least two folds"),
            ("CvPlan: a repeated machine", lambda: CvPlan(((0, 1), (2, 2)), (1.0,)), "must partition the machine"),
            ("CvPlan: unbalanced", lambda: CvPlan(((0,), (1, 2, 3)), (1.0,)), r"balanced \(differ by at most 1\)"),
            ("CvPlan: no fold", lambda: CvPlan((), (1.0,)), "fold sizes must be balanced"),
            ("CvPlan: no candidate", lambda: CvPlan(((0,), (1,)), ()), "candidate_set must be non-empty"),
            ("make_folds: r = 0, q = -3", lambda: make_folds(4, 2, seed=0, r=0, q=-3), "need 1 <= r <= q, got r=0"),
            ("CvPlan: r > q", lambda: CvPlan(((0,), (1,)), (1.0,), r=5, q=2), "need 1 <= r <= q, got r=5, q=2"),
            # simgen and the seed streams (not numpy's SeedSequence error)
            ("make_population: seed=-1", lambda: make_population(12, 50, 2, "gaussian", -1), "seed must be non-neg"),
            ("child_seed: seed=-1", lambda: child_seed(-1, REPLICATE, 1), "seed must be non-negative, got -1"),
            *((f"make_population: r={r} in p=10", lambda r=r: make_population(10, 50, r, "gaussian", 0),
               f"need 1 <= r < p, got r={r}, p=10") for r in (0, 10)),
            ("make_population: cauchy", lambda: make_population(10, 50, 2, "cauchy", 0), "unknown distribution"),
            ("signal_eigenvalues: n=0", lambda: signal_eigenvalues(5, 0, 2), "n must be positive"),
            ("planted_spectra: m=0", lambda: planted_spectra(5, 10, 2, 0, 0), "m must be positive"),
            ("split_shards: a vector", lambda: split_shards(np.ones(3), 1), r"a p x n matrix, got shape \(3,\)"),
            ("split_shards: m > n", lambda: split_shards(np.ones((2, 3)), 4), "need 1 <= m <= n=3, got m=4"),
            ("rho_curve: another p", lambda: rho_curve(est, np.eye(5)[:, :2], [2]), r"p x r with p=6, got \(5, 2\)"),
            *((f"rho_curve: k={k} outside [r, q]", lambda k=k: rho_curve(est, np.eye(6)[:, :2], [2, k]),
               rf"ranks \[2, {k}\] must lie in \[r=2, q=4\]") for k in (1, 5)),
            ("rho_curve: truth not orthonormal", lambda: rho_curve(est, np.ones((6, 2)), [2]), "not orthonormal"),
            ("rho_similarity: an estimate of lower rank than the truth",
             lambda: rho_similarity(truncated_eig(np.eye(4), 1), np.eye(4)[:, :2]), r"\[1\] must lie in \[r=2, q=1\]")]:
        yield rule, call, InvalidInput, message

    # select_beta: a validation block is the leading r columns of its own machine's summary, and the plan fits
    rng = np.random.default_rng(75)
    sq = [rand_summary(rng, 8, 4) for _ in range(4)]
    sr = [truncate_summary(s, 2) for s in sq]
    plan, leading = make_folds(4, 2, seed=3), "each validation summary must be the leading r={} columns"
    for rule, summaries_q, summaries_r, plan_, message in [
            ("validation blocks are a training aggregate", sq,
             [beta_aggregate(sq[1:], BetaConfig(beta=-1.0), 2).leading, *sr[1:]], plan, leading.format(2)),
            ("validation blocks are random", sq,
             [TruncatedEig(np.ones(2), rand_orthogonal(rng, 8)[:, :2]) for _ in range(4)], plan, leading.format(2)),
            ("validation blocks are another machine's", sq, [sr[1], *sr[1:]], plan, leading.format(2)),
            ("validation rank above training rank", sq, [rand_summary(rng, 8, 5)] * 4, plan, leading.format(5)),
            ("a validation summary of another p", sq, [*sr[:3], rand_summary(rng, 7, 2)], plan, leading.format(2)),
            ("a training summary of another p", [*sq[:3], rand_summary(rng, 7, 4)], sr, plan, "differ in p or q"),
            ("the plan's m", sq, sr, make_folds(3, 2, seed=3), "plan covers 3 machines, got 4/4"),
            ("the plan's r", sq, sr, make_folds(4, 2, seed=3, r=1), "plan expects rank r=1, validation .* 2"),
            ("the plan's q", sq, sr, make_folds(4, 2, seed=3, q=3), "plan expects rank q=3, training .* 4")]:
        yield (f"select_beta: {rule}", lambda a=(summaries_q, summaries_r, plan_): select_beta(*a, CFG),
               InvalidInput, message)

    # ParseError: the shard file and the wire frame
    for rule, edit, message in [
            ("a CSV file", lambda raw: b"x1,x2\n1.0,2.0\n", r"not a shard file \(expected the magic b'BDPX'\)"),
            ("a truncated header", lambda raw: raw[:10], "truncated shard header"),
            ("an unknown version", lambda raw: raw[:4] + b"\x63" + raw[5:], "unsupported shard version 99"),
            ("a truncated body", lambda raw: raw[:-8], "expected 212 bytes for a 4x6 shard, got 204"),
            ("a non-finite sample", lambda raw: raw[:-8] + struct.pack("<d", np.inf),
             "invalid shard: shard has non-finite entries")]:
        yield f"read_shard: {rule}", lambda e=edit: read_shard(shard_file(e)), ParseError, "shard.bdpx: " + message
    frame = encode_summary(LocalSummaryMsg(machine_id=7, n_ell=10, summary=s52))
    payload = frame[10:-4]  # wrap_frame puts a valid length prefix, magic and CRC around any payload
    # the retired version 2 layout: the summary, then r = 1 and the rank-r block, well formed and CRC-checked
    retired = payload + struct.pack("<I", 1) + s52.values[:1].tobytes() + s52.vectors[:, :1].tobytes(order="F")
    flipped = frame[:-12] + bytes([frame[-12] ^ 0xFF]) + frame[-11:]  # a bit inside the vectors block
    one_column = struct.pack("<IIIId", 1, 2, 1, 10, 1.0)  # machine 1, p=2, q=1, n_ell=10, value 1
    for rule, data, error, message in [
            ("shorter than any message", frame[:20], ParseError, "frame of 20 bytes is shorter than any valid message"),
            ("truncated", frame[:-5], ParseError, f"frame length field says {len(frame) - 4}, got {len(frame) - 9}"),
            ("bad magic", frame[:4] + b"NOPE" + frame[8:], ParseError, "bad magic b'NOPE'"),
            ("unknown version", frame[:8] + struct.pack("<H", 9) + frame[10:], ParseError, "protocol version 9"),
            ("the retired version 2 layout", wrap_frame(retired, version=2), ParseError, "protocol version 2"),
            ("checksum mismatch", flipped, CorruptMessage, "corrupt message from machine 7: checksum mismatch"),
            ("a payload a float short", wrap_frame(payload[:-8]), ParseError, "does not fit p=5, q=2"),
            *((f"a payload {extra} bytes long", wrap_frame(payload + bytes(extra)), ParseError,
               "does not fit p=5, q=2") for extra in (1, 8)),
            *((f"a vector entry {v:g}", wrap_frame(one_column + struct.pack("<2d", v, 0.0)), ParseError,
               "frame from machine 1 carries an invalid summary: vectors are not orthonormal")
              for v in (2.0, 1e308))]:  # 1e308 is refused before its gram overflows
        yield f"decode_summary: {rule}", lambda d=data: decode_summary(d), error, message


class TestRefusedCall:
    @pytest.mark.parametrize("call, error, message", [pytest.param(*row, id=rule) for rule, *row in refused_calls()])
    def test_raises(self, call, error, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a row that writes a shard file writes it here
        with pytest.raises(error, match=message) as raised:
            call()
        assert type(raised.value) is error
