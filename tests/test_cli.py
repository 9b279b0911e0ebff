import re
import socket
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

from betadpca import (DEFAULT_CANDIDATES, CvSelect, ExperimentSpec, FixedBeta, JobSpec, cli,
                      read_shard, run_local)

CV_KEYS = {"cv_betas", "cv_scores", "cv_per_fold"}


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("shards")
    rc = run_cli("gen", "--p", "24", "--n", "60", "--m", "3", "--r", "2",
                 "--seed", "1", "--out", str(out))
    assert rc == 0
    return out


class TestGenAggregateSelect:
    def test_gen_outputs(self, shard_dir):
        shards = sorted(shard_dir.glob("shard_*.bdpx"))
        assert [s.name for s in shards] == ["shard_001.bdpx", "shard_002.bdpx", "shard_003.bdpx"]
        pop = np.load(shard_dir / "population.npz")
        assert pop["gamma"].shape == (24, 24)
        assert int(pop["r"]) == 2

    def test_gen_reports_an_unwritable_population(self, tmp_path, capsys):
        out = tmp_path / "data"
        (out / "population.npz").mkdir(parents=True)
        rc = run_cli("gen", "--p", "12", "--n", "40", "--m", "2", "--r", "2", "--out", str(out))
        assert rc == 2
        assert f"error: cannot write {out / 'population.npz'}" in capsys.readouterr().err

    def test_a_csv_shard_is_rejected_naming_the_magic(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        assert run_cli("aggregate", str(path), str(path), "--r", "1", "--q", "1") == 2
        assert "expected the magic b'BDPX'" in capsys.readouterr().err

    def test_aggregate_fixed_beta(self, shard_dir, tmp_path, capsys):
        shards = sorted(str(p) for p in shard_dir.glob("shard_*.bdpx"))
        out = tmp_path / "agg.npz"
        rc = run_cli("aggregate", *shards, "--r", "2", "--q", "4",
                     "--beta", "1.0", "--out", str(out))
        assert rc == 0
        text = capsys.readouterr().out
        assert "branch=positive beta_used=1.0" in text
        assert "leading eigenvalues:" in text
        data = np.load(out)
        assert "sigma" not in data
        assert data["values"].shape == (2,)
        assert data["vectors"].shape == (24, 2)
        assert str(data["branch"]) == "positive" and float(data["beta_used"]) == 1.0
        assert not CV_KEYS & set(data.files)
        # the factored form rebuilds the dense estimate
        v, c = data["span_vectors"], float(data["complement"])
        sigma = (v * (data["span_values"] - c)) @ v.T + c * np.eye(24)
        agg = run_local([read_shard(p) for p in shards], JobSpec(r=2, q=4, beta_mode=FixedBeta(1.0)))
        assert np.abs(sigma - agg.sigma_beta).max() <= 1e-12

    def test_aggregate_cv_mode(self, shard_dir, capsys):
        shards = sorted(str(p) for p in shard_dir.glob("shard_*.bdpx"))
        rc = run_cli("aggregate", *shards, "--r", "2", "--q", "4", "--beta", "cv")
        assert rc == 0
        text = capsys.readouterr().out
        assert "selected beta" in text

    def test_aggregate_cv_out_keeps_fold_scores(self, shard_dir, tmp_path, capsys):
        shards = sorted(str(p) for p in shard_dir.glob("shard_*.bdpx"))
        out = tmp_path / "agg.npz"
        rc = run_cli("aggregate", *shards, "--r", "2", "--q", "4", "--beta", "cv", "--out", str(out))
        assert rc == 0
        assert "selected beta" in capsys.readouterr().out
        data = np.load(out)
        job = JobSpec(r=2, q=4, beta_mode=CvSelect())
        cv = run_local([read_shard(path) for path in shards], job).cv
        assert data["cv_per_fold"].shape == (3, 3)  # leave-one-out over three machines
        assert np.array_equal(data["cv_per_fold"], cv.per_fold)
        assert tuple(data["cv_betas"]) == DEFAULT_CANDIDATES
        assert list(data["cv_scores"]) == list(cv.scores.values())
        assert float(data["beta_used"]) == cv.best_beta

    def test_out_is_written_to_the_path_given(self, shard_dir, tmp_path, capsys):
        # np.savez would turn a bare "agg" into agg.npz; the printed name must be the file
        shards = sorted(str(p) for p in shard_dir.glob("shard_*.bdpx"))
        out = tmp_path / "agg"
        assert run_cli("aggregate", *shards, "--r", "2", "--q", "4", "--out", str(out)) == 0
        assert f"wrote {out}\n" in capsys.readouterr().out
        assert sorted(tmp_path.iterdir()) == [out]
        assert np.load(out)["values"].shape == (2,)

    def test_missing_shard_file_is_reported(self, tmp_path, capsys):
        rc = run_cli("aggregate", str(tmp_path / "ghost.bdpx"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    ARGS = ("simulate", "--p", "16", "--n", "36", "--m", "3", "--r", "2", "--q", "4",
            "--reps", "2", "--seed", "3", "--k-max", "5", "--dist", "t3")

    def test_outputs_and_determinism(self, tmp_path, capsys):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        rc = run_cli(*self.ARGS, "--out", str(a_dir / "results.csv"))
        assert rc == 0
        assert "selection counts" in capsys.readouterr().out
        rc = run_cli(*self.ARGS, "--out", str(b_dir / "results.csv"))
        assert rc == 0
        for name in ("results.csv", "summary_frequencies.csv", "summary_rho.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_writes_its_plot_script(self, tmp_path, capsys):
        out_csv = tmp_path / "results.csv"
        assert run_cli(*self.ARGS, "--out", str(out_csv)) == 0
        text = (tmp_path / "results.gp").read_text()
        assert text.count("smooth unique") == 5
        assert f"csv = '{out_csv}'" in text
        assert "set datafile separator ','" in text


class TestPerturb:
    def test_csv_to_stdout(self, capsys):
        rc = run_cli("perturb", "--p", "10", "--n", "25", "--m", "2", "--r", "2",
                     "--beta", "1.0,0.0", "--d-l", "0.5,5.0")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta,d_l,lambda_tilde_l,tau,order_invariant"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            beta, d, tilde, tau, inv = line.split(",")
            assert float(tau) > 0
            assert inv in ("0", "1")

    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "perturb.csv"
        rc = run_cli("perturb", "--p", "10", "--n", "25", "--m", "2", "--r", "2",
                     "--beta", "-1.0", "--d-l", "100.0", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",1")  # beta < 0 stays order invariant


class TestServeWorker:
    @pytest.mark.parametrize("beta", ["1.0", "cv"])
    def test_round_over_loopback(self, beta, tmp_path, capsys):
        gen_dir = tmp_path / "shards"
        assert run_cli("gen", "--p", "12", "--n", "40", "--m", "2", "--r", "2",
                       "--seed", "7", "--out", str(gen_dir)) == 0
        port = free_port()
        out = tmp_path / "agg"
        box = {}

        def _serve():
            box["rc"] = run_cli("serve", "--host", "127.0.0.1", "--port", str(port),
                                "--m", "2", "--r", "2", "--q", "4", "--beta", beta,
                                "--timeout", "20", "--out", str(out))

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        for i in (1, 2):
            rc = run_cli("worker", "--shard", str(gen_dir / f"shard_{i:03d}.bdpx"),
                         "--host", "127.0.0.1", "--port", str(port), "--q", "4")
            assert rc == 0
        thread.join(30.0)
        assert not thread.is_alive()
        assert box["rc"] == 0
        text = capsys.readouterr().out
        assert "listening on 127.0.0.1" in text
        assert "sent" in text and "bytes" in text
        assert f"wrote {out}\n" in text
        data = np.load(out)
        assert data["vectors"].shape == (12, 2)
        if beta == "cv":
            assert tuple(data["cv_betas"]) == DEFAULT_CANDIDATES
            assert data["cv_per_fold"].shape == (2, 3)  # leave-one-out over two machines
        else:
            assert not CV_KEYS & set(data.files)

    @pytest.fixture
    def sent(self, tmp_path, monkeypatch):
        """A one-shard directory and a send_summary spy: returns (shard path, [(msg, timeout)])."""
        gen_dir = tmp_path / "shards"
        assert run_cli("gen", "--p", "12", "--n", "40", "--m", "2", "--r", "2",
                       "--seed", "7", "--out", str(gen_dir)) == 0
        seen = []

        def fake_send(host, port, msg, timeout):
            seen.append((msg, timeout))
            return 0

        monkeypatch.setattr(cli.cluster, "send_summary", fake_send)
        return str(gen_dir / "shard_001.bdpx"), seen

    def test_worker_passes_its_timeout_to_send_summary(self, sent):
        shard, seen = sent
        assert run_cli("worker", "--shard", shard, "--q", "4", "--timeout", "2.5") == 0
        assert run_cli("worker", "--shard", shard, "--q", "4") == 0
        assert [timeout for _, timeout in seen] == [2.5, 30.0]  # --timeout defaults to the cluster's 30 s

    def test_worker_needs_no_target_rank(self, sent):
        # q=4 is below the coordinator's default r=5, which a worker never reads
        shard, seen = sent
        assert run_cli("worker", "--shard", shard, "--q", "4") == 0
        [(msg, _)] = seen
        assert (msg.machine_id, msg.q) == (1, 4)


SERVE, AGGREGATE = ("serve", "--port", "0", "--m", "2", "--timeout", "0.5"), ("aggregate", "s.bdpx")
WORKER, PERTURB = ("worker", "--shard", "s.bdpx"), ("perturb", "--out", "perturb.csv")


def refused_commands():
    """(argv, message on stderr) for every command that must exit 2 before any work."""
    for job in (SERVE, AGGREGATE):  # the job's rules: JobSpec, its beta modes, BetaConfig's delta
        yield (*job, "--r", "2", "--q", "4", "--beta", "cv", "--cv-folds", "1"), "error: need at least two folds, got 1"
        for beta in ("nan", "inf"):
            yield (*job, "--r", "2", "--q", "4", "--beta", beta), f"error: beta must be finite, got {beta}"
        yield (*job, "--beta", "cv", "--cv-seed", "-1"), "error: seed must be non-negative, got -1"
        yield (*job, "--beta", "-1", "--delta", "inf"), "error: delta must be positive and finite, got inf"
    for delta in ("1e-200", "1e200"):  # delta^-2 past the float range, or rounded to 0
        yield ((*AGGREGATE, "--beta", "-2", "--delta", delta),
               f"error: delta^beta must be a positive, finite float, got delta={float(delta)}, beta=-2.0")
    delta_past_range = "error: delta^beta must be a positive, finite float, got delta=1e-320, beta=-1.0"
    yield ("serve", "--m", "2", "--beta", "cv", "--delta", "1e-320"), delta_past_range  # a CV candidate's
    yield ("simulate", "--delta", "1e-320"), delta_past_range
    for job in (("serve", "--port", "0", "--m", "1", "--timeout", "0.5"), AGGREGATE):  # CV over one machine
        yield (*job, "--r", "2", "--q", "4", "--beta", "cv"), "error: cross-validation needs at least two machines"
    for cmd in (("gen", "--out", "data"), ("simulate",), PERTURB):
        yield (*cmd, "--seed", "-1"), "error: seed must be non-negative, got -1"
    yield ("simulate", "--delta", "inf"), "error: delta must be positive and finite, got inf"
    for cmd in (PERTURB, ("simulate",)):  # simgen's size rule comes before any rule of the job
        yield (*cmd, "--p", "5", "--r", "6"), "error: need 1 <= r < p, got r=6, p=5"
        yield (*cmd, "--n", "0"), "error: n must be positive"
    yield ("gen", "--out", "data", "--p", "5", "--r", "6"), "error: need 1 <= r < p, got r=6, p=5"
    yield ("gen", "--out", "data", "--n", "0"), "error: n must be positive"
    yield (*PERTURB, "--n", "-3"), "error: n must be positive"
    yield (*PERTURB, "--m", "-1"), "error: m must be positive"
    yield ("simulate", "--r", "0"), "error: need 1 <= r < p, got r=0, p=200"  # not JobSpec's r <= q
    # argparse: a flag the command does not take, or a value that the flag's type refuses
    coordinator_flags = ("--r=2", "--beta=1", "--delta=1e-5", "--cv-folds=2", "--cv-seed=0")  # a worker takes none
    for argv in [(*AGGREGATE, "--center"), ("serve", "--m", "2", "--center"), ("simulate", "--center"),
                 (*WORKER, "--center"), ("simulate", "--paper-scale"), (*WORKER, "--machine-id=3"),
                 ("perturb", "--noise-index=2"), *((*WORKER, "--q", "4", flag) for flag in coordinator_flags)]:
        yield argv, f"unrecognized arguments: {argv[-1]}"
    for cmd in (("serve", "--m", "2"), WORKER):
        for port in ("99999", "-5"):
            yield (*cmd, f"--port={port}"), f"argument --port: expected a port in 0-65535, got '{port}'"
        for t in ("-1", "0", "nan", "inf", "3e6", "1e10", "1e308"):
            yield ((*cmd, f"--timeout={t}"),
                   f"argument --timeout: expected a positive number of seconds up to 1e+06, got '{t}'")
    for flag in ("--beta=,", "--d-l=,"):
        yield (*PERTURB, flag), f"argument {flag[:-2]}: expected comma-separated numbers, got ','"


class TestRefusedCommand:
    @pytest.mark.parametrize("argv, message", [pytest.param(*row, id=" ".join(row[0])) for row in refused_commands()])
    def test_exits_2_before_any_work(self, argv, message, tmp_path, monkeypatch, capsys):
        # exit 2 with the message, and no warning, port, shard read or written, round or file
        monkeypatch.chdir(tmp_path)  # a relative --out, or simulate's default, would land here
        for owner, name in [(cli, "read_shard"), (cli, "write_shard"), (cli.cluster, "listen"),
                            (cli.cluster, "send_summary"), (cli.experiment, "run_and_write")]:
            monkeypatch.setattr(owner, name, mock.Mock(side_effect=AssertionError(f"{name} was called")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse refuses the command line
                rc = exc.code
        out, err = capsys.readouterr()
        assert (rc, "listening on" in out, list(tmp_path.iterdir())) == (2, False, [])
        assert message in err


class TestArgumentParsing:
    def test_worker_takes_only_the_flags_it_acts_on(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("worker", "--help")
        usage = capsys.readouterr().out.split("options:")[0]
        assert set(re.findall(r"--[\w-]+", usage)) == {"--shard", "--host", "--port", "--timeout", "--q"}

    def test_shared_flags_parse_to_the_specs_defaults(self):
        parser = cli.build_parser()
        parsed = {(a.r, a.q, a.delta, a.cv_folds)
                  for a in (parser.parse_args(["simulate"]), parser.parse_args(["aggregate", "s.bdpx"]),
                            parser.parse_args(["serve", "--m", "2"]))}
        spec = ExperimentSpec()
        job = JobSpec(r=spec.r, q=spec.q, beta_mode=CvSelect())
        assert parsed == {(spec.r, spec.q, spec.delta, spec.cv_folds)}
        assert (job.delta, job.beta_mode.folds) == (spec.delta, spec.cv_folds)

    def test_beta_accepts_cv_and_numbers(self):
        assert cli._beta_value("cv") == "cv"
        assert cli._beta_value("-1.5") == -1.5

    def test_beta_rejects_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            cli._beta_value("fast")

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")

    def test_module_entry_point(self):
        import betadpca.__main__  # noqa: F401  (import must not execute main)
