import re
import socket
import threading
import warnings

import numpy as np
import pytest

from betadpca import (DEFAULT_CANDIDATES, CvSelect, ExperimentSpec, FixedBeta, JobSpec, ParseError, cli,
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
        with pytest.raises(ParseError, match=r"expected the magic b'BDPX'"):
            read_shard(path)
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

    @pytest.mark.parametrize("command", [("serve", "--port", "0", "--m", "2", "--timeout", "0.5"),
                                         ("aggregate", "no_such_shard.bdpx")])
    def test_a_single_fold_exits_before_any_work(self, command, capsys):
        # JobSpec rejects CvSelect(folds=1): serve binds no port, aggregate reads no shard
        assert run_cli(*command, "--r", "2", "--q", "4", "--beta", "cv", "--cv-folds", "1") == 2
        out, err = capsys.readouterr()
        assert "listening on" not in out
        assert "error: need at least two folds, got 1" in err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    @pytest.mark.parametrize("command", [("serve", "--port", "0", "--m", "2", "--timeout", "0.5"),
                                         ("aggregate", "no_such_shard.bdpx")], ids=lambda command: command[0])
    def test_a_non_finite_beta_exits_before_any_work(self, command, beta, capsys):
        # FixedBeta rejects it: serve binds no port, aggregate reads no shard
        assert run_cli(*command, "--r", "2", "--q", "4", "--beta", beta) == 2
        out, err = capsys.readouterr()
        assert "listening on" not in out
        assert f"error: beta must be finite, got {beta}" in err

    @pytest.mark.parametrize("command", [("serve", "--port", "0", "--m", "1", "--timeout", "0.5"),
                                         ("aggregate", "no_such_shard.bdpx")], ids=lambda command: command[0])
    def test_cv_over_one_machine_exits_before_any_work(self, command, capsys):
        # serve binds no port and waits for no frame; aggregate reads no shard
        assert run_cli(*command, "--r", "2", "--q", "4", "--beta", "cv") == 2
        out, err = capsys.readouterr()
        assert "listening on" not in out
        assert "error: cross-validation needs at least two machines" in err

    @pytest.mark.parametrize("flag", ["--r=2", "--beta=1", "--delta=1e-5", "--cv-folds=2", "--cv-seed=0"])
    def test_worker_rejects_coordinator_flags(self, flag, sent, capsys):
        shard, seen = sent
        with pytest.raises(SystemExit) as exc:
            run_cli("worker", "--shard", shard, "--q", "4", flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert seen == []


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

    @pytest.mark.parametrize("command", [("aggregate", "s.bdpx", "--center"), ("serve", "--m", "2", "--center"),
                                         ("simulate", "--center"), ("worker", "--shard", "s.bdpx", "--center"),
                                         ("simulate", "--paper-scale"),
                                         ("worker", "--shard", "s.bdpx", "--machine-id=3"),
                                         ("perturb", "--noise-index=2")],
                             ids=lambda command: f"{command[0]} {command[-1]}")
    def test_removed_options_are_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {command[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--port", "99999"), ("--port", "-5"),
                                            ("--timeout", "-1"), ("--timeout", "0"), ("--timeout", "nan"),
                                            ("--timeout", "inf")])
    @pytest.mark.parametrize("command", [("serve", "--m", "2"), ("worker", "--shard", "no_such_shard.bdpx")],
                             ids=lambda command: command[0])
    def test_a_bad_port_or_timeout_exits_before_any_socket_work(self, command, flag, value, capsys):
        # argparse rejects the value: serve binds nothing, worker reads no shard and connects nowhere
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, f"{flag}={value}")
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"argument {flag}: expected " in err and repr(value) in err
        assert "listening on" not in out

    @pytest.mark.parametrize("command", [
        ("gen", "--seed", "-1", "--out", "{tmp}/data"),
        ("simulate", "--seed", "-1", "--out", "{tmp}/results.csv"),
        ("perturb", "--seed", "-1", "--out", "{tmp}/perturb.csv"),
        ("aggregate", "no_such_shard.bdpx", "--beta", "cv", "--cv-seed", "-1"),
        ("serve", "--port", "0", "--m", "2", "--timeout", "0.5", "--beta", "cv", "--cv-seed", "-1"),
    ], ids=lambda command: command[0])
    def test_a_negative_seed_exits_before_any_work(self, command, tmp_path, capsys):
        # a clean error, not numpy's traceback from SeedSequence: nothing is
        # written, no shard read, no port bound
        assert run_cli(*(arg.format(tmp=tmp_path) for arg in command)) == 2
        out, err = capsys.readouterr()
        assert "error: seed must be non-negative, got -1" in err
        assert "listening on" not in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sizes,message", [
        pytest.param(("--p", "5", "--r", "6"), "need 1 <= r < p, got r=6, p=5", id="r above p"),
        pytest.param(("--n", "0"), "n must be positive", id="n zero"),
        pytest.param(("--n", "-3"), "n must be positive", id="n negative"),
        pytest.param(("--m", "-1"), "m must be positive", id="m negative"),
    ])
    def test_perturb_bad_sizes_exit_before_any_work(self, sizes, message, tmp_path, capsys):
        # simgen's check, not numpy's traceback or RuntimeWarning, and no CSV written
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("perturb", *sizes, "--out", str(tmp_path / "perturb.csv")) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--beta=,", "--d-l=,"])
    def test_perturb_rejects_an_empty_number_list(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("perturb", "--p", "10", "--n", "25", "--m", "2", "--r", "2", flag)
        assert exc.value.code == 2
        assert "expected comma-separated numbers, got ','" in capsys.readouterr().err

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
