from pathlib import Path

import numpy as np

from betadpca import (
    CSV_HEADER,
    DEFAULT_CANDIDATES,
    METHODS,
    ExperimentSpec,
    experiment,
    run_and_write,
    run_experiment,
)
from helpers import count_span_svds

TINY = dict(p=16, n=36, m=3, r=2, q=4, replicates=3, k_max=6, seed=4)


def tiny_spec(**over):
    kw = {**TINY, **over}
    return ExperimentSpec(**kw)


class TestSpec:
    def test_paper_scale_knobs(self):
        spec = tiny_spec().paper_scale()
        assert (spec.p, spec.n, spec.m, spec.replicates) == (500, 250, 5, 100)


class TestRunExperiment:
    def test_row_grid_is_complete(self):
        spec = tiny_spec()
        res = run_experiment(spec)
        ks = range(spec.r, spec.k_max + 1)
        assert len(res.rows) == spec.replicates * len(spec.methods) * len(list(ks))
        assert res.spec.k_range == tuple(ks)
        for rep, method, beta_used, k, rho in res.rows:
            assert 1 <= rep <= spec.replicates
            assert method in spec.methods
            assert 0.0 <= rho <= 1.0
            if method == "fan":
                assert beta_used is None
            elif method == "beta=cv":
                assert beta_used in DEFAULT_CANDIDATES
            else:
                assert beta_used == float(method.split("=")[1])

    def test_selection_counts_cover_replicates(self):
        res = run_experiment(tiny_spec())
        assert sum(res.selection_counts.values()) == TINY["replicates"]
        assert set(res.selection_counts) == set(DEFAULT_CANDIDATES)

    def test_mean_rho_matches_rows(self):
        res = run_experiment(tiny_spec())
        picks = [rho for _, meth, _, k, rho in res.rows if meth == "fan" and k == 3]
        assert np.isclose(res.mean_rho["fan"][3], np.mean(picks))

    def test_full_rank_estimate_is_perfect(self):
        # k = q = p: the estimate spans everything, so similarity is 1
        spec = tiny_spec(p=8, n=24, m=2, q=8, k_max=8, replicates=1, cv_folds=2)
        res = run_experiment(spec)
        last = [row for row in res.rows if row[3] == 8]
        assert all(abs(row[4] - 1.0) < 1e-8 for row in last)

    def test_deterministic_and_serial_only(self):
        spec = tiny_spec()
        a = run_experiment(spec)
        b = run_experiment(spec, workers=1)
        assert a.rows == b.rows
        assert a.selection_counts == b.selection_counts

    def test_seed_changes_rows(self):
        a = run_experiment(tiny_spec())
        b = run_experiment(tiny_spec(seed=5))
        assert a.rows != b.rows

    def test_replicate_takes_one_span_svd_for_all_beta_methods(self, monkeypatch):
        # p=16 rows: the beta methods share one 16 x mq stack, fan has its own 16 x mr
        shapes = count_span_svds(monkeypatch, rows=16)
        run_experiment(tiny_spec(replicates=1))
        assert sorted(shapes) == [(16, 6), (16, 12)]

    def test_k_max_may_exceed_q(self):
        spec = tiny_spec(k_max=6, q=4)
        res = run_experiment(spec)
        assert max(row[3] for row in res.rows) == 6


class TestCsvOutputs:
    def test_main_csv_round_trips(self, tmp_path):
        spec = tiny_spec()
        out = tmp_path / "results.csv"
        res = run_and_write(spec, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(res.rows)
        rep, method, beta_used, k, rho = lines[1].split(",")
        first = res.rows[0]
        assert (int(rep), method, int(k)) == (first[0], first[1], first[3])
        assert float(rho) == first[4]
        assert (tmp_path / "summary_frequencies.csv").exists()
        assert (tmp_path / "summary_rho.csv").exists()

    def test_summary_files_content(self, tmp_path):
        spec = tiny_spec()
        res = run_and_write(spec, tmp_path / "results.csv")
        freq = (tmp_path / "summary_frequencies.csv").read_text().splitlines()
        assert freq[0] == "dist,p,m,beta,count"
        assert len(freq) == 1 + len(DEFAULT_CANDIDATES)
        for line, b in zip(freq[1:], DEFAULT_CANDIDATES):
            dist, p, m, beta, count = line.split(",")
            assert (dist, int(p), int(m)) == (spec.distribution, spec.p, spec.m)
            assert float(beta) == b
            assert int(count) == res.selection_counts[b]
        rho = (tmp_path / "summary_rho.csv").read_text().splitlines()
        assert rho[0] == "method,k,mean_rho"
        assert len(rho) == 1 + len(spec.methods) * len(spec.k_range)
        method, k, val = rho[1].split(",")
        assert method == spec.methods[0] and int(k) == spec.k_range[0]
        assert float(val) == res.mean_rho[method][int(k)]

    def test_byte_identical_reruns(self, tmp_path):
        spec = tiny_spec()
        run_and_write(spec, tmp_path / "a.csv")
        run_and_write(spec, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_empty_beta_used_for_fan(self):
        assert experiment.csv_text(CSV_HEADER, [(1, "fan", None, 2, 0.5)]).splitlines()[1] == "1,fan,,2,0.5"


class TestPlotScript:
    def test_run_and_write_puts_the_script_beside_the_csv(self, tmp_path):
        spec = tiny_spec(replicates=1)
        out = tmp_path / "results.csv"
        run_and_write(spec, out)
        script = (tmp_path / "results.gp").read_text()
        assert script.count("smooth unique") == len(spec.methods)
        for method in spec.methods:
            assert f"title '{method}'" in script
        assert f"csv = '{out}'" in script

    def test_single_method(self, tmp_path):
        out = tmp_path / "plot.gp"
        experiment._write_plot_script(tmp_path / "results.csv", ("fan",), out)
        assert out.read_text().count("smooth unique") == 1

    def test_script_text_for_a_csv_path(self, tmp_path):
        out = tmp_path / "results.gp"
        experiment._write_plot_script(Path("results.csv"), METHODS, out)
        curve = "csv using 4:(strcol(2) eq '{0}' ? column(5) : 1/0) smooth unique with linespoints title '{0}'"
        assert out.read_text() == "\n".join([
            "#!/usr/bin/env gnuplot",
            "# mean similarity per method, averaged over replicates of results.csv",
            "csv = 'results.csv'",
            "set datafile separator ','",
            "set xlabel 'k'",
            "set ylabel 'mean rho_k'",
            "set yrange [0:1.05]",
            "set key bottom right",
            "plot " + ", \\\n  ".join(curve.format(m) for m in ("beta=-1", "beta=0", "beta=1", "beta=cv", "fan")),
            "",
        ])
