import numpy as np
import pytest

from betadpca import (
    CSV_HEADER,
    DEFAULT_CANDIDATES,
    ExperimentSpec,
    InvalidInput,
    ParseError,
    emit_plot_script,
    run_and_write,
    run_experiment,
    write_rows_csv,
)
from helpers import count_span_svds

TINY = dict(p=16, n=36, m=3, r=2, q=4, replicates=3, k_max=6, seed=4)


def tiny_spec(**over):
    kw = {**TINY, **over}
    return ExperimentSpec(**kw)


class TestSpecValidation:
    def test_rank_ordering_enforced(self):
        with pytest.raises(InvalidInput):
            tiny_spec(r=5, q=4)
        with pytest.raises(InvalidInput):
            tiny_spec(q=20, p=16)

    def test_k_max_below_r_rejected(self):
        with pytest.raises(InvalidInput):
            tiny_spec(k_max=1)

    def test_single_machine_rejected(self):
        # every experiment runs beta=cv, which needs two machines
        with pytest.raises(InvalidInput, match="2 <= m"):
            tiny_spec(m=1)

    def test_single_fold_rejected(self):
        # at construction, not inside make_folds at the first beta=cv
        with pytest.raises(InvalidInput, match="cv_folds >= 2"):
            tiny_spec(cv_folds=1)

    def test_paper_scale_knobs(self):
        spec = tiny_spec().paper_scale()
        assert (spec.p, spec.n, spec.m, spec.replicates) == (500, 250, 5, 100)


class TestRunExperiment:
    def test_row_grid_is_complete(self):
        spec = tiny_spec()
        res = run_experiment(spec)
        ks = range(spec.r, spec.k_max + 1)
        assert len(res.rows) == spec.replicates * len(spec.methods) * len(list(ks))
        assert res.k_range == tuple(ks)
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

    def test_deterministic_and_thread_invariant(self):
        spec = tiny_spec()
        a = run_experiment(spec)
        b = run_experiment(spec)
        c = run_experiment(spec, workers=3)
        assert a.rows == b.rows == c.rows
        assert a.selection_counts == c.selection_counts

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
        assert len(rho) == 1 + len(spec.methods) * len(res.k_range)
        method, k, val = rho[1].split(",")
        assert method == spec.methods[0] and int(k) == res.k_range[0]
        assert float(val) == res.mean_rho[method][int(k)]

    def test_byte_identical_reruns(self, tmp_path):
        spec = tiny_spec()
        run_and_write(spec, tmp_path / "a.csv")
        run_and_write(spec, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_empty_beta_used_for_fan(self, tmp_path):
        out = tmp_path / "results.csv"
        write_rows_csv([(1, "fan", None, 2, 0.5)], out)
        assert out.read_text().splitlines()[1] == "1,fan,,2,0.5"


class TestPlotScript:
    def write_csv(self, tmp_path, rows):
        path = tmp_path / "results.csv"
        write_rows_csv(rows, path)
        return path

    def test_one_curve_per_method(self, tmp_path):
        rows = [(1, "beta=1", 1.0, 2, 0.5), (1, "fan", None, 2, 0.4),
                (1, "beta=1", 1.0, 3, 0.6)]
        path = self.write_csv(tmp_path, rows)
        out = tmp_path / "plot.gp"
        script = emit_plot_script(path, out)
        assert out.read_text() == script
        assert script.count("smooth unique") == 2
        assert "'beta=1'" in script and "'fan'" in script
        assert str(path) in script

    def test_single_method(self, tmp_path):
        path = self.write_csv(tmp_path, [(1, "fan", None, 2, 0.4)])
        assert emit_plot_script(path).count("smooth unique") == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            emit_plot_script(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            emit_plot_script(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(CSV_HEADER + "\n1,fan,,2\n")
        with pytest.raises(ParseError):
            emit_plot_script(path)

    def test_header_without_rows_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(ParseError):
            emit_plot_script(path)
