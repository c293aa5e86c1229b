"""End-to-end command line tests: every verb, precedence, determinism."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spgae.cli import (_build_problem, _coerce, aggregate_traces, build_parser,
                       main, resolve_train_config)
from spgae.data import SynthSpec, generate
from spgae.serialize import load_kv, load_matrix, load_matrix_csv, load_variables
from spgae.trace import RunTrace, TraceRow


# the default step-control constants intentionally trade the descent
# guarantee for practical speed; the config warns once per construction
pytestmark = pytest.mark.filterwarnings("ignore:tau1")


def run_cli(argv):
    return main([str(a) for a in argv])


def read_trace_lines_without_wall(path):
    lines = path.read_text().splitlines()
    return [line.rsplit(",", 1)[0] for line in lines]


class TestGenerateData:
    def test_writes_matching_matrices_and_meta(self, tmp_path):
        out = tmp_path / "d"
        rc = run_cli(["generate-data", "--n", 20, "--n0", 3, "--ntest", 5,
                      "--eps0", 0.05, "--seed", 7, "--csv", "--out", out])
        assert rc == 0
        spec = SynthSpec(kind=1, n_train=20, n_test=5, n_visible=3,
                         eps0=0.05, seed=7)
        Xtr, Xte = generate(spec)
        assert np.array_equal(load_matrix(out / "train.bin"), Xtr)
        assert np.array_equal(load_matrix(out / "test.bin"), Xte)
        assert np.array_equal(load_matrix_csv(out / "train.csv"), Xtr)
        meta = load_kv(out / "meta.txt")
        assert meta["datatype"] == "1"
        assert meta["n_train"] == "20"
        assert meta["seed"] == "7"

    def test_preset_expands_sizes(self, tmp_path):
        out = tmp_path / "p"
        assert run_cli(["generate-data", "--preset", 4, "--out", out]) == 0
        assert load_matrix(out / "train.bin").shape == (5, 50)
        assert load_matrix(out / "test.bin").shape == (5, 0)

    def test_missing_sizes_is_an_error(self, tmp_path, capsys):
        rc = run_cli(["generate-data", "--out", tmp_path / "x"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("shape,n1_flag,n1", [
        (["--n", 20, "--n0", 3, "--ntest", 5], ["--n1", 2], 2),
        (["--preset", 4, "--ntest", 5], ["--n1", 7], 10),   # the preset's N1 wins
    ])
    def test_train_sees_the_generated_matrices(self, tmp_path, shape, n1_flag, n1):
        shape = [*shape, "--datatype", 2, "--eps0", 0.2]
        out = tmp_path / "g"
        assert run_cli(["generate-data", *shape, "--seed", 4, "--out", out]) == 0
        args = build_parser().parse_args(
            [str(a) for a in ["train", *shape, *n1_flag, "--out", tmp_path / "t"]])
        data, test_X = _build_problem(resolve_train_config(args), seed=4)
        assert np.array_equal(data.X, load_matrix(out / "train.bin"))
        assert np.array_equal(test_X, load_matrix(out / "test.bin"))
        assert data.n_hidden == n1


class TestTrain:
    def spg_args(self, out, seed=3):
        return ["train", "--method", "spg", "--n", 12, "--n1", 3, "--n0", 2,
                "--ntest", 4, "--seed", seed, "--epsilon", 1e-5,
                "--max-iters", 400, "--out", out]

    def test_spg_run_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(self.spg_args(out)) == 0
        trace = RunTrace.read_csv(out / "trace.csv")
        assert trace.rows[0].k == 0
        assert all(r.mu is not None for r in trace.rows)
        summary = load_kv(out / "summary.txt")
        assert summary["termination"] == "mu<=eps"
        assert summary["method"] == "spg"
        assert float(summary["final_mu"]) <= 1e-5
        assert float(summary["feasvi"]) >= 0.0
        assert "testerr" in summary
        cfg = load_kv(out / "config.txt")
        assert cfg["seed"] == "3"
        assert float(cfg["resolved_lambda2"]) == 0.1
        from spgae.serialize import load_variables
        z, dims = load_variables(out / "model.bin")
        assert dims == (12, 2, 3)
        assert z.W.shape == (3, 2)

    def test_rerun_is_identical_except_wall_clock(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(self.spg_args(a)) == 0
        assert run_cli(self.spg_args(b)) == 0
        assert (read_trace_lines_without_wall(a / "trace.csv")
                == read_trace_lines_without_wall(b / "trace.csv"))
        assert (a / "model.bin").read_bytes() == (b / "model.bin").read_bytes()

    def test_sgd_rows_leave_solver_columns_blank(self, tmp_path):
        out = tmp_path / "ada"
        rc = run_cli(["train", "--method", "adadelta", "--n", 10, "--n1", 2,
                      "--n0", 2, "--epochs", 3, "--seed", 1, "--out", out])
        assert rc == 0
        trace = RunTrace.read_csv(out / "trace.csv")
        assert [r.k for r in trace.rows] == [0, 1, 2, 3]
        assert all(r.mu is None and r.L is None for r in trace.rows)
        assert load_kv(out / "summary.txt")["termination"] == "epochs"

    def test_hybrid_records_handoff(self, tmp_path):
        out = tmp_path / "hy"
        rc = run_cli(["train", "--method", "spg-ada", "--n", 10, "--n1", 2,
                      "--n0", 2, "--ada-epochs", 2, "--epsilon", 1e-4,
                      "--max-iters", 200, "--seed", 1, "--out", out])
        assert rc == 0
        summary = load_kv(out / "summary.txt")
        assert summary["handoff_index"] == "3"
        trace = RunTrace.read_csv(out / "trace.csv")
        assert trace.rows[2].mu is None
        assert trace.rows[3].mu is not None

    def test_multi_seed_layout(self, tmp_path):
        out = tmp_path / "multi"
        rc = run_cli(["train", "--method", "adadelta", "--n", 10, "--n1", 2,
                      "--n0", 2, "--epochs", 2, "--seeds", "1 2", "--out", out])
        assert rc == 0
        s1 = load_kv(out / "seed_1" / "summary.txt")
        s2 = load_kv(out / "seed_2" / "summary.txt")
        assert s1["seed"] == "1" and s2["seed"] == "2"
        assert s1["trainerr"] != s2["trainerr"]

    def test_parallel_workers_match_sequential(self, tmp_path):
        args = ["train", "--method", "adadelta", "--n", 10, "--n1", 2,
                "--n0", 2, "--epochs", 2, "--seeds", "1 2"]
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert run_cli(args + ["--workers", 1, "--out", seq]) == 0
        assert run_cli(args + ["--workers", 2, "--out", par]) == 0
        for seed in (1, 2):
            a = read_trace_lines_without_wall(seq / f"seed_{seed}" / "trace.csv")
            b = read_trace_lines_without_wall(par / f"seed_{seed}" / "trace.csv")
            assert a == b

    def test_preset6_solver_run_terminates_at_target(self, tmp_path):
        out = tmp_path / "p6"
        rc = run_cli(["train", "--method", "spg", "--preset", 6, "--datatype", 1,
                      "--eps0", 0.05, "--seed", 1, "--out", out])
        assert rc == 0
        assert load_kv(out / "summary.txt")["termination"] == "mu<=eps"

    def test_seed_and_seeds_conflict(self, tmp_path):
        with pytest.raises(SystemExit, match="not both"):
            run_cli(["train", "--method", "adadelta", "--n", 10, "--n1", 2,
                     "--n0", 2, "--seed", 1, "--seeds", "2",
                     "--out", tmp_path / "x"])

    def test_unknown_method_is_an_error(self, tmp_path, capsys):
        rc = run_cli(["train", "--method", "spg", "--out", tmp_path / "x"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_preset_n1_beats_the_flag(self, tmp_path):
        out = tmp_path / "p"
        assert run_cli(["train", "--method", "spg", "--preset", 4, "--n1", 7,
                        "--max-iters", 1, "--out", out]) == 0
        assert load_variables(out / "model.bin")[1] == (50, 5, 10)

    def test_theoretical_L_warns_once_from_the_cli(self, tmp_path):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            assert run_cli(self.spg_args(tmp_path / "t")
                           + ["--theoretical-L", "--max-iters", 2]) == 0
        tau = [w for w in rec if "tau1*tau3" in str(w.message)]
        assert len(tau) == 1
        assert Path(tau[0].filename).name == "cli.py"

    @pytest.mark.parametrize("extra", [[], ["--theoretical-L"]])
    def test_invalid_mu0_is_an_error(self, tmp_path, capsys, extra):
        rc = run_cli(self.spg_args(tmp_path / "x") + ["--mu0", 0, *extra])
        assert rc == 1
        assert "mu0 must lie in (0, 1)" in capsys.readouterr().err


class TestConfigPrecedence:
    def write_cfg(self, tmp_path, extra=""):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("method = adadelta\nepochs = 2\nn = 10\nn1 = 2\n"
                       "n0 = 2\nlambda2 = 0.2\n" + extra)
        return cfg

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        parser = build_parser()
        from_file = resolve_train_config(parser.parse_args(
            ["train", "--config", str(cfg), "--out", "x"]))
        assert from_file["lambda2"] == 0.2
        assert from_file["method"] == "adadelta"
        assert from_file["epochs"] == 2
        overridden = resolve_train_config(parser.parse_args(
            ["train", "--config", str(cfg), "--lambda2", "0.3", "--out", "x"]))
        assert overridden["lambda2"] == 0.3
        defaults = resolve_train_config(parser.parse_args(["train", "--out", "x"]))
        assert defaults["lambda2"] == 0.1

    def test_config_file_drives_a_run(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "seeds = 5\n")
        out = tmp_path / "run"
        assert run_cli(["train", "--config", cfg, "--out", out]) == 0
        snap = load_kv(out / "config.txt")
        assert float(snap["resolved_lambda2"]) == 0.2
        assert snap["method"] == "adadelta"
        assert snap["seed"] == "5"

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("bogus = 1\n")
        rc = run_cli(["train", "--config", cfg, "--out", tmp_path / "x"])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_coercion_rules(self):
        assert _coerce("theoretical_L", "true") is True
        assert _coerce("theoretical_L", "off") is False
        assert _coerce("L0", "none") is None
        assert _coerce("epochs", "7") == 7
        assert _coerce("mu0", "1e-4") == 1e-4
        assert _coerce("seeds", "1 2 3") == "1 2 3"
        with pytest.raises(ValueError, match="expected boolean"):
            _coerce("theoretical_L", "maybe")


class TestQpBench:
    def test_single_size_row_and_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = run_cli(["qp-bench", "--sizes", "100:5:5", "--out", out])
        assert rc == 0
        assert "535" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "N,N1,N0,N2,iters,seconds,resid,ref_gap,kkt"
        n, n1, n0, n2, iters, seconds, resid, ref_gap, kkt = lines[1].split(",")
        assert (n, n1, n0, n2) == ("100", "5", "5", "535")
        assert int(iters) > 0
        assert float(seconds) < 10.0
        assert float(resid) <= 1e-6
        # packed dimension 535 is past the dense-certificate cutoff
        assert ref_gap == "" and kkt == ""

    def test_small_rows_carry_reference_certificate(self, tmp_path):
        # At the default stopping tolerance (squared-delta 1e-6) the returned
        # point sits within ~sqrt(tol) of the minimizer, so the objective gap
        # floor is ~1e-5 and the KKT floor ~10*sqrt(tol).
        out = tmp_path / "bench.csv"
        rc = run_cli(["qp-bench", "--sizes", "20:3:2", "--out", out])
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == "71"   # 2*3 + 3 + 2 + 3*20
        assert float(row[7]) <= 1e-4   # objective near the reference QP's
        assert float(row[8]) <= 1e-2   # KKT certificate at the returned point

    def test_tight_tolerance_matches_reference_objective(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = run_cli(["qp-bench", "--sizes", "20:3:2", "--tol", "1e-12",
                      "--out", out])
        assert rc == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[7]) <= 1e-6
        assert float(row[8]) <= 1e-4

    def test_oversize_instances_are_skipped(self, capsys):
        rc = run_cli(["qp-bench", "--sizes", "1000:100:10", "--max-n2", "1000"])
        assert rc == 0
        assert "skip" in capsys.readouterr().out


class TestReport:
    def write_trace(self, path, fvals):
        trace = RunTrace()
        for k, f in enumerate(fvals):
            trace.rows.append(TraceRow(k=k, fval=f))
        trace.to_csv(path)
        return path

    def test_identical_traces_collapse_to_the_value(self, tmp_path):
        paths = [self.write_trace(tmp_path / f"t{i}.csv", [4.0, 2.0])
                 for i in range(3)]
        header, rows = aggregate_traces(paths)
        assert header == ["k", "fval_median", "fval_q25", "fval_q75"]
        assert rows[0][1:] == [4.0, 4.0, 4.0]
        assert rows[1][1:] == [2.0, 2.0, 2.0]

    def test_median_and_quartiles_of_three(self, tmp_path):
        paths = [self.write_trace(tmp_path / f"t{i}.csv", [v])
                 for i, v in enumerate((1.0, 2.0, 3.0))]
        header, rows = aggregate_traces(paths)
        k, med, q25, q75 = rows[0]
        assert (med, q25, q75) == (2.0, 1.5, 2.5)
        assert q25 <= med <= q75

    def test_truncates_to_shortest_trace(self, tmp_path):
        p1 = self.write_trace(tmp_path / "a.csv", [1.0, 1.0, 1.0])
        p2 = self.write_trace(tmp_path / "b.csv", [3.0])
        _, rows = aggregate_traces([p1, p2])
        assert len(rows) == 1
        assert rows[0][1] == 2.0

    def test_cli_writes_aggregate_csv(self, tmp_path):
        paths = [self.write_trace(tmp_path / f"t{i}.csv", [v])
                 for i, v in enumerate((1.0, 3.0))]
        out = tmp_path / "agg.csv"
        rc = run_cli(["report", "--traces", *paths, "--out", out])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,fval_median,fval_q25,fval_q75"
        assert lines[1].split(",")[1] == "2"


def test_module_entry_point_help():
    res = subprocess.run([sys.executable, "-m", "spgae.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    for verb in ("generate-data", "train", "qp-bench", "report"):
        assert verb in res.stdout
