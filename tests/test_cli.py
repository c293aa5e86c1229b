"""End-to-end command line tests: every verb, precedence, determinism."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spgae
from spgae.cli import (_build_problem, _coerce, aggregate_traces, bench_instance,
                       build_parser, main, resolve_train_config)
from spgae.data import SynthSpec, generate
from spgae.serialize import load_kv, load_matrix, load_variables, save_kv
from spgae.subproblem import solve_subproblem
from spgae.trace import RunTrace, TraceRow, TraceWriter

from conftest import write_idx_images
from helpers import load_matrix_csv, plain_solve


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

    def test_preset_with_sizes_writes_nothing(self, tmp_path, capsys):
        rc = run_cli(["generate-data", "--preset", 6, "--n", 50, "--n0", 3,
                      "--out", tmp_path / "x"])
        assert rc == 1
        assert ("error: --preset sets synthetic sizes and cannot be combined with --n\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_missing_sizes_is_an_error(self, tmp_path, capsys):
        rc = run_cli(["generate-data", "--out", tmp_path / "x"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("eps0", ["nan", "inf"])
    def test_nonfinite_eps0_is_an_error(self, tmp_path, capsys, eps0):
        rc = run_cli(["generate-data", "--preset", 6, "--eps0", eps0,
                      "--out", tmp_path / "x"])
        assert rc == 1
        assert "error: eps0 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        rc = run_cli(["generate-data", "--preset", 1, "--seed", -1,
                      "--out", tmp_path / "x"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: --seed must be >= 0, got -1" in err
        assert not (tmp_path / "x").exists()

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
        data = _build_problem(resolve_train_config(args), seed=4)
        assert np.array_equal(data.X, load_matrix(out / "train.bin"))
        assert np.array_equal(data.test_X, load_matrix(out / "test.bin"))
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
        resolved = tuple(int(cfg[f"resolved_{k}"]) for k in ("n", "n0", "n1"))
        z, dims = load_variables(out / "model.bin")
        assert dims == resolved == (12, 2, 3)
        assert z.W.shape == (3, 2)

    def test_rerun_is_identical_except_wall_clock(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(self.spg_args(a)) == 0
        assert run_cli(self.spg_args(b)) == 0
        assert (read_trace_lines_without_wall(a / "trace.csv")
                == read_trace_lines_without_wall(b / "trace.csv"))
        assert (a / "model.bin").read_bytes() == (b / "model.bin").read_bytes()

    def test_capped_solves_and_mu_shrinks_are_counted(self, tmp_path):
        out = tmp_path / "capped"
        assert run_cli(self.spg_args(out) + ["--sub-max-iter", 1]) == 0
        summary = load_kv(out / "summary.txt")
        steps = int(summary["iterations"])
        assert steps > 0
        assert summary["capped_solves"] == str(steps)
        mus = [r.mu for r in RunTrace.read_csv(out / "trace.csv").rows]
        shrinks = sum(b < a for a, b in zip(mus, mus[1:]))
        assert 0 < shrinks < steps
        assert summary["mu_shrinks"] == str(shrinks)

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
        for key in ("final_L", "b1_clamp_hits", "capped_solves", "mu_shrinks",
                    "final_stationarity"):
            assert key in summary
        trace = RunTrace.read_csv(out / "trace.csv")
        assert trace.rows[2].mu is None
        assert trace.rows[3].mu is not None

    @pytest.mark.parametrize("method,extra", [
        ("spg", []), ("spg", ["--L0", 2]), ("spg", ["--theoretical-L"]),
        ("spg-ada", ["--ada-epochs", 2]), ("spg-ada", ["--ada-epochs", 2, "--L0", 2]),
        ("spg-ada", ["--ada-epochs", 2, "--theoretical-L"]),
        ("spg", ["--L0", 2, "--theoretical-L"]),
        ("spg-ada", ["--ada-epochs", 2, "--L0", 2, "--theoretical-L"]),
    ])
    def test_resolved_L0_is_the_first_solver_rows_L(self, tmp_path, method, extra):
        out = tmp_path / "run"
        assert run_cli(["train", "--method", method, "--n", 12, "--n1", 3, "--n0", 2,
                        "--max-iters", 3, "--seed", 1, *extra, "--out", out]) == 0
        first = int(load_kv(out / "summary.txt").get("handoff_index", 0))
        L = RunTrace.read_csv(out / "trace.csv").rows[first].L
        assert L is not None
        assert float(load_kv(out / "config.txt")["resolved_L0"]) == L
        if "--L0" in extra:
            assert L == 2.0

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
        # two workers split three seeds into uneven lockstep groups, {1, 2} and {3}
        args = ["train", "--method", "adadelta", "--n", 10, "--n1", 2,
                "--n0", 2, "--epochs", 2, "--seeds", "1 2 3"]
        seq, par = tmp_path / "seq", tmp_path / "par"
        assert run_cli(args + ["--workers", 1, "--out", seq]) == 0
        assert run_cli(args + ["--workers", 2, "--out", par]) == 0
        for seed in (1, 2, 3):
            a = read_trace_lines_without_wall(seq / f"seed_{seed}" / "trace.csv")
            b = read_trace_lines_without_wall(par / f"seed_{seed}" / "trace.csv")
            assert a == b
            assert ((seq / f"seed_{seed}" / "model.bin").read_bytes()
                    == (par / f"seed_{seed}" / "model.bin").read_bytes())

    @pytest.mark.parametrize("method", ["adadelta", "adam", "spg-ada", "spg"])
    def test_each_seed_matches_its_own_command(self, tmp_path, method):
        args = ["train", "--method", method, "--n", 30, "--n1", 3, "--n0", 2,
                "--ntest", 5, "--epochs", 3, "--ada-epochs", 3, "--max-iters", 5,
                "--batch-size", 7]
        assert run_cli(args + ["--seeds", "0,1,2", "--out", tmp_path / "group"]) == 0
        for seed in (0, 1, 2):
            solo = tmp_path / f"solo_{seed}"
            assert run_cli(args + ["--seed", seed, "--out", solo]) == 0
            member = tmp_path / "group" / f"seed_{seed}"
            assert (read_trace_lines_without_wall(member / "trace.csv")
                    == read_trace_lines_without_wall(solo / "trace.csv"))
            assert (member / "model.bin").read_bytes() == (solo / "model.bin").read_bytes()

    def test_duplicate_seeds_are_an_error(self, tmp_path, capsys):
        rc = run_cli(["train", "--method", "adadelta", "--n", 10, "--n1", 2,
                      "--n0", 2, "--epochs", 1, "--seeds", "1 1",
                      "--out", tmp_path / "dup"])
        assert rc == 1
        assert "error: duplicate seeds" in capsys.readouterr().err
        assert not (tmp_path / "dup").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_is_an_error(self, tmp_path, capsys, where, workers):
        args = ["train", "--method", "adadelta", "--n", 10, "--n1", 2, "--n0", 2,
                "--epochs", 1, "--seeds", "1,2", "--out", tmp_path / "run"]
        if where == "flag":
            args += ["--workers", workers]
        else:
            (tmp_path / "cfg.txt").write_text(f"workers = {workers}\n")
            args += ["--config", tmp_path / "cfg.txt"]
        assert run_cli(args) == 1
        assert "error: --workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--tau2", "nan", "tau2 must be positive"),
        ("--sub-max-iter", 0, "sub_max_iter must be >= 1"),
        ("--lambda1", "nan", "lambda1 and lambda2 must be nonnegative"),
        ("--test-file", "test.bin", "--test-file needs --train-file"),
        ("--mnist-labels", "labels.idx", "--mnist-labels needs --mnist-images"),
        ("--per-class", 2, "--per-class needs --mnist-images"),
        ("--train-file", "train.bin", "--preset sets synthetic sizes and cannot be "
                                      "combined with --train-file"),
        ("--mnist-images", "images.idx", "--preset sets synthetic sizes and cannot be "
                                         "combined with --mnist-images"),
        ("--n", 50, "--preset sets synthetic sizes and cannot be combined with --n"),
        ("--n0", 3, "--preset sets synthetic sizes and cannot be combined with --n0"),
    ])
    def test_bad_solver_setting_is_an_error(self, tmp_path, capsys, flag, value, message):
        rc = run_cli(["train", "--method", "spg", "--preset", 6, "--seed", 0,
                      flag, value, "--out", tmp_path / "run"])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_theoretical_L_without_a_positive_lambda1_writes_nothing(self, tmp_path,
                                                                      capsys):
        # --alpha spares the model its own check, so only the validated-L
        # box sees lambda1 = 0
        rc = run_cli(["train", "--method", "spg", "--preset", 6, "--lambda1", 0,
                      "--alpha", 1, "--theoretical-L", "--out", tmp_path / "run"])
        assert rc == 1
        assert "requires positive lambda1, lambda2" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("args,message", [
        (["--method", "spg", "--preset", 1, "--seed", -1], "--seed must be >= 0, got -1"),
        (["--method", "spg", "--preset", 1, "--seeds", "1,-2"],
         "--seeds must be >= 0, got -2"),
        (["--method", "adadelta", "--preset", 1, "--seeds", "-3 2"],
         "--seeds must be >= 0, got -3"),
    ])
    def test_negative_seed_is_an_error(self, tmp_path, capsys, args, message):
        rc = run_cli(["train", *args, "--out", tmp_path / "run"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and f"error: {message}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_non_integer_seed_is_an_error(self, tmp_path, capsys, where):
        args = ["train", "--method", "adadelta", "--preset", 1, "--out", tmp_path / "run"]
        if where == "flag":
            args += ["--seeds", "1,x"]
        else:
            (tmp_path / "cfg.txt").write_text("seeds = 1,x\n")
            args += ["--config", tmp_path / "cfg.txt"]
        rc = run_cli(args)
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: --seeds entry 'x' is not an integer" in err
        assert not (tmp_path / "run").exists()

    def test_missing_mnist_images_writes_nothing(self, tmp_path, capsys):
        rc = run_cli(["train", "--method", "spg", "--seed", 0,
                      "--mnist-images", tmp_path / "missing.idx", "--out", tmp_path / "run"])
        assert rc == 1
        assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_test_file_of_another_width_writes_nothing(self, tmp_path, capsys):
        for out, n0 in (("a", 3), ("b", 2)):
            assert run_cli(["generate-data", "--n", 10, "--n0", n0, "--ntest", 4,
                            "--out", tmp_path / out]) == 0
        rc = run_cli(["train", "--method", "adam", "--seed", 0, "--n1", 2,
                      "--train-file", tmp_path / "a" / "train.bin",
                      "--test-file", tmp_path / "b" / "test.bin", "--out", tmp_path / "run"])
        assert rc == 1
        assert "training matrix's 3 rows" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    SYNTHETIC_FLAGS = (("--n", 50), ("--n0", 3), ("--datatype", 2), ("--eps0", 0.2),
                       ("--ntest", 5))

    @pytest.mark.parametrize("source,flag,value", [
        *(("--train-file", flag, value) for flag, value in SYNTHETIC_FLAGS),
        *(("--mnist-images", flag, value) for flag, value in SYNTHETIC_FLAGS),
        ("--train-file", "--mnist-images", "images.idx"),
    ])
    def test_file_source_refuses_synthetic_flags(self, tmp_path, capsys, source, flag,
                                                 value):
        # each run would succeed on these files without the flag
        assert run_cli(["generate-data", "--n", 10, "--n0", 9, "--out", tmp_path]) == 0
        write_idx_images(tmp_path / "images.idx", np.arange(36).reshape(4, 3, 3))
        files = {"--train-file": tmp_path / "train.bin",
                 "--mnist-images": tmp_path / "images.idx"}
        rc = run_cli(["train", "--method", "adadelta", "--epochs", 1, "--n1", 2,
                      source, files[source], flag, files.get(flag, value),
                      "--out", tmp_path / "run"])
        assert rc == 1
        assert f"error: {flag} does not apply to {source}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_hybrid_takes_the_batch_size(self, tmp_path):
        args = ["train", "--method", "spg-ada", "--n", 30, "--n1", 3, "--n0", 2,
                "--ada-epochs", 2, "--max-iters", 3, "--seed", 1]
        runs = {}
        for name, extra in (("default", []), ("10", ["--batch-size", 10]),
                            ("5", ["--batch-size", 5])):
            assert run_cli(args + extra + ["--out", tmp_path / name]) == 0
            runs[name] = (tmp_path / name / "model.bin").read_bytes()
        assert runs["default"] == runs["10"]      # default_batch_size(30) is 10
        assert runs["5"] != runs["default"]

    @pytest.mark.parametrize("method", ["adadelta", "spg-ada"])
    def test_adadelta_refuses_lr(self, tmp_path, capsys, method):
        rc = run_cli(["train", "--method", method, "--n", 10, "--n1", 2, "--n0", 2,
                      "--epochs", 1, "--ada-epochs", 1, "--lr", 5, "--seed", 1,
                      "--out", tmp_path / "lr"])
        assert rc == 1
        assert "error: adadelta has no learning rate" in capsys.readouterr().err

    def test_preset6_solver_run_terminates_at_target(self, tmp_path):
        out = tmp_path / "p6"
        rc = run_cli(["train", "--method", "spg", "--preset", 6, "--datatype", 1,
                      "--eps0", 0.05, "--seed", 1, "--out", out])
        assert rc == 0
        summary = load_kv(out / "summary.txt")
        assert summary["termination"] == "mu<=eps"
        assert summary["capped_solves"] == "0"

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
        assert load_kv(out / "config.txt")["resolved_n1"] == "10"

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
        with pytest.raises(ValueError,
                           match=r"^config key workers: expected int, got '2\.5'$"):
            _coerce("workers", "2.5")
        with pytest.raises(ValueError,
                           match=r"^config key mu0: expected float, got 'abc'$"):
            _coerce("mu0", "abc")

    def test_config_type_error_names_the_key_and_writes_nothing(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "workers = 2.5\n")
        rc = run_cli(["train", "--config", cfg, "--out", tmp_path / "run"])
        assert rc == 1
        assert ("error: config key workers: expected int, got '2.5'\n"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()


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

    @pytest.mark.parametrize("tol", ["nan", -1])
    def test_bad_tolerance_is_an_error(self, tmp_path, capsys, tol):
        rc = run_cli(["qp-bench", "--sizes", "20:3:2", "--tol", tol,
                      "--out", tmp_path / "bench.csv"])
        assert rc == 1
        out, err = capsys.readouterr()
        # rejected before the table header is printed
        assert out == "" and f"error: --tol must be >= 0, got {float(tol)}" in err
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("sizes,entry", [
        ("20:5:5,0:5:5", "'0:5:5'"),   # the valid first row is not solved either
        ("", "''"),
        ("20:5", "'20:5'"),
        ("20:5:5:1", "'20:5:5:1'"),
        ("20:x:5", "'20:x:5'"),
        ("20:5:-1", "'20:5:-1'"),
        ("20:5:5,", "''"),
    ])
    def test_bad_sizes_are_an_error(self, tmp_path, capsys, sizes, entry):
        rc = run_cli(["qp-bench", "--sizes", sizes, "--out", tmp_path / "bench.csv"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: --sizes entry {entry} is not N:N1:N0" in err
        assert not (tmp_path / "bench.csv").exists()

    def test_negative_seed_prints_nothing(self, tmp_path, capsys):
        rc = run_cli(["qp-bench", "--sizes", "20:3:2", "--seed", -1,
                      "--out", tmp_path / "bench.csv"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: --seed must be >= 0, got -1" in err
        assert not (tmp_path / "bench.csv").exists()

    def test_solves_at_the_solver_default(self, tmp_path):
        """qp-bench runs solve_subproblem's default, accelerated sweep."""
        out = tmp_path / "bench.csv"
        assert run_cli(["qp-bench", "--sizes", "40:6:4", "--seed", 3, "--out", out]) == 0
        row = out.read_text().splitlines()[1].split(",")
        spec = bench_instance(40, 6, 4, seed=3)
        res = solve_subproblem(spec)
        assert int(row[4]) == res.iters < plain_solve(spec).iters
        assert float(row[6]) == max(res.deltas)   # resid is written losslessly


class TestReport:
    def write_trace(self, path, fvals):
        with TraceWriter(path) as writer:
            for k, f in enumerate(fvals):
                writer.write_row(TraceRow(k=k, fval=f))
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

    def test_text_outputs_write_values_alike(self, tmp_path):
        # 0.1, 3 and None as a save_kv value, a trace cell and a report cell
        texts = ["0.10000000000000001", "3", ""]
        save_kv(tmp_path / "kv.txt", {"a": 0.1, "b": 3, "c": None})
        assert (tmp_path / "kv.txt").read_text().splitlines() == [
            f"{key} = {text}" for key, text in zip("abc", texts)]
        cells = TraceRow(k=0, fval=0.1, sub_iters=3).to_csv_line().split(",")
        assert [cells[3], cells[8], cells[7]] == texts   # fval, sub_iters, testerr
        # over one trace each cell is its row's value; row 1 has no fval
        with TraceWriter(tmp_path / "t.csv") as writer:
            writer.write_row(TraceRow(k=0, fval=0.1, sub_iters=3))
            writer.write_row(TraceRow(k=1, sub_iters=3))
        rc = run_cli(["report", "--traces", tmp_path / "t.csv",
                      "--out", tmp_path / "agg.csv"])
        assert rc == 0
        lines = (tmp_path / "agg.csv").read_text().splitlines()
        assert lines[0].startswith("k,fval_median,fval_q25,fval_q75,sub_iters_median")
        assert [line.split(",")[1:5] for line in lines[1:]] == [
            [texts[0]] * 3 + [texts[1]], [texts[2]] * 3 + [texts[1]]]


def test_module_entry_point_help():
    res = subprocess.run([sys.executable, "-m", "spgae.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    for verb in ("generate-data", "train", "qp-bench", "report"):
        assert verb in res.stdout


def run_in_fresh_process(argv):
    """``spgae.cli.main(argv)`` in a new interpreter under the default warning
    filters; returns its stderr and the scipy modules it had loaded at exit."""
    code = ("import sys; from spgae.cli import main; rc = main(sys.argv[1:]); "
            "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(rc)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(spgae.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stderr, res.stdout.splitlines()[-1].split()


class TestFreshProcess:
    SHAPE = ["--n", 40, "--n0", 3, "--ntest", 5]

    @pytest.mark.parametrize("method,extra", [
        pytest.param("spg", [], id="spg"), pytest.param("spg-ada", [], id="spg-ada"),
        pytest.param("spg", ["--theoretical-L"], id="spg-theoretical-L"),
        pytest.param("spg-ada", ["--theoretical-L"], id="spg-ada-theoretical-L")])
    def test_three_seeds_warn_once(self, tmp_path, method, extra):
        err, scipy_modules = run_in_fresh_process(
            ["train", "--method", method, *self.SHAPE, "--n1", 4, "--ada-epochs", 2,
             "--max-iters", 2, "--seeds", "0,1,2", *extra, "--out", tmp_path])
        # the config warns once, before any seed runs; the solver factors
        # with numpy alone
        assert scipy_modules == []
        assert err.count("tau1*tau3 < 1") == 1

    def test_no_command_imports_scipy(self, tmp_path):
        # 20:3:2 is small enough for the reference and KKT columns
        ada = tmp_path / "ada"
        for argv in (["qp-bench", "--sizes", "20:3:2", "--out", tmp_path / "qp.csv"],
                     ["train", "--method", "adadelta", *self.SHAPE, "--n1", 4,
                      "--epochs", 2, "--seeds", "0,1", "--out", ada],
                     *(["train", "--method", method, *self.SHAPE, "--n1", 4,
                        "--ada-epochs", 2, "--max-iters", 3, "--seed", 0,
                        "--out", tmp_path / method] for method in ("spg", "spg-ada")),
                     ["generate-data", *self.SHAPE, "--out", tmp_path / "data"],
                     ["report", "--traces", ada / "seed_0" / "trace.csv",
                      ada / "seed_1" / "trace.csv", "--out", tmp_path / "agg.csv"]):
            _, scipy_modules = run_in_fresh_process(argv)
            assert scipy_modules == [], argv[0]
        ref_gap, kkt = (tmp_path / "qp.csv").read_text().splitlines()[1].split(",")[-2:]
        assert float(ref_gap) >= 0.0 and float(kkt) >= 0.0
