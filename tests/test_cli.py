import json
import multiprocessing
import os
import shutil

import numpy as np
import pytest

from conftest import logistic_sweep_config
from fishervi.cli import (
    ConfigError,
    build_model,
    fit_config_from,
    load_config,
    load_reference_precision,
    main,
    parse_config_text,
)
from fishervi.linalg import SparsityPattern
from fishervi.optimizers import fit


@pytest.fixture
def gaussian_setup(tmp_path, rng):
    d = 4
    a = rng.standard_normal((d, d))
    lamb = a @ a.T + 2 * np.eye(d)
    nu = rng.standard_normal(d)
    np.savetxt(tmp_path / "nu.csv", nu, delimiter=",")
    np.savetxt(tmp_path / "lambda.csv", lamb, delimiter=",")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# gaussian smoke config\n"
        "model.kind = gaussian\n"
        "model.nu_csv = nu.csv\n"
        "model.lambda_csv = lambda.csv\n"
        "divergence = KLD\n"
        "optimizer.max_iter = 1500\n"
        "optimizer.window = 300\n"
    )
    return cfg, nu, lamb


class TestConfigParsing:
    def test_flat_key_values(self):
        cfg = parse_config_text("a.b = 1\n# comment\nc = hello  # trailing\n\n")
        assert cfg == {"a.b": "1", "c": "hello"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("not a key value\n")

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_missing_data_file_named(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.kind = gaussian\nmodel.nu_csv = ghost.csv\n"
                       "model.lambda_csv = ghost.csv\ndivergence = KLD\n")
        with pytest.raises(ConfigError, match="ghost.csv"):
            build_model(load_config(cfg))

    def test_repeated_key_names_both_lines(self, gaussian_setup, tmp_path, capsys):
        # the last value used to win: SDb followed by KLD fitted KLD
        cfg, _, _ = gaussian_setup
        text = cfg.read_text().replace("divergence = KLD", "divergence = SDb")
        cfg.write_text(text + "divergence = KLD\n")
        first, last = text.splitlines().index("divergence = SDb") + 1, text.count("\n") + 1
        out = tmp_path / "o"
        assert main(["fit", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: line {last}: divergence is "
                                           f"already set on line {first}\n")
        assert not out.exists()
        # sweep names the config once, as fit does
        assert main(["sweep", str(cfg)]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: line {last}: divergence is "
                                           f"already set on line {first}\n")

    def test_line_without_equals_names_config(self, gaussian_setup, tmp_path, capsys):
        # fit printed "error: line 8: ..." without the config's path
        cfg, _, _ = gaussian_setup
        cfg.write_text(cfg.read_text() + "seed 3\n")
        for argv in (["fit", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")],
                     ["sweep", str(cfg)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (f"error: {cfg}: line 8: expected "
                                               "'key = value', got 'seed 3'\n")

    def test_missing_config_named_once(self, tmp_path, capsys):
        # sweep printed "error: <path>: config file not found: <path>"
        cfg = tmp_path / "nope.cfg"
        for argv in (["fit", "--config", str(cfg), "--seed", "1"], ["sweep", str(cfg)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {cfg}: config file not found\n"

    @pytest.mark.parametrize("value, has_intercept", [
        ("1", True), ("true", True), ("YES", True), ("True", True),
        ("0", False), ("false", False), ("No", False), ("FALSE", False),
    ])
    def test_bool_spellings_in_any_case(self, tmp_path, rng, value, has_intercept):
        cfg = logistic_sweep_config(tmp_path, rng)
        cfg.write_text(cfg.read_text() + f"model.intercept = {value}\n")
        assert build_model(load_config(cfg)).dim == 2 + has_intercept

    @pytest.mark.parametrize("value", ["flase", "2", "on", ""])
    def test_other_bool_value_rejected(self, tmp_path, rng, capsys, value):
        # `flase` used to read as False
        cfg = logistic_sweep_config(tmp_path, rng)
        cfg.write_text(cfg.read_text() + f"model.intercept = {value}\n")
        assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 1
        assert capsys.readouterr().err == ("error: config key model.intercept must be "
                                           f"1/0/true/false/yes/no, got {value!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("optimizer.max_iter = 1500", "optimizer.max_iter = 1e4",
         "config key optimizer.max_iter must be an integer, got '1e4'"),
        ("optimizer.window = 300", "optimizer.window = ten",
         "config key optimizer.window must be an integer, got 'ten'"),
        ("divergence = KLD", "divergence = SDb\noptimizer.batch_size = 2.0",
         "config key optimizer.batch_size must be an integer, got '2.0'"),
        ("divergence = KLD", "divergence = KLD\ninit.t_scale = big",
         "config key init.t_scale must be a number, got 'big'"),
    ])
    def test_uncastable_value_names_its_key(self, gaussian_setup, tmp_path, capsys, old,
                                            new, message):
        # these read "invalid literal for int() with base 10: '1e4'"
        cfg, _, _ = gaussian_setup
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["fit", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_names_uncastable_seed(self, gaussian_setup, tmp_path, capsys):
        cfg, _, _ = gaussian_setup
        cfg.write_text(cfg.read_text() + "seed = 1.5\n")
        assert main(["sweep", str(cfg)]) == 1
        assert capsys.readouterr().err == (f"error: {cfg}: config key seed must be an "
                                           "integer, got '1.5'\n")


class TestFitCommand:
    def test_run_writes_artifacts_and_exit_zero(self, gaussian_setup, tmp_path):
        cfg, nu, lamb = gaussian_setup
        out = tmp_path / "out"
        rc = main(["fit", "--config", str(cfg), "--seed", "11", "--out", str(out)])
        assert rc == 0
        assert (out / "fitresult.json").exists()
        assert (out / "lb_trace.csv").exists()
        doc = json.loads((out / "fitresult.json").read_text())
        assert doc["divergence"] == "KLD"
        assert doc["seed"] == 11

    def test_rerun_same_seed_identical_bytes(self, gaussian_setup, tmp_path):
        cfg, _, _ = gaussian_setup
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["fit", "--config", str(cfg), "--seed", "5", "--out", str(out1)]) == 0
        assert main(["fit", "--config", str(cfg), "--seed", "5", "--out", str(out2)]) == 0
        assert (out1 / "fitresult.json").read_bytes() == \
            (out2 / "fitresult.json").read_bytes()

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.kind = gaussian\nmodel.nu_csv = missing_nu.csv\n"
                       "model.lambda_csv = missing_nu.csv\ndivergence = KLD\n")
        rc = main(["fit", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "missing_nu.csv" in capsys.readouterr().err

    def test_bad_divergence_nonzero_exit(self, gaussian_setup, tmp_path, capsys):
        cfg, _, _ = gaussian_setup
        cfg.write_text(cfg.read_text().replace("divergence = KLD", "divergence = KL"))
        rc = main(["fit", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error: divergence must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_prior_variance_checked(self, tmp_path, rng, capsys, value):
        # sigma0_sq = 0 ended in a ZeroDivisionError traceback out of log_h
        cfg = logistic_sweep_config(tmp_path, rng)
        cfg.write_text(cfg.read_text().replace("model.sigma0_sq = 100.0",
                                               f"model.sigma0_sq = {value}"))
        assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 1
        assert capsys.readouterr().err == ("error: sigma0_sq must be finite and positive, "
                                           f"got {float(value)!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which, text, message", [
        ("nu", "0.5\nx\n0\n1\n", "line 2: 'x' is not a finite number"),
        ("nu", "0.5,nan,0,1\n", "line 1: 'nan' is not a finite number"),
        ("nu", "# mean\n0.5\n0\n0\n1\n", "line 1: '# mean' is not a finite number"),
        ("nu", "0.5,1\n0,1\n", "expected a single row or column, got 2 x 2"),
        ("lambda", "1,0\n\n0,1,2\n", "line 3 has 3 fields, line 1 has 2"),
        ("lambda", "1,0\n0, inf\n", "line 2: 'inf' is not a finite number"),
    ])
    def test_bad_matrix_csv_names_path_and_line(self, gaussian_setup, tmp_path, capsys,
                                                which, text, message):
        # a bad cell read "could not convert string 'x' to float64 at row 1,
        # column 1." without the file
        cfg, _, _ = gaussian_setup
        (tmp_path / f"{which}.csv").write_text(text)
        assert main(["fit", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / which}.csv: {message}\n"

    @pytest.mark.parametrize("layout", ["column", "row"])
    def test_nu_from_a_row_or_a_column(self, gaussian_setup, tmp_path, layout):
        cfg, nu, lamb = gaussian_setup
        np.savetxt(tmp_path / "nu.csv", nu[:, None] if layout == "column" else nu[None],
                   delimiter=",")
        (tmp_path / "lambda.csv").write_text(
            "\n\n".join(",".join(repr(float(c)) for c in row) for row in lamb) + "\n")
        model = build_model(load_config(cfg))
        np.testing.assert_array_equal(model.nu, nu)
        np.testing.assert_array_equal(model.lamb, lamb)

    def test_algorithm_1_batch_rejected(self, tmp_path, rng, capsys):
        cfg = logistic_sweep_config(tmp_path, rng)
        cfg.write_text(cfg.read_text() + "optimizer.batch_size = 4\n")
        assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: batch_size must be unset or 1 for SDr, got 4\n"
        assert not (tmp_path / "out").exists()

    def test_unset_batch_echoed_as_fit_echoes_it(self, gaussian_setup, tmp_path, rng):
        # the CLI's echo is fit's: the target's default batch (logistic 3),
        # else 5 (Gaussian), with the config source added
        gauss, _, _ = gaussian_setup
        logit = logistic_sweep_config(tmp_path, rng, max_iter=20)
        for cfg, batch in ((gauss, 5), (logit, 3)):
            text = cfg.read_text()
            cfg.write_text(text.replace("divergence = KLD", "divergence = SDb")
                           .replace("divergence = SDr", "divergence = SDb"))
            out = tmp_path / f"echo_{batch}"
            assert main(["fit", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
            echo = json.loads((out / "fitresult.json").read_text())["config"]
            assert echo.pop("source")["divergence"] == "SDb"
            loaded = load_config(cfg)
            api = fit(build_model(loaded), fit_config_from(loaded, 3)).config_echo
            assert echo == json.loads(json.dumps(api))
            assert echo["batch_size"] == batch

    def test_config_directory_reported(self, tmp_path, capsys):
        # a directory passed the existence check and escaped as IsADirectoryError
        assert main(["fit", "--config", str(tmp_path), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1

    def test_sweep_reports_a_directory_and_runs_the_rest(self, gaussian_setup, tmp_path,
                                                          capsys):
        cfg, _, _ = gaussian_setup
        good, folder = tmp_path / "good.cfg", tmp_path / "configs"
        good.write_text(cfg.read_text())
        folder.mkdir()
        assert main(["sweep", str(folder), str(good)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and str(folder) in err and err.count("\n") == 1
        assert out.startswith(f"{good}: stop=")
        assert (tmp_path / "good_out" / "fitresult.json").exists()

    def test_data_csv_directory_reported(self, tmp_path, rng, capsys):
        cfg = logistic_sweep_config(tmp_path, rng)
        (tmp_path / "rows").mkdir()
        cfg.write_text(cfg.read_text().replace("data.csv", "rows"))
        assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "rows") in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_sweep(self, gaussian_setup, tmp_path):
        cfg, _, _ = gaussian_setup
        text = cfg.read_text() + "seed = 2\noutput_dir = " + \
            str(tmp_path / "sweep_out") + "\n"
        c2 = tmp_path / "run2.cfg"
        c2.write_text(text)
        assert main(["sweep", str(c2), "--workers", "2"]) == 0
        assert (tmp_path / "sweep_out" / "fitresult.json").exists()

    def test_aborted_fit_reported(self, gaussian_setup, tmp_path, capsys):
        # T = 1e-305 I is singular: every step is rejected and the fit aborts
        cfg, _, _ = gaussian_setup
        cfg.write_text(cfg.read_text() + "init.t_scale = 1e-305\n")
        rc = main(["fit", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no step succeeded" in err
        assert "Traceback" not in err

    def test_sweep_names_failing_config(self, gaussian_setup, tmp_path, capsys):
        cfg, _, _ = gaussian_setup
        good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
        good.write_text(cfg.read_text())
        bad.write_text(cfg.read_text() + "init.t_scale = 1e-305\n")
        assert main(["sweep", str(bad), str(good), "--workers", "2"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {bad}: ") and "no step succeeded" in err
        assert out.startswith(f"{good}: stop=")
        assert (tmp_path / "good_out" / "fitresult.json").exists()

    def test_sweep_writes_what_fit_writes_in_config_order(self, gaussian_setup, tmp_path,
                                                          capsys):
        cfg, _, _ = gaussian_setup
        seeds = (7, 3)
        paths = [tmp_path / f"c{k}.cfg" for k in range(len(seeds))]
        for path, seed in zip(paths, seeds):
            path.write_text(cfg.read_text() + f"seed = {seed}\n")

        def outputs(out_dir):
            return [(out_dir / name).read_bytes() for name in ("fitresult.json", "lb_trace.csv")]

        expected = []
        for k, (path, seed) in enumerate(zip(paths, seeds)):
            out = tmp_path / f"fit{k}"
            assert main(["fit", "--config", str(path), "--seed", str(seed),
                         "--out", str(out)]) == 0
            expected.append(outputs(out))
        capsys.readouterr()
        for workers in ([], ["--workers", "1"], ["--workers", "3"]):
            for k in range(len(paths)):
                shutil.rmtree(tmp_path / f"c{k}_out", ignore_errors=True)
            assert main(["sweep", *map(str, paths), *workers]) == 0
            assert multiprocessing.active_children() == []
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == len(paths)
            for k, (path, line) in enumerate(zip(paths, lines)):
                assert line.startswith(f"{path}: stop=")
                assert outputs(tmp_path / f"c{k}_out") == expected[k]

    def test_parallel_sweep_reports_a_failing_config_in_order(self, gaussian_setup, tmp_path,
                                                              capsys):
        # the middle config aborts in a worker; the others run, and every
        # line comes out in config order
        cfg, _, _ = gaussian_setup
        paths = [tmp_path / name for name in ("good0.cfg", "bad.cfg", "good2.cfg")]
        for path, tail in zip(paths, ("seed = 7\n", "init.t_scale = 1e-305\n", "seed = 3\n")):
            path.write_text(cfg.read_text() + tail)
        outputs = {}
        for k, seed in ((0, "7"), (2, "3")):
            out = tmp_path / f"fit{k}"
            assert main(["fit", "--config", str(paths[k]), "--seed", seed, "--out", str(out)]) == 0
            outputs[k] = [(out / name).read_bytes() for name in ("fitresult.json", "lb_trace.csv")]
        capsys.readouterr()
        assert main(["sweep", *map(str, paths), "--workers", "2"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {paths[1]}: ") and "no step succeeded" in err
        assert err.count("\n") == 1
        assert [line.split(": stop=")[0] for line in out.splitlines()] == [str(paths[0]),
                                                                          str(paths[2])]
        for k, name in ((0, "good0_out"), (2, "good2_out")):
            assert [(tmp_path / name / f).read_bytes()
                    for f in ("fitresult.json", "lb_trace.csv")] == outputs[k]
        assert not (tmp_path / "bad_out").exists()
        assert multiprocessing.active_children() == []  # the pool joined its workers

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_rejects_a_second_config_with_the_same_output_dir(
            self, gaussian_setup, tmp_path, capsys, workers):
        # under a pool their writes would race, and fitresult.json and
        # lb_trace.csv could come from different configs
        cfg, _, _ = gaussian_setup
        shared = tmp_path / "shared"
        out_dirs = [shared, tmp_path / "own", tmp_path / "own" / ".." / "shared"]
        paths = [tmp_path / f"c{k}.cfg" for k in range(3)]
        for k, (path, out_dir) in enumerate(zip(paths, out_dirs)):
            path.write_text(cfg.read_text() + f"seed = {k + 1}\noutput_dir = {out_dir}\n")
        assert main(["sweep", *map(str, paths), "--workers", workers]) == 1
        out, err = capsys.readouterr()
        assert err == (f"error: {paths[2]}: output directory {out_dirs[2]} "
                       f"is also that of {paths[0]}\n")
        assert [line.split(": stop=")[0] for line in out.splitlines()] == [str(paths[0]),
                                                                          str(paths[1])]
        assert json.loads((shared / "fitresult.json").read_text())["seed"] == 1

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_unknown_key_rejected_before_fit(self, gaussian_setup, tmp_path, capsys, command):
        cfg, _, _ = gaussian_setup
        cfg.write_text(cfg.read_text() + "optimizer.adadelta_esp = 1e-3\n"
                       "optimiser.window = 7\n")
        out = tmp_path / "run_out"
        argv = (["fit", "--config", str(cfg), "--seed", "1", "--out", str(out)]
                if command == "fit" else ["sweep", str(cfg)])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown config key" in err
        assert "optimizer.adadelta_esp" in err and "optimiser.window" in err
        assert not out.exists()

    def test_sweep_config_keys_accepted(self, tmp_path, rng):
        # the keys of the benchmark's logistic sweep configs, on a numeric
        # design: cells written from Python floats, not numpy scalar reprs
        cfg = logistic_sweep_config(tmp_path, rng)
        assert main(["sweep", str(cfg), "--workers", "2"]) == 0
        doc = json.loads((tmp_path / "out" / "fitresult.json").read_text())
        assert len(doc["mu"]) == 3  # intercept, a, b

    @staticmethod
    def logistic_config(tmp_path, name, rng, tail=""):
        x = rng.standard_normal((40, 2))
        y = (x[:, 0] + rng.standard_normal(40) > 0).astype(int)
        with open(tmp_path / f"{name}.csv", "w") as fh:
            fh.write("a,b,y\n" + "".join(f"{a!r},{b!r},{v}\n"
                                         for (a, b), v in zip(x.tolist(), y)) + tail)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"model.kind = logistic\nmodel.data_csv = {name}.csv\n"
                       "divergence = SDr\noptimizer.max_iter = 100\noptimizer.window = 50\n"
                       f"output_dir = {tmp_path / (name + '_out')}\n")
        return cfg

    @pytest.mark.parametrize("tail, message", [
        ("0.5,1\n", "line 42 has 2 fields, the header has 3"),
        ("0.5,nan,1\n", "column 'b' has the non-finite value 'nan' at line 42"),
    ])
    def test_bad_csv_is_reported_by_fit(self, tmp_path, rng, capsys, tail, message):
        cfg = self.logistic_config(tmp_path, "bad", rng, tail)
        assert main(["fit", "--config", str(cfg), "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'bad.csv'}: {message}\n"
        assert not (tmp_path / "bad_out").exists()

    def test_sweep_reports_ragged_config_and_runs_the_rest(self, tmp_path, rng, capsys):
        paths = [self.logistic_config(tmp_path, "ok1", rng),
                 self.logistic_config(tmp_path, "bad", rng, "0.5,1\n"),
                 self.logistic_config(tmp_path, "ok2", rng)]
        assert main(["sweep", *map(str, paths)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {paths[1]}: {tmp_path / 'bad.csv'}: "
                                "line 42 has 2 fields, the header has 3\n")
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [str(paths[0]), str(paths[2])]
        for name in ("ok1", "ok2"):
            assert (tmp_path / f"{name}_out" / "fitresult.json").exists()
        assert not (tmp_path / "bad_out").exists()

    def test_compare_replicates_below_two_rejected(self, gaussian_setup, tmp_path, capsys):
        cfg, nu, _ = gaussian_setup
        np.savetxt(tmp_path / "ref.csv", np.zeros((1000, nu.size)), delimiter=",",
                   header=",".join(f"v{i}" for i in range(nu.size)), comments="")
        cfg.write_text(cfg.read_text() + "compare.ref_csv = ref.csv\ncompare.replicates = 1\n")
        out = tmp_path / "o"
        assert main(["fit", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "compare.replicates" in err
        assert not (out / "comparison.json").exists() and not out.exists()


def write_panel(path, dataset, rng, n_subjects=8, drop=None):
    """A panel CSV of n_subjects with 4 visits each, in the columns of a recipe."""
    rows = []
    for sid in range(1, n_subjects + 1):
        trt, age, base = sid % 2, int(rng.integers(18, 60)), int(rng.integers(5, 100))
        for j in range(4):
            if dataset == "epilepsy":
                rows.append({"id": sid, "y": int(rng.poisson(3)), "visit": j + 1,
                             "base": base, "trt": trt, "age": age})
            elif dataset == "toenail":
                rows.append({"id": sid, "y": int(rng.random() < 0.4), "trt": trt,
                             "time": 3 * j})
            else:
                rows.append({"id": sid, "y": int(rng.random() < 0.4), "gender": sid % 2,
                             "race": sid // 2 % 2, "age": age,
                             "mhv": int(rng.integers(0, 25)), "inptmhv": j % 2})
    names = [n for n in rows[0] if n != drop]
    path.write_text("".join(",".join(str(r[n]) for n in names) + "\n"
                            for r in [dict(zip(names, names)), *rows]))


class TestGlmmConfigs:
    @staticmethod
    def glmm_config(tmp_path, rng, dataset, variant=None, drop=None):
        write_panel(tmp_path / "panel.csv", dataset, rng, drop=drop)
        cfg = tmp_path / "glmm.cfg"
        cfg.write_text(f"model.kind = glmm\nmodel.dataset = {dataset}\n"
                       + (f"model.variant = {variant}\n" if variant else "")
                       + "model.data_csv = panel.csv\ndivergence = SDb\n"
                       "optimizer.max_iter = 50\noptimizer.window = 10\n")
        return cfg

    @pytest.mark.parametrize("dataset, variant, dim", [
        # 8 subjects x r random effects, p fixed effects, r(r+1)/2 for W
        ("epilepsy", "epi1", 8 + 6 + 1), ("epilepsy", "epi2", 16 + 6 + 3),
        ("toenail", None, 8 + 4 + 1), ("polypharmacy", None, 8 + 8 + 1),
    ])
    def test_fit_runs_each_recipe(self, tmp_path, rng, capsys, dataset, variant, dim):
        cfg = self.glmm_config(tmp_path, rng, dataset, variant)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {out / 'fitresult.json'}")
        doc = json.loads((out / "fitresult.json").read_text())
        assert len(doc["mu"]) == dim and np.all(np.isfinite(doc["mu"]))
        assert 0 < doc["iterations"] <= 50
        assert (out / "lb_trace.csv").exists()

    @pytest.mark.parametrize("dataset, drop", [
        ("epilepsy", "visit"), ("epilepsy", "id"), ("toenail", "time"), ("polypharmacy", "y"),
    ])
    def test_recipe_csv_missing_column_reported(self, tmp_path, rng, capsys, dataset, drop):
        # a missing column escaped `fit` as a KeyError traceback
        cfg = self.glmm_config(tmp_path, rng, dataset, drop=drop)
        out = tmp_path / "out"
        assert main(["fit", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'panel.csv'}: "
                                           f"missing column {drop!r}\n")
        assert not out.exists()


class TestCompareCommand:
    def test_compare_outputs(self, gaussian_setup, tmp_path, rng):
        cfg, nu, lamb = gaussian_setup
        out = tmp_path / "fitout"
        main(["fit", "--config", str(cfg), "--seed", "4", "--out", str(out)])
        cov = np.linalg.inv(lamb)
        draws = nu + rng.standard_normal((1500, nu.size)) @ np.linalg.cholesky(cov).T
        ref = tmp_path / "ref.csv"
        with open(ref, "w") as fh:
            fh.write(",".join(f"v{i}" for i in range(nu.size)) + "\n")
            np.savetxt(fh, draws, delimiter=",")
        cmp_out = tmp_path / "cmp"
        rc = main(["compare", "--fit", str(out / "fitresult.json"),
                   "--ref", str(ref), "--seed", "3", "--replicates", "4",
                   "--out", str(cmp_out), ])
        assert rc == 0
        report = json.loads((cmp_out / "comparison.json").read_text())
        assert len(report["mstar_values"]) == 4
        assert (cmp_out / "comparison.csv").exists()

    def test_singular_factor_reported(self, gaussian_setup, tmp_path, rng, capsys):
        # a stored T whose first diagonal entry is below SINGULAR_TOL cannot
        # be solved; compare reports that instead of a traceback
        cfg, nu, _ = gaussian_setup
        out = tmp_path / "fitout"
        assert main(["fit", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
        doc = json.loads((out / "fitresult.json").read_text())
        pattern = SparsityPattern.from_descriptor(doc["pattern"])
        t_values = np.asarray(doc["t_values"])
        t_values[pattern.diag_slots[0]] = 1e-310
        t_values[(pattern.rows == 1) & (pattern.cols == 0)] = 1.0
        doc["t_values"] = t_values.tolist()
        (out / "fitresult.json").write_text(json.dumps(doc))
        ref = tmp_path / "ref.csv"
        np.savetxt(ref, rng.standard_normal((1500, nu.size)), delimiter=",",
                   header=",".join(f"v{i}" for i in range(nu.size)), comments="")
        capsys.readouterr()
        rc = main(["compare", "--fit", str(out / "fitresult.json"), "--ref", str(ref),
                   "--seed", "3", "--replicates", "2", "--out", str(tmp_path / "cmp")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: factor diagonal below")

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: doc.pop("pattern"), "pattern"),
        (lambda doc: doc.pop("mu"), "mu"),
        (lambda doc: doc["pattern"].pop("block_dims"), "pattern"),
        (lambda doc: doc["mu"].pop(), "mu"),
        (lambda doc: doc["t_values"].append(0.5), "t_values"),
        (lambda doc: doc["t_values"].__setitem__(1, float("nan")), "t_values"),
        (lambda doc: doc["mu"].__setitem__(0, float("inf")), "mu"),
        (lambda doc: doc.__setitem__("mu", "zeros"), "mu"),
    ])
    def test_bad_fitresult_is_one_error_line(self, gaussian_setup, tmp_path, capsys, edit, key):
        # a document without "pattern" escaped as a KeyError traceback
        cfg, _, _ = gaussian_setup
        out = tmp_path / "fitout"
        assert main(["fit", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
        path = out / "fitresult.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["compare", "--fit", str(path), "--ref", "ref.csv", "--seed", "3",
                   "--out", str(tmp_path / "cmp")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and f"'{key}'" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("text", ["{", "[1, 2]", "\xff"])
    def test_fitresult_that_is_no_json_object_reported(self, tmp_path, capsys, text):
        path = tmp_path / "fitresult.json"
        path.write_bytes(text.encode("latin-1"))
        rc = main(["compare", "--fit", str(path), "--ref", "ref.csv", "--seed", "3",
                   "--out", str(tmp_path / "cmp")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


class TestAnalysisCommands:
    def test_meanfield_command(self, tmp_path):
        lamb = np.array([[1.0, 0.5], [0.5, 1.0]])
        np.savetxt(tmp_path / "lam.csv", lamb, delimiter=",")
        out = tmp_path / "mf"
        rc = main(["meanfield", "--lambda-csv", str(tmp_path / "lam.csv"),
                   "--out", str(out), "--region-sweep", "--region-step", "0.5"])
        assert rc == 0
        lines = (out / "meanfield.csv").read_text().splitlines()
        assert lines[0] == "divergence,coordinate,sigma,kkt_case"
        assert len(lines) == 1 + 3 * 2
        assert (out / "sd_fd_regions.csv").read_text().splitlines()[0] == "a,b,c,case"

    def test_meanfield_bad_lambda_cell_names_line(self, tmp_path, capsys):
        (tmp_path / "lam.csv").write_text("1,0.5\n0.5,one\n")
        rc = main(["meanfield", "--lambda-csv", str(tmp_path / "lam.csv"),
                   "--out", str(tmp_path / "mf")])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'lam.csv'}: line 2: "
                                           "'one' is not a finite number\n")

    def test_packaged_reference_matches_loadtxt(self):
        # the d=49 files read to the floats np.loadtxt gave, bit for bit
        import importlib.resources

        base = importlib.resources.files("fishervi") / "_refdata"
        nu, lamb = load_reference_precision()
        for got, name in ((nu, "ref_mean_d49.csv"), (lamb, "ref_precision_d49.csv")):
            want = np.loadtxt(str(base / name), delimiter=",")
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_unilab_command(self, tmp_path):
        out = tmp_path / "uni"
        rc = main(["unilab", "--target", "log_inv_gamma", "--param", "a1=3.0",
                   "--param", "b1=20.0", "--out", str(out)])
        assert rc == 0
        lines = (out / "unilab.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 4  # three divergences, four metrics

    @pytest.mark.parametrize("target, params, named", [
        ("student_t", ["mu=3"], "nu"),
        ("skew_normal", [], "m, t, lam"),
        ("log_inv_gamma", ["a1=3"], "a1, b1"),
    ])
    def test_unilab_wrong_params_name_the_targets(self, target, params, named,
                                                  tmp_path, capsys):
        # an error line naming the target's parameters and status 1, not a TypeError
        out = tmp_path / "uni"
        argv = ["unilab", "--target", target, "--out", str(out)]
        for kv in params:
            argv += ["--param", kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target} takes parameters {named}")
        assert not out.exists()

    @pytest.mark.parametrize("target, params", [
        ("student_t", ["nu=nan"]),
        ("student_t", ["nu=inf"]),
        ("student_t", ["nu=-inf"]),
        ("log_inv_gamma", ["a1=nan", "b1=20"]),
        ("log_inv_gamma", ["a1=3", "b1=inf"]),
        ("skew_normal", ["m=nan", "t=1", "lam=2"]),
        ("skew_normal", ["m=0", "t=inf", "lam=2"]),
        ("skew_normal", ["m=0", "t=1", "lam=-inf"]),
    ])
    def test_unilab_non_finite_params_rejected(self, target, params, tmp_path, capsys):
        # rejected when the target is built: an error line and status 1, not a
        # RuntimeError from eight failed starts
        out = tmp_path / "uni"
        argv = ["unilab", "--target", target, "--out", str(out)]
        for kv in params:
            argv += ["--param", kv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("item", ["nu", "nu=", "nu=abc", "=3"])
    def test_unilab_malformed_param_is_usage_error(self, item, tmp_path, capsys):
        out = tmp_path / "uni"
        with pytest.raises(SystemExit) as exc:
            main(["unilab", "--target", "student_t", "--param", item, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fishervi ")
        assert f"argument --param: expected key=<number>, got '{item}'" in err
        assert not out.exists()

    def test_unilab_choices_and_dispatch_share_one_table(self):
        from fishervi import unilab
        from fishervi.cli import make_parser

        sub = next(a for a in make_parser()._actions if a.dest == "command")
        target = next(a for a in sub.choices["unilab"]._actions if a.dest == "target")
        assert list(target.choices) == list(unilab.TARGETS) == [
            "student_t", "log_inv_gamma", "skew_normal"]

    def test_recursion_command(self, tmp_path):
        out = tmp_path / "rec"
        rc = main(["recursion", "--dim", "3", "--beta", "0.8", "--t-max", "60",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        lines = (out / "recursion.csv").read_text().splitlines()
        assert len(lines) == 62  # header + t = 0..60
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] < 1e-3  # eps norm nearly gone after 60 steps

    def test_gradvar_command(self, tmp_path):
        out = tmp_path / "gv"
        rc = main(["gradvar", "--draws", "60", "--out", str(out), "--seed", "1"])
        assert rc == 0
        lines = (out / "gradient_sd.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 49

    @pytest.mark.parametrize("flag, value", [
        ("--region-step", "0"), ("--region-step", "-0.5"), ("--region-step", "2.5"),
        ("--t-max", "0"), ("--dim", "0"), ("--draws", "1"), ("--replicates", "1"),
        ("--workers", "0"), ("--workers", "-1"),
    ])
    def test_numeric_flag_out_of_range_is_usage_error(self, flag, value, tmp_path, capsys):
        # rejected by argparse before any work: exit status 2, usage, no output dir
        command = {
            "--region-step": ["meanfield", "--lambda-csv", "lam.csv", "--region-sweep"],
            "--t-max": ["recursion"],
            "--dim": ["recursion"],
            "--draws": ["gradvar"],
            "--replicates": ["compare", "--fit", "fit.json", "--ref", "ref.csv", "--seed", "1"],
            "--workers": ["sweep", "run.cfg"],
        }[flag]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, value, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fishervi ")
        assert f"argument {flag}: must be " in err
        assert not out.exists()
