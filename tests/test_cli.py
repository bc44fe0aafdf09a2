import os
import subprocess
import sys

import numpy as np
import pytest

from saag.cli import (ExperimentConfig, UsageError, _build_config,
                      build_parser, canonical_synthetic, echo_config, main,
                      parse_config_text, parse_synthetic_spec)
from saag.harness import read_csv


def test_synthetic_spec_parsing():
    kw = parse_synthetic_spec("n=200,d=10")
    assert kw == {"n": 200, "d": 10, "flip": 0.0, "margin": 0.0, "seed": 0}
    assert canonical_synthetic("n=200,d=10") == "n=200,d=10,flip=0.0,margin=0.0,seed=0"
    # an empty component is skipped
    assert parse_synthetic_spec("n=200,,d=10") == kw
    with pytest.raises(UsageError):
        parse_synthetic_spec("n=200")
    with pytest.raises(UsageError):
        parse_synthetic_spec("n=200,d=10,bogus=1")


def test_config_text_roundtrip():
    cfg = ExperimentConfig(synthetic="n=20,d=4,flip=0.0,margin=0.0,seed=0",
                           solvers=("saag4", "svrg"), seeds=(0, 1), b=4)
    values = parse_config_text("\n".join(echo_config(cfg)))
    assert ExperimentConfig(**values) == cfg
    with pytest.raises(UsageError):
        parse_config_text("bogus_key = 3")
    with pytest.raises(UsageError):
        parse_config_text("just a line")
    # note: lines and comments are skipped
    assert parse_config_text("# comment\nnote: whatever\n") == {}


def test_config_text_keeps_a_hash_inside_a_value():
    # only a line starting with '#' is a comment: paths holding '#' round-trip
    cfg = ExperimentConfig(dataset="data#2.svm", out="x#1.csv")
    assert ExperimentConfig(**parse_config_text("\n".join(echo_config(cfg)))) == cfg
    assert parse_config_text("  # indented comment\nb = 8\n") == {"b": 8}


def test_defaults_match_benchmark_protocol():
    lines = echo_config(ExperimentConfig())
    for expected in ("alpha = 0.1", "shrink = 0.5", "eta0 = 1.0",
                     "max_backtracks = 10", "l2 = 1e-05", "l1 = 0.0",
                     "train_fraction = 0.8", "b = 32"):
        assert expected in lines


def test_run_smoke_row_count(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["run", "--synthetic", "n=60,d=5", "--solvers", "saag4",
                 "--b", "8", "--epochs", "5", "--l2", "1e-2",
                 "--out", str(out)])
    assert code == 0
    rows, metadata = read_csv(out)
    assert len(rows) == 6  # S + 1 trace points
    assert rows[0]["epoch"] == 0
    assert any(line.startswith("solvers = ") for line in metadata)
    assert "wrote" in capsys.readouterr().out


def test_run_multi_solver_and_seed_cardinality(tmp_path):
    out = tmp_path / "multi.csv"
    code = main(["run", "--synthetic", "n=40,d=4", "--solvers", "saag3,svrg",
                 "--seeds", "0,1", "--b", "4", "--epochs", "2",
                 "--out", str(out)])
    assert code == 0
    rows, _ = read_csv(out)
    assert len(rows) == 4 * 3
    combos = {(r["solver"], r["seed"]) for r in rows}
    assert combos == {("saag3", 0), ("saag3", 1), ("svrg", 0), ("svrg", 1)}


def _fresh_interpreter(code):
    """The stdout of ``python -c code`` in a new interpreter; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_multiprocessing_unloaded():
    # only a command with --workers > 1 needs the process pool, and only
    # saag verify runs saag.verify (which imports fractions, and with it
    # decimal); saag.verify is still registered, like every module
    out = _fresh_interpreter(
        "import sys, saag, saag.cli; "
        "loaded = {'multiprocessing', 'fractions', 'decimal'} & set(sys.modules); "
        "assert not loaded, loaded; "
        "assert 'saag.verify' in sys.modules; "
        "sys.exit(saag.cli.main(['verify']))")
    assert "PASS  bias-identity" in out


def test_package_namespace_is_its_modules_and_read_csv():
    # each public name is bound in its module only; saag.read_csv stays
    # for the benchmark, which reads its CSVs through it
    out = _fresh_interpreter(
        "import saag, saag.cli; "
        "print(*sorted(n for n in vars(saag) if not n.startswith('_')))")
    assert out.split() == ["cli", "data", "estimators", "harness", "line_search",
                           "objective", "read_csv", "solvers", "verify"]


def test_run_help_lists_every_synthetic_key(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert "n=..,d=..[,flip=..][,margin=..][,seed=..]" in capsys.readouterr().out


def serial_and_pooled(tmp_path, monkeypatch, argv):
    """The CSV rows and metadata of ``argv`` run serially and on 2 workers,
    wall time and the workers echo aside, and the parts the pool mapped."""
    import concurrent.futures
    parts = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables):
            iterables = [list(it) for it in iterables]
            parts.append(len(iterables[0]))
            return super().map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    out, tables = tmp_path / "workers.csv", []
    for workers in ("1", "2"):
        assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
        rows, metadata = read_csv(out)
        for row in rows:
            del row["wall_seconds"]
        tables.append((rows, [m for m in metadata if not m.startswith("workers")]))
    return tables, parts


def test_run_with_two_workers_writes_the_same_csv(tmp_path, monkeypatch):
    argv = ["run", "--synthetic", "n=40,d=4", "--solvers", "saag1,saag4,svrg",
            "--seeds", "0,1", "--b", "4", "--epochs", "2"]
    (serial, pooled), parts = serial_and_pooled(tmp_path, monkeypatch, argv)
    assert serial == pooled
    # one group of every seed's runs, split by seed between the workers
    assert parts == [2]


def test_one_group_on_two_workers_is_split_between_them(tmp_path, monkeypatch):
    # every run of a lambda sweep at one seed shares its batches: one group,
    # split round-robin between both workers, writes the serial CSV
    argv = ["sweep", "--axis", "lambda", "--l1", "1e-3", "--synthetic", "n=40,d=4",
            "--solvers", "saag4,svrg", "--b", "4", "--epochs", "2"]
    (serial, pooled), parts = serial_and_pooled(tmp_path, monkeypatch, argv)
    assert serial == pooled
    assert parts == [2]


def test_unknown_solver_is_usage_error(capsys):
    code = main(["run", "--synthetic", "n=20,d=3", "--solvers", "sagmark"])
    assert code == 2
    err = capsys.readouterr().err
    assert "sagmark" in err and "saag4" in err


@pytest.mark.parametrize("eta", ["-0.1", "0", "nan"])
def test_bad_fixed_step_is_an_error(tmp_path, capsys, eta):
    # a step that cannot move w would give runs with F = ln 2 in every row
    out = tmp_path / "run.csv"
    code = main(["run", "--synthetic", "n=20,d=3", "--solvers", "gd",
                 "--epochs", "1", "--fixed-eta", eta, "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "0", "epochs must be >= 1"),
    ("--seeds", "-1", "seed must be non-negative"),
    ("--max-backtracks", "0", "max_backtracks must be >= 1"),
    ("--l1", "nan", "finite"),
    ("--eta0", "nan", "eta0 must be finite"),
])
def test_bad_run_parameters_fail_before_any_reference(tmp_path, monkeypatch,
                                                      capsys, flag, value, message):
    import saag.solvers as solvers
    calls = []
    reference, run = solvers.reference_optimum, solvers.run
    monkeypatch.setattr(solvers, "reference_optimum", lambda spec, best: (
        calls.append(spec) or reference(spec, best)))
    monkeypatch.setattr(solvers, "run", lambda configs, **kw: (
        calls.extend(configs) or run(configs, **kw)))
    out = tmp_path / "run.csv"
    code = main(["run", "--synthetic", "n=40,d=4", "--solvers", "saag4,svrg",
                 "--epochs", "2", flag, value, "--out", str(out)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_label_only_file_fails_before_any_solver(tmp_path, monkeypatch, capsys):
    import saag.solvers as solvers
    calls = []
    run = solvers.run
    monkeypatch.setattr(solvers, "run", lambda configs, **kw: (
        calls.extend(configs) or run(configs, **kw)))
    path, out = tmp_path / "labels.svm", tmp_path / "run.csv"
    path.write_text("+1\n-1\n+1\n-1\n+1\n")
    code = main(["run", "--dataset", str(path), "--epochs", "1", "--b", "2",
                 "--out", str(out)])
    assert code == 1
    assert "a dataset needs at least one feature (d >= 1)" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("args", [
    "run --l1 -1e-3", "run --eta0 -1e0", "run --fixed-eta -5e-2",
    "run --seeds -1,2", "sweep --axis lambda --values -1e-3",
])
def test_negative_value_reaches_its_reader_in_either_spelling(tmp_path, capsys,
                                                              args):
    *command, flag, value = args.split()
    out = tmp_path / "neg.csv"

    def outcome(*spelling):
        try:
            code = main(command + ["--synthetic", "n=40,d=4", "--epochs", "1",
                                   *spelling, "--out", str(out)])
        except SystemExit as exit_info:
            code = exit_info.code
        return code, capsys.readouterr().err

    code, err = outcome(flag, value)
    assert (code, err) == outcome(f"{flag}={value}")
    # the reader's check (exit 1), not argparse's (exit 2)
    assert code == 1 and err.startswith("error: ")
    assert not out.exists()


def test_flag_after_a_flag_is_no_value(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--synthetic", "n=40,d=4", "--l1", "--l2", "3"])
    assert exit_info.value.code == 2
    assert "argument --l1: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--solvers", "", "empty comma list"),
    ("--seeds", ",", "empty comma list"),
    ("--solvers", "saag1,saag1", "repeated value"),
    ("--seeds", "0,0", "repeated value"),
    ("--workers", "0", "workers must be >= 1"),
    ("--solvers", "saag4,sagmark", "unknown solver 'sagmark'; valid kinds: saag1,"),
    ("--loss", "hinge", "unknown loss 'hinge'; valid: logistic, squared_hinge,"),
    # text that does not parse as its option's value
    ("--seeds", "x", "invalid literal for int()"),
    ("--b", "abc", "invalid literal for int()"),
    ("--fixed-eta", "abc", "could not convert string to float"),
    ("--synthetic", "n=abc,d=3", "invalid literal for int()"),
    ("--values", "abc", "could not convert string to float"),
])
def test_bad_lists_and_workers_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                flag, value, message):
    import saag.cli as cli
    import saag.solvers as solvers
    calls = []
    monkeypatch.setattr(cli, "split_train_test", lambda *a: calls.append(a))
    monkeypatch.setattr(solvers, "reference_optimum", lambda *a: calls.append(a))
    out = tmp_path / "run.csv"
    command = ["sweep", "--axis", "batch"] if flag == "--values" else ["run"]
    code = main(command + ["--synthetic", "n=40,d=4", "--epochs", "2",
                           flag, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    # a value its option's reader rejects is named by the flag
    assert f"usage error: {flag}: {message}" in err
    assert calls == []
    assert not out.exists()


def test_every_option_is_a_flag_with_its_echoed_value():
    config = ExperimentConfig(
        dataset="data.svm", synthetic="n=20,d=4,flip=0.1,margin=0.5,seed=3",
        solvers=("saag1", "gd"), loss="squared_hinge", l1=1e-3, l2=1e-4, b=8,
        epochs=3, seeds=(2, 5), eta0=2.0, alpha=0.2, shrink=0.7,
        max_backtracks=4, fixed_eta=0.05, out="x.csv", workers=2,
        train_fraction=0.5, split_seed=7)
    default = ExperimentConfig()
    argv = ["run"]
    for line in echo_config(config):
        name, value = line.split(" = ", 1)
        assert getattr(config, name) != getattr(default, name), name
        argv += ["--" + name.replace("_", "-"), value]
    assert _build_config(build_parser().parse_args(argv)) == config


def test_solver_prefix_runs_one_job(tmp_path, monkeypatch):
    # argparse takes any unique prefix of a flag: --solver is --solvers
    import saag.solvers as solvers
    calls = []
    run = solvers.run
    monkeypatch.setattr(solvers, "run", lambda configs, **kw: (
        calls.extend((c.solver, c.seed) for c in configs)
        or run(configs, **kw)))
    assert main(["run", "--solver", "saag4", "--synthetic", "n=30,d=3",
                 "--epochs", "1", "--out", str(tmp_path / "one.csv")]) == 0
    assert calls == [("saag4", 0)]


def test_missing_data_source_is_usage_error(capsys):
    assert main(["run", "--solvers", "saag4"]) == 2
    assert "dataset" in capsys.readouterr().err


def test_dataset_file_loading(tmp_path):
    data = tmp_path / "toy.libsvm"
    rng = np.random.default_rng(0)
    lines = []
    for i in range(30):
        feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in
                         enumerate(rng.standard_normal(4)))
        lines.append(("+1 " if rng.random() < 0.5 else "-1 ") + feats)
    data.write_text("\n".join(lines))
    out = tmp_path / "file.csv"
    code = main(["run", "--dataset", str(data), "--solvers", "gd",
                 "--epochs", "2", "--out", str(out)])
    assert code == 0
    rows, _ = read_csv(out)
    assert len(rows) == 3


def test_non_finite_dataset_file_is_an_error(tmp_path, capsys):
    # a NaN or infinite value is refused at its line, before any solver
    # runs or any CSV is written
    data = tmp_path / "bad.svm"
    data.write_text("+1 1:1 2:2\n-1 1:0.5\n+1 2:1\n-1 1:nan 2:1\n"
                    "+1 1:1 2:inf\n-1 2:3\n")
    out = tmp_path / "bad.csv"
    code = main(["run", "--dataset", str(data), "--out", str(out)])
    assert code == 1
    assert "line 4: non-finite value '1:nan'" in capsys.readouterr().err
    assert not out.exists()


def test_run_above_dense_limit_writes_csv(tmp_path, monkeypatch):
    # the reference optimum of a training set too large to densify takes
    # CSR passes, so the command still finishes and writes its CSV
    from saag.data import Dataset

    def f_star(out):
        note = next(ln for ln in read_csv(out)[1] if ln.startswith("note: f_star"))
        return float(note.split()[3])

    args = ["run", "--synthetic", "n=50,d=6", "--solvers", "saag4",
            "--b", "8", "--epochs", "2", "--l2", "1e-2"]
    dense_out, csr_out = tmp_path / "dense.csv", tmp_path / "csr.csv"
    assert main(args + ["--out", str(dense_out)]) == 0
    monkeypatch.setattr(Dataset, "DENSE_LIMIT", 100)    # train n*d = 240
    assert main(args + ["--out", str(csr_out)]) == 0
    assert len(read_csv(csr_out)[0]) == 3
    assert abs(f_star(csr_out) - f_star(dense_out)) <= 1e-10 * f_star(dense_out)


def test_config_echo_reproduces_run(tmp_path):
    out1 = tmp_path / "a.csv"
    args = ["run", "--synthetic", "n=40,d=4", "--solvers", "saag3,saag4",
            "--b", "4", "--epochs", "3", "--l2", "1e-3", "--out", str(out1)]
    assert main(args) == 0
    rows1, metadata = read_csv(out1)
    config_lines = [ln for ln in metadata if not ln.startswith("note:")]
    cfg_file = tmp_path / "echo.cfg"
    cfg_file.write_text("\n".join(config_lines))
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg_file), "--out", str(out2)]) == 0
    rows2, _ = read_csv(out2)
    assert len(rows1) == len(rows2)
    for r1, r2 in zip(rows1, rows2):
        for key in ("solver", "seed", "epoch", "grads_over_n", "objective",
                    "suboptimality", "test_accuracy"):
            assert r1[key] == r2[key] or (
                np.isnan(r1[key]) and np.isnan(r2[key]))


def test_identical_invocations_are_bit_identical_minus_wall(tmp_path):
    outs = []
    for name in ("x.csv", "y.csv"):
        out = tmp_path / name
        main(["run", "--synthetic", "n=40,d=4", "--solvers", "vrsgd",
              "--b", "4", "--epochs", "3", "--out", str(out)])
        rows, _ = read_csv(out)
        outs.append(rows)
    for r1, r2 in zip(*outs):
        scrubbed1 = {k: v for k, v in r1.items() if k != "wall_seconds"}
        scrubbed2 = {k: v for k, v in r2.items() if k != "wall_seconds"}
        for key in scrubbed1:
            v1, v2 = scrubbed1[key], scrubbed2[key]
            assert v1 == v2 or (isinstance(v1, float) and np.isnan(v1)
                                and np.isnan(v2))


def test_reruns_on_two_blas_threads_are_bit_identical_minus_wall(tmp_path):
    # fresh interpreters, so the thread count reaches BLAS before it loads
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    tables = []
    for name in ("x.csv", "y.csv"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "saag.cli", "run", "--synthetic",
                        "n=400,d=50,flip=0.05", "--solvers", "saag4,svrg",
                        "--b", "32", "--epochs", "3", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        rows, metadata = read_csv(out)
        for row in rows:
            del row["wall_seconds"]
        tables.append((rows, [m for m in metadata if not m.startswith("out")]))
    assert len(tables[0][0]) == 8
    assert tables[0] == tables[1]


def test_sweep_batch_cardinality(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--axis", "batch", "--values", "4,8",
                 "--synthetic", "n=40,d=4", "--solvers", "saag4,svrg",
                 "--epochs", "2", "--out", str(out)])
    assert code == 0
    rows, _ = read_csv(out)
    combos = {(r["solver"], r["batch"]) for r in rows}
    assert len(combos) == 4  # 2 values x 2 solvers
    header = out.read_text().splitlines()
    header = [ln for ln in header if not ln.startswith("#")][0]
    assert header.startswith("solver,seed,batch,epoch,")


def test_sweep_lambda_default_grid(tmp_path):
    out = tmp_path / "lam.csv"
    code = main(["sweep", "--axis", "lambda", "--synthetic", "n=30,d=3",
                 "--solvers", "svrg", "--b", "4", "--epochs", "1",
                 "--out", str(out)])
    assert code == 0
    rows, metadata = read_csv(out)
    lambdas = {float(r["lambda"]) for r in rows}
    assert lambdas == {1e-3, 1e-5, 1e-7}
    assert any("sweep axis = lambda" in ln for ln in metadata)


@pytest.mark.parametrize("values", ["1.5,7.9", "4,nan", "inf"])
def test_non_integral_batch_values_are_usage_errors(tmp_path, monkeypatch,
                                                    capsys, values):
    import saag.solvers as solvers
    calls = []
    monkeypatch.setattr(solvers, "reference_optimum", lambda *a: calls.append(a))
    out = tmp_path / "b.csv"
    code = main(["sweep", "--axis", "batch", "--values", values,
                 "--synthetic", "n=30,d=3", "--solvers", "saag1",
                 "--epochs", "1", "--out", str(out)])
    assert code == 2
    assert "batch sizes must be whole numbers" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_repeated_synthetic_key_is_usage_error(tmp_path, capsys):
    with pytest.raises(UsageError, match="repeated synthetic spec key 'n'"):
        parse_synthetic_spec("n=40,n=20,d=3")
    out = tmp_path / "run.csv"
    argv = ["run", "--solvers", "saag4", "--epochs", "1", "--out", str(out)]
    assert main(argv + ["--synthetic", "n=40,n=20,d=3"]) == 2
    assert "repeated synthetic spec key 'n'" in capsys.readouterr().err
    config = tmp_path / "c.txt"
    config.write_text("synthetic = n=40,d=3,seed=1,seed=2\n")
    assert main(argv + ["--config", str(config)]) == 2
    assert "repeated synthetic spec key 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_file_value_names_its_line(tmp_path, capsys):
    config = tmp_path / "c.txt"
    out = tmp_path / "run.csv"
    for line, message in [("seeds = 0,x", "invalid literal for int()"),
                          ("solvers = sagmark", "unknown solver 'sagmark'"),
                          ("loss = hinge", "unknown loss 'hinge'"),
                          ("workers = 0", "workers must be >= 1")]:
        config.write_text(f"synthetic = n=40,d=4\n{line}\n")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert f"usage error: config line 2: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_empty_values_is_usage_error(capsys):
    code = main(["sweep", "--axis", "batch", "--values", "",
                 "--synthetic", "n=30,d=3"])
    assert code == 2
    assert "empty" in capsys.readouterr().err


def test_verify_default_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in ("gradient-fd", "prox-oracle", "bias-identity",
                 "unbiasedness", "variance-bound", "rate-constants"):
        assert f"PASS  {name}" in out


def test_verify_detects_injected_scale_bug(capsys):
    assert main(["verify", "--inject-scale-bug"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  bias-identity" in out


def test_verify_skips_enumeration_above_cap(capsys):
    assert main(["verify", "--synthetic", "n=80,d=4"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out and "bias-identity" not in out


def test_verify_writes_report_csv(tmp_path):
    out = tmp_path / "checks.csv"
    assert main(["verify", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,passed,detail"
    names = {ln.split(",")[0] for ln in lines[1:]}
    assert {"gradient-fd", "prox-oracle", "bias-identity", "variance-bound",
            "rate-constants"} <= names
    # above the enumeration cap, one skipped row with an empty passed cell
    assert main(["verify", "--synthetic", "n=80,d=4", "--out", str(out)]) == 0
    assert [ln.split(",")[:2] for ln in out.read_text().splitlines()] == [
        ["check", "passed"], ["gradient-fd", "True"], ["prox-oracle", "True"],
        ["enumeration", ""], ["rate-constants", "True"]]
    assert "enumeration,,skipped: n = 80 exceeds cap 64" in out.read_text()


@pytest.mark.parametrize("args", [
    ["--synthetic", "n=80,d=4", "--l1", "nan"],
    ["--synthetic", "n=80,d=4", "--l1", "-5"],
    ["--l1", "-5"],
    ["--l1", "inf"],
    ["--l2", "-0.5"],
])
def test_verify_rejects_a_bad_lambda_before_any_suite(monkeypatch, capsys, args):
    import saag.verify as verify
    calls = []
    monkeypatch.setattr(verify, "gradient_check", lambda *a: calls.append(a))
    assert main(["verify", *args]) == 1
    out, err = capsys.readouterr()
    assert "regularization coefficients must be finite and >= 0" in err
    assert out == ""
    assert calls == []


@pytest.mark.parametrize("flag, value", [
    ("--config", "c.txt"), ("--dataset", "/nonexistent.svm"),
    ("--solvers", "saag4"), ("--b", "3"), ("--epochs", "0"), ("--seeds", "1"),
    ("--eta0", "2"), ("--alpha", "0.2"), ("--shrink", "0.3"),
    ("--max-backtracks", "4"), ("--fixed-eta", "0.05"), ("--workers", "0"),
    ("--train-fraction", "0.5"), ("--split-seed", "1"), ("--ref-budget", "9"),
])
def test_verify_rejects_options_it_does_not_read(monkeypatch, capsys, flag, value):
    import saag.verify
    calls = []
    monkeypatch.setattr(saag.verify, "run_suites", lambda *a: calls.append(a))
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", flag, value])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert calls == []


DIVERGING = ["run", "--synthetic", "n=20,d=3", "--solvers", "sgd", "--loss", "least_squares",
             "--l2", "0", "--b", "20", "--epochs", "300", "--fixed-eta", "1e8"]


def test_run_flushes_partial_results_on_failure(tmp_path, capsys):
    out = tmp_path / "fail.csv"
    code = main(DIVERGING + ["--out", str(out)])
    assert code == 1
    assert out.exists()
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_a_diverging_run_warns_nothing_and_reports_its_failure(tmp_path, capsys):
    # with warnings as errors, a run whose iterate overflows still ends in
    # its failure marker and exit 1: neither its steps nor the metrics of
    # its diverging iterate report an overflow or an invalid operation
    out = tmp_path / "fail.csv"
    assert main(DIVERGING + ["--out", str(out)]) == 1
    assert "FAILED: sgd: non-finite direction at epoch 38, inner step 38" in \
        capsys.readouterr().out
    assert out.exists()


def test_run_equals_a_one_point_batch_sweep(tmp_path):
    common = ["--synthetic", "n=40,d=4,flip=0.1", "--solvers", "saag3,svrg,gd",
              "--seeds", "0,1", "--epochs", "3"]
    run_out, sweep_out = tmp_path / "run.csv", tmp_path / "sweep.csv"
    assert main(["run", "--b", "8", "--out", str(run_out)] + common) == 0
    assert main(["sweep", "--axis", "batch", "--values", "8",
                 "--out", str(sweep_out)] + common) == 0

    def scrub(rows, drop):
        return [{k: v for k, v in r.items() if k not in drop} for r in rows]

    run_rows, sweep_rows = read_csv(run_out)[0], read_csv(sweep_out)[0]
    assert {r["batch"] for r in sweep_rows} == {"8"}
    assert scrub(run_rows, {"wall_seconds"}) == \
        scrub(sweep_rows, {"wall_seconds", "batch"})


def test_lambda_sweep_notes_one_f_star_per_value(tmp_path):
    out = tmp_path / "lam.csv"
    assert main(["sweep", "--axis", "lambda", "--values", "1e-2,1e-4",
                 "--synthetic", "n=30,d=3", "--solvers", "svrg,saag4",
                 "--b", "4", "--epochs", "2", "--l1", "1e-3",
                 "--out", str(out)]) == 0
    rows, metadata = read_csv(out)
    notes = [ln for ln in metadata if ln.startswith("note: f_star")]
    assert len(notes) == 2
    for note, value in zip(notes, ("0.01", "0.0001")):
        assert f"(lambda = {value}, reference converged: True, iterations: " in note
        assert int(note.rsplit(" ", 1)[1].rstrip(")")) >= 1
        f_star = float(note.split()[3])
        picked = [r for r in rows if r["lambda"] == value]
        # the certified bound, a plain float, 1e-6 of the smallest gap at most
        bound = float(note.split()[5])
        assert 0.0 < bound <= 1e-6 * min(r["suboptimality"] for r in picked)
        implied = [r["objective"] - r["suboptimality"] for r in picked]
        scale = max(r["objective"] for r in picked)
        assert max(abs(f - f_star) for f in implied) <= 1e-12 * scale
    assert "note: n_train = 24, n_test = 6, d = 3" in metadata


def test_sweep_values_note_keeps_its_text(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["sweep", "--axis", "batch", "--values", "256,1,16,16",
                 "--synthetic", "n=400,d=3", "--solvers", "sgd",
                 "--epochs", "1", "--out", str(out)]) == 0
    rows, metadata = read_csv(out)
    assert "note: sweep axis = batch, values = [1, 16, 256]" in metadata
    assert {r["batch"] for r in rows} == {"1", "16", "256"}
    small = tmp_path / "s.csv"
    assert main(["sweep", "--axis", "batch", "--values", "1,16,256",
                 "--synthetic", "n=30,d=3", "--solvers", "sgd",
                 "--epochs", "1", "--out", str(small)]) == 0
    assert "note: sweep axis = batch, values = [1, 16, 24]" in read_csv(small)[1]
    lam = tmp_path / "l.csv"
    assert main(["sweep", "--axis", "lambda", "--values", "1e-2,1e-4",
                 "--synthetic", "n=30,d=3", "--solvers", "sgd",
                 "--epochs", "1", "--out", str(lam)]) == 0
    assert "note: sweep axis = lambda, values = [0.01, 0.0001]" in read_csv(lam)[1]


def test_repeated_lambda_values_are_one_point(tmp_path, capsys):
    # 1e-3 and 0.001 are one value: one trace, one f_star note, first-seen order
    out = tmp_path / "lam.csv"
    assert main(["sweep", "--axis", "lambda", "--values", "1e-3,0.001,1e-5,1e-3",
                 "--synthetic", "n=40,d=4", "--solvers", "saag4",
                 "--epochs", "2", "--out", str(out)]) == 0
    rows, metadata = read_csv(out)
    assert [r["lambda"] for r in rows] == ["0.001"] * 3 + ["1e-05"] * 3
    assert "note: sweep axis = lambda, values = [0.001, 1e-05]" in metadata
    assert len([ln for ln in metadata if ln.startswith("note: f_star")]) == 2
    assert "(2 traces over lambda grid [0.001, 1e-05])" in capsys.readouterr().out
    one = tmp_path / "one.csv"
    assert main(["sweep", "--axis", "lambda", "--values", "1e-3,0.001",
                 "--synthetic", "n=40,d=4", "--solvers", "saag4",
                 "--epochs", "2", "--out", str(one)]) == 0
    rows, metadata = read_csv(one)
    assert len(rows) == 3
    assert "note: sweep axis = lambda, values = [0.001]" in metadata


def test_batch_sweep_runs_gd_once_per_seed(tmp_path, monkeypatch):
    # gd steps on every row whatever b is, so a batch sweep runs it once per
    # seed and copies the trace to the other batch values
    import saag.solvers as solvers
    calls = []
    run = solvers.run
    monkeypatch.setattr(solvers, "run", lambda configs, **kw: (
        calls.extend((c.solver, c.batch_size) for c in configs)
        or run(configs, **kw)))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--axis", "batch", "--values", "1,8,24",
                 "--synthetic", "n=30,d=3,flip=0.1", "--solvers", "gd,saag1",
                 "--seeds", "0,1", "--epochs", "2", "--out", str(out)])
    assert code == 0
    assert [kind for kind, _ in calls].count("gd") == 2
    assert all(b == 24 for kind, b in calls if kind == "gd")
    assert sorted(b for kind, b in calls if kind == "saag1") == [1, 1, 8, 8, 24, 24]
    rows, _ = read_csv(out)
    gd = {}
    for r in rows:
        if r["solver"] == "gd":
            gd.setdefault(r["batch"], []).append(
                {k: v for k, v in r.items() if k != "batch"})
    assert sorted(gd) == ["1", "24", "8"]
    assert gd["1"] == gd["8"] == gd["24"]
    # each copy is its own run in the output: 2 seeds x 3 epochs per value
    assert len(gd["1"]) == 6
    # a gd run's batch is every training row, whatever --b asks
    calls.clear()
    assert main(["run", "--synthetic", "n=30,d=3,flip=0.1", "--solvers", "gd",
                 "--b", "8", "--epochs", "1", "--out", str(tmp_path / "gd.csv")]) == 0
    assert calls == [("gd", 24)]
