"""Self-test of the benchmark at tiny sizes; runs in seconds.

    python3 -m pytest bench -q
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from sparse_gen import rcv1_like  # noqa: E402

TINY_DATA = {"dense-b32": {"n": 240, "d": 8},
             "sparse-l1": {"n": 240, "d": 60, "nnz_per_row": 6},
             "fixed-step-sweep": {"n": 240, "d": 4}}


@pytest.fixture
def tiny(monkeypatch):
    """Every workload shrunk to a couple of hundred rows, one repetition."""
    small = {name: dict(w, data=dict(w["data"], **TINY_DATA[name]))
             for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", small)
    monkeypatch.setattr(run, "MIN_DATASETS", 1)
    return small


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(tiny, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        assert any(line.split()[:1] == [metric] and line.endswith(unit)
                   for line in out[:-1]), metric
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in m.items()
                     if k.endswith(".self_s")) + m["unattributed_s"]
        assert layers == pytest.approx(m["trace.wall_s"], rel=1e-9)
        if name == "dense-b32":
            # 4 solvers x 2 run seeds x 7 epochs x ceil(192 rows / b = 32)
            assert m["solvers.inner_steps"] == 336
            assert m["line_search.evals"] >= m["line_search.calls"] >= 336
        if name == "sparse-l1":
            assert m["data.bytes_parsed"] > 0


def test_doctored_trace_counts_as_failed(tiny, monkeypatch, tmp_path):
    import saag
    import saag.cli
    for hooked in ("split_train_test", "emit_csv"):
        monkeypatch.setattr(saag.cli, hooked, getattr(saag.cli, hooked))
    probe = worker.CommandProbe(saag.cli)
    w = tiny["dense-b32"]
    argv, _ = run.build_inputs("dense-b32", w, seed=5, k=0)
    assert saag.cli.main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
    rows, _ = saag.read_csv(probe.csv_path)

    def failed(traces, rows):
        ops, _ = worker.evaluate(traces, rows, probe.n_train, w["target"], 0)
        return sum(not ok for _, ok in ops)

    assert failed(probe.traces, rows) == 0
    wrong_grads = copy.deepcopy(rows)
    wrong_grads[2]["grads_over_n"] += 1.0
    assert failed(probe.traces, wrong_grads) >= 1
    marked = copy.deepcopy(probe.traces)
    marked[0].failure = "non-finite direction"
    assert failed(marked, rows) >= 1


def test_sparse_generator_is_a_function_of_its_seed(tmp_path):
    a, b, c = (tmp_path / f for f in ("a", "b", "c"))
    stats = rcv1_like(a, 50, 40, 5, seed=1)
    assert rcv1_like(b, 50, 40, 5, seed=1) == stats
    rcv1_like(c, 50, 40, 5, seed=2)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    assert stats["bytes"] == len(a.read_bytes())
    assert stats["nnz"] == sum(len(line.split()) - 1
                               for line in a.read_text().splitlines())


def test_fails_without_a_source_tree(tmp_path):
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "bench" / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-b32", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
