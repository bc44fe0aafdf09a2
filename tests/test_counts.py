"""Per-epoch work counts of the solvers, pinned exactly.

Each command below is a ~1 s run shaped like one benchmark workload, or one
of the two backtracking-heavy ``ladder`` commands. Its in-memory traces
must give the per-epoch line-search evaluations (``fevals``) and
``grads_over_n`` in ``counts.json``, bit for bit, and its CSV's ``f_star``
note the reference optimum's ``converged`` flag and products
(``iterations``). Objectives are not pinned, so a kernel rewrite at the ULP
level stays possible; a change that moves a count on purpose regenerates the
file with

    PYTHONPATH=src python tests/test_counts.py

and names the algorithmic change that moved it.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from saag import cli, read_csv

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "counts.json"

# the sparse workloads' files come from the benchmark's generator
SPARSE = {"sparse-l1": (1000, 800, 8, 11), "ladder_sparse": (200, 300, 5, 0)}

COMMANDS = {
    "dense-b32": ["run", "--synthetic", "n=1000,d=50,flip=0.05,seed=11",
                  "--solvers", "saag3,saag4,svrg,vrsgd", "--b", "32",
                  "--l2", "1e-5", "--epochs", "7", "--seeds", "0,1"],
    "sparse-l1": ["run", "--b", "128", "--l1", "1e-3", "--l2", "1e-5",
                  "--epochs", "5", "--seeds", "0,1,2"],
    "fixed-step-sweep": ["sweep", "--axis", "batch", "--values", "1,16,256",
                         "--fixed-eta", "0.05", "--solvers", "saag1,saag2,gd,sgd",
                         "--l2", "1e-5", "--synthetic", "n=1000,d=5,flip=0.05,seed=11",
                         "--epochs", "10"],
    "ladder": ["run", "--synthetic", "n=60,d=5", "--solvers", "saag2,svrg,saag1",
               "--b", "7", "--eta0", "50", "--shrink", "0.3", "--max-backtracks", "4"],
    "ladder_sparse": ["run", "--solvers", "saag2,svrg,saag1", "--b", "7",
                      "--eta0", "50", "--shrink", "0.3", "--max-backtracks", "4"],
}


def _rcv1_like():
    spec = importlib.util.spec_from_file_location(
        "sparse_gen", HERE.parent / "bench" / "sparse_gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.rcv1_like


def command_counts(name, tmp_path):
    """Each trace of command ``name`` as its solver, seed, sweep value and
    per-epoch counts, in the CSV's row order, then each ``f_star`` note's
    reference ``converged`` flag and products."""
    argv = list(COMMANDS[name])
    if name in SPARSE:
        path = tmp_path / f"{name}.svm"
        _rcv1_like()(str(path), *SPARSE[name])
        argv += ["--dataset", str(path)]
    out = tmp_path / f"{name}.csv"
    seen = []
    real = cli.emit_csv

    def keep(traces, out, **kw):
        seen.extend(traces)
        return real(traces, out, **kw)

    cli.emit_csv = keep
    try:
        assert cli.main(argv + ["--out", str(out)]) == 0
    finally:
        cli.emit_csv = real
    traces = [{"solver": t.solver, "seed": t.seed, "extra": t.extra,
               "fevals": [p.fevals for p in t.points],
               "grads_over_n": [p.grads_over_n for p in t.points]}
              for t in sorted(seen, key=lambda t: (t.solver, t.seed,
                                                   sorted(t.extra.items())))]
    # "... (reference converged: True, iterations: 63)"
    notes = [m for m in read_csv(out)[1] if m.startswith("note: f_star")]
    return traces + [{"reference_converged": "converged: True," in note,
                      "reference_iterations": int(note.rstrip(")").split()[-1])}
                     for note in notes]


@pytest.mark.parametrize("name", COMMANDS)
def test_counts_match_the_golden_file(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    assert command_counts(name, tmp_path) == golden


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        counts = {name: command_counts(name, pathlib.Path(tmp)) for name in COMMANDS}
    # one line per trace
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(t)}" for t in traces)
        + "\n ]" for name, traces in counts.items()) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
