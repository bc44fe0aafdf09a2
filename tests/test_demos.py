"""Every script in demos/ runs to completion. Each runs in a scratch working
directory, since some write their output files there."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    # the reference optimum and the variance bound report their own checks
    assert "converged: False" not in out and "holds: False" not in out
