"""The experiment scripts under ``scripts/`` run end to end on a tiny grid,
and reject numbers outside their range as usage errors.

Each script's ``main`` runs in-process with ``--min-seconds 0 --trials 1``,
so a cell costs one warm-up call and one timed one-call batch.
"""

import importlib.util
import os

import pytest

from sparsemm_helpers import SRC
from sparsemm.bench import parse_csv

SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fill_sweep_reports_every_size(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["--sizes", "8:16:x2", "--min-seconds", "0", "--trials", "1", "--csv", str(out)]
    assert load_script("fill_sweep").main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows if row and row[0].isdigit()] == ["8", "16"]
    records = parse_csv(out.read_text())
    assert sorted((r.n, r.strategy) for r in records) == [
        (8, "combined"), (8, "minmax"), (16, "combined"), (16, "minmax")]


def test_kernel_compare_reports_the_rate_ratio(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    argv = ["--size", "16", "--min-seconds", "0", "--trials", "1", "--csv", str(out)]
    assert load_script("kernel_compare").main(argv) == 0
    assert "rowmajor / classic rate ratio at n=16" in capsys.readouterr().out
    records = parse_csv(out.read_text())
    assert sorted(r.kernel for r in records) == ["classic", "colmajor", "mixed", "rowmajor"]


@pytest.mark.parametrize("script, argv, message", [
    ("fill_sweep", ["--fill", "2"], "argument --fill: need 0 < fill <= 1, got '2'"),
    ("fill_sweep", ["--trials", "0"], "argument --trials: must be at least 1, got '0'"),
    ("fill_sweep", ["--min-seconds", "inf"],
     "argument --min-seconds: need a finite number >= 0, got 'inf'"),
    ("kernel_compare", ["--trials", "0"], "argument --trials: must be at least 1, got '0'"),
    ("kernel_compare", ["--size", "0"], "argument --size: must be at least 1, got '0'"),
    ("kernel_compare", ["--min-seconds", "-1"],
     "argument --min-seconds: need a finite number >= 0, got '-1'"),
])
def test_bad_number_is_a_usage_error(script, argv, message, monkeypatch, capsys):
    module = load_script(script)
    monkeypatch.setattr(module, "run_grid", None)  # must not be reached
    with pytest.raises(SystemExit) as exit_info:
        module.main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f": error: {message}")
    assert "Traceback" not in err
