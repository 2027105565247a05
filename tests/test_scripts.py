"""The experiment scripts under ``scripts/`` run end to end on a tiny grid.

Each script's ``main`` runs in-process under the virtual clock, so a cell
costs one kernel call per batch and the timings are deterministic.
"""

import importlib.util
import os

import pytest

from sparsemm_helpers import SRC
from sparsemm.bench import CLOCK_OVERRIDE_ENV, parse_csv

SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def virtual_clock(monkeypatch):
    monkeypatch.setenv(CLOCK_OVERRIDE_ENV, "0.7")


def test_fill_sweep_reports_every_size(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["--sizes", "8:16:x2", "--min-seconds", "0.1", "--trials", "1", "--csv", str(out)]
    assert load_script("fill_sweep").main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows if row and row[0].isdigit()] == ["8", "16"]
    records = parse_csv(out.read_text())
    assert sorted((r.n, r.strategy) for r in records) == [
        (8, "combined"), (8, "minmax"), (16, "combined"), (16, "minmax")]


def test_kernel_compare_reports_the_rate_ratio(tmp_path, capsys):
    out = tmp_path / "compare.csv"
    argv = ["--size", "16", "--min-seconds", "0.1", "--trials", "1", "--csv", str(out)]
    assert load_script("kernel_compare").main(argv) == 0
    assert "rowmajor / classic rate ratio at n=16" in capsys.readouterr().out
    records = parse_csv(out.read_text())
    assert sorted(r.kernel for r in records) == ["classic", "colmajor", "mixed", "rowmajor"]
