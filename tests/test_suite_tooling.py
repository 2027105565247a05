"""The test suite's own set-up, run as pytest sessions in a subprocess, and
the conventions its tests keep."""

import ast
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PYPROJECT = os.path.join(os.path.dirname(TESTS), "pyproject.toml")

_ONE_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


@pytest.mark.parametrize("extra", [[], ["-W", "error"]], ids=["ini", "ini+W-error"])
def test_a_failing_property_leaves_the_session_running(tmp_path, extra):
    # The suite's conftest is loaded as a plugin, and pyproject.toml gives
    # the ini's filterwarnings = ["error"]; CI adds -W error on top.
    module = tmp_path / "test_one_failing_property.py"
    module.write_text(_ONE_FAILING_PROPERTY)
    env = dict(os.environ, PYTHONPATH=TESTS + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", PYPROJECT, "-p", "conftest",
         "-p", "no:cacheprovider", *extra, str(module)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
    assert proc.returncode == 1


# private kernel functions that no test replaces to see which path ran:
# KernelStats.blocks records it
_SPIED = frozenset({"_run_blocks", "_take_rows", "_distinct", "_nonzero", "_diagonals"})


def _names(node) -> list:
    """The names a dotted expression or string spells, last first:
    ``kernels_module._Plan.compress`` gives compress, _Plan, ..."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[::-1]
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return names + ([node.id] if isinstance(node, ast.Name) else [])


def _spies(tree) -> list:
    """(line, what) of each way a test spies on the block kernel: a subclass
    of the plan, ``_Plan``, a replaced ``_Plan`` method, its values step
    ``execute`` included, or a replaced block driver ``_run_blocks``,
    ``_take_rows``, ``_distinct``, ``_nonzero`` or ``_diagonals``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found += [(node.lineno, "subclasses _Plan")
                      for base in node.bases if _names(base)[:1] == ["_Plan"]]
        targets = []  # each replaced name, last first
        if isinstance(node, ast.Call) and _names(node.func)[:1] == ["setattr"] and node.args:
            target = _names(node.args[0])
            if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                target = [str(node.args[1].value)] + target
            targets.append(target)
        if isinstance(node, ast.Assign):
            targets += [_names(t) for t in node.targets if isinstance(t, ast.Attribute)]
        for target in targets:
            if "_Plan" in target[1:2]:
                found.append((node.lineno, f"replaces _Plan.{target[0]}"))
            elif target[:1] and target[0] in _SPIED:
                found.append((node.lineno, f"replaces {target[0]}"))
    return found


def test_no_test_spies_on_the_block_kernel():
    spies = []
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            spies += [f"{name}:{line}: {what}" for line, what in _spies(tree)]
    assert spies == []


@pytest.mark.parametrize("source, what", [
    ("class Recording(kernels_module._Plan): pass", "subclasses _Plan"),
    ("monkeypatch.setattr(kernels_module._Plan, 'compress', f)", "replaces _Plan.compress"),
    ("monkeypatch.setattr('sparsemm.kernels._Plan._from_pairs', f)",
     "replaces _Plan._from_pairs"),
    ("kernels_module._Plan.compress = f", "replaces _Plan.compress"),
    ("monkeypatch.setattr(kernels_module._Plan, 'execute', f)", "replaces _Plan.execute"),
    ("kernels_module._Plan.__init__ = f", "replaces _Plan.__init__"),
    ("monkeypatch.setattr(kernels_module, '_run_blocks', f)", "replaces _run_blocks"),
    ("monkeypatch.setattr(kernels_module, '_take_rows', f)", "replaces _take_rows"),
    ("patch.setattr('sparsemm.kernels._distinct', f)", "replaces _distinct"),
    ("setattr(kernels, '_nonzero', f)", "replaces _nonzero"),
    ("kernels_module._diagonals = f", "replaces _diagonals"),
])
def test_the_spy_guard_finds_each_kind(source, what):
    assert [w for _, w in _spies(ast.parse(source))] == [what]


def test_the_spy_guard_passes_inputs_and_other_fault_injection():
    # the block limits are inputs; _clear, CsrBuilder and _row_choices are
    # checked or faulted on purpose
    source = "\n".join([
        "monkeypatch.setattr(kernels_module, 'BLOCK_SLOTS', 8)",
        "patch.setattr(kernels_module, 'BLOCK_PRODUCTS', 7)",
        "monkeypatch.setattr(kernels_module, '_clear', checking)",
        "monkeypatch.setattr(kernels_module, 'CsrBuilder', RecordingBuilder)",
        "monkeypatch.setattr(kernels_module, '_row_choices', flipped)",
        "blocks = kernels_module._Plan(a, b, strategy)",
        "blocks.execute(a.values, b.values)",
        "stats.blocks[0] = stats.blocks[0]._replace(mechanism='sort')",
    ])
    assert _spies(ast.parse(source)) == []
