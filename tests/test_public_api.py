"""The package's exported names: every one in ``__all__`` is importable
from ``sparsemm`` and listed once."""

import sparsemm


def test_every_exported_name_is_importable():
    namespace = {}
    exec(f"from sparsemm import {', '.join(sparsemm.__all__)}", namespace)
    assert all(namespace[name] is getattr(sparsemm, name) for name in sparsemm.__all__)


def test_exported_names_are_unique():
    assert len(sparsemm.__all__) == len(set(sparsemm.__all__))


def test_per_row_reference_is_exported():
    assert "rowmajor_reference" in sparsemm.__all__
