"""Puts the checkout's ``src`` first on ``sys.path`` before any test module
is collected; the shared helpers live in ``sparsemm_helpers``.

Hypothesis reports a failing example through ``hypothesis.extra._patching``,
whose import of libcst warns that ``mypy_extensions.TypedDict`` is
deprecated. Under the suite's warnings-as-errors that warning, raised inside
a pytest hook, would end the session with the remaining tests unrun, so the
module is imported once here with that one import's deprecation warnings
ignored. The filters in force for the tests are untouched."""

import warnings

import sparsemm_helpers  # noqa: F401

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis reports without the patch
        pass
