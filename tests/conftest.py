"""Puts the checkout's ``src`` first on ``sys.path`` before any test module
is collected; the shared helpers live in ``sparsemm_helpers``."""

import sparsemm_helpers  # noqa: F401
