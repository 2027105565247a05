"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, from the root of a source checkout.

Imports sparsemm from the checkout's ``src`` and nowhere else, and exits
with an error before measuring anything when that source is missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "sparsemm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sparsemm source under {SRC}")
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    from perfbench.report import main

    sys.exit(main())
