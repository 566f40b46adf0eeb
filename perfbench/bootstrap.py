"""Environment shared by the benchmark's entry points.

The benchmark measures the package in the checkout it sits in, so the
`src/` directory next to `perfbench/` goes first on the import path.  BLAS
and OpenMP pools are pinned to one thread before numpy is imported: the load
is one process, and a numpy kernel must not borrow a second core unnoticed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import racebarrier from this checkout's sources, or exit with an error."""
    init = SRC / "racebarrier" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: package sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import racebarrier

    if Path(racebarrier.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {racebarrier.__file__}, expected {init}")
    return racebarrier
