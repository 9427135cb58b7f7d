"""Process set-up shared by the benchmark entry points and its tests.

Caps the BLAS/OpenMP thread pools before numpy is imported and puts the
checkout's ``src`` directory first on ``sys.path``, so the benchmark always
measures the source tree it sits in, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: threads per BLAS/OpenMP pool; the matrices here are at most 20 x 20, so
#: extra threads only add scheduling noise
THREAD_CAP = 1

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout has no ``src/ellcauchy`` package to benchmark."""


def prepare():
    """Cap thread pools and make ``import ellcauchy`` resolve to ``src``."""
    for var in _THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    if not (SRC / "ellcauchy" / "__init__.py").is_file():
        raise MissingSource(f"no ellcauchy package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ellcauchy

    if Path(ellcauchy.__file__).resolve().parent != SRC / "ellcauchy":
        raise MissingSource(f"ellcauchy imported from {ellcauchy.__file__}, not {SRC}")
