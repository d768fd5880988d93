"""Make the benchmark's modules and the simulator importable.

Run from the repository root (tier-1 does not collect this directory)::

    python -m pytest -q benchmarks/e2e/tests
"""

import os
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

for path in (str(ROOT / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)

# the golden test's native runs use the benchmark's own primed cache
os.environ.setdefault("REPRO_NATIVE_CACHE", str(E2E / ".cache"))
