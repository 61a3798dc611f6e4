"""The serving-path benchmark: ``python -m bench`` (see ``bench/README.md``).

One load-generator process drives the public serving API of ``repro`` —
open-loop on the stream's own clock or closed-loop in 200-event batches —
checks the outputs, and prints every metric named in ``BENCHMARK.json``.
Later changes may not edit this package, so it touches the program only
through the import surface listed in the README.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

# The program lives in a src layout; make `python -m bench` work from a
# clean checkout without PYTHONPATH.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
