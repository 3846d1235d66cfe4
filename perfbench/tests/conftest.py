"""Put the benchmark's modules and the program's sources on the path."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
CHECKOUT = BENCH.parent

for path in (BENCH, CHECKOUT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
