"""Time one cold set-up in a fresh interpreter: import hcal from the
checkout and load the given input files (``.csv`` datasets, anything else
a map file).  Prints the elapsed seconds.

    python3 perfbench/setup_probe.py train.csv test.csv [input.hcal]
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

start = time.perf_counter()
from hcal import dataset, maps  # noqa: E402

for arg in sys.argv[1:]:
    if arg.endswith(".csv"):
        dataset.load_dataset(arg)
    else:
        maps.load_map(arg)
elapsed = time.perf_counter() - start

if not Path(dataset.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported hcal from {dataset.__file__}, not from {SRC}")
print(repr(elapsed))
