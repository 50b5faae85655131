"""One set-up of the benchmark in a fresh interpreter: import atsclab from this
checkout's `src/` and build the arterial network, then print the monotonic
clock. The caller reads the clock before starting this process, so the
difference is the set-up time from process start to the first workload call.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from atsclab import cli, harness  # noqa: E402,F401  (the imports are the set-up)
from atsclab.roadnet import build_arterial_network  # noqa: E402

build_arterial_network(harness.ScenarioConfig().geometry)
print(repr(time.monotonic()))
