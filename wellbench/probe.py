"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is ``import doublewell`` plus generating and parsing the first
pass of a workload.  ``run.py`` starts this script several times per run
and reports the median, because import time is only measurable once per
process.

Usage: python3 wellbench/probe.py <workload> <seed>
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import doublewell  # noqa: E402
from workloads import pass_texts  # noqa: E402

texts = pass_texts(sys.argv[1], int(sys.argv[2]), 0,
                   HERE.parent / "src" / "doublewell" / "scenarios")
scenarios = [doublewell.parse_scenario_text(text, name=name) for name, text in texts]
print(time.perf_counter() - t0)
