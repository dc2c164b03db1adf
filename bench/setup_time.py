"""Print the program's set-up time for one workload, in seconds.

Set-up is what a user pays before the first call does any work:
importing the package and its CLI, parsing the workload's command
line into a configuration, and the mean-field tables (`deterministic`)
for three intensities.  Run from the repository root:

    python3 bench/setup_time.py simulate --n 10000 --c 0.8
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from avalanche import cli, harness  # noqa: E402

config = cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:]))
if config.c is not None or config.p is not None:
    config.model()
for lam in (0.5, 1.0, 1.8):
    harness.cmd_deterministic(dataclasses.replace(config, lam=lam))
print(time.perf_counter() - T0)
