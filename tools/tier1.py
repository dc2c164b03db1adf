#!/usr/bin/env python3
"""Run the tier-1 test suite and check that its one known failure is the
only one.

    python3 tools/tier1.py

Runs ROADMAP.md's tier-1 command from the repository root,

    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \\
        --continue-on-collection-errors

printing pytest's output as it comes, and reads the FAILED and ERROR
lines of its short summary.  ``test_criterion_04_size_limit_and_correction``
fails by design: it checks a published second-order size correction,
2.0, where exact solves give 17/6 (README, Tests).  The exit status is
0 when that test is the only failure, and 1 when any other test fails
or errors (each is listed), when criterion 4 does not fail (flagged:
its expectation here is then stale), or when pytest itself stops with
a status other than 0 or 1.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN = "tests/test_acceptance.py::test_criterion_04_size_limit_and_correction"


def failures(lines) -> list[str]:
    """The test ids of the FAILED and ERROR lines in pytest's short
    test summary, in order."""
    out, summary = [], False
    for line in lines:
        summary = summary or "short test summary info" in line
        word, _, rest = line.partition(" ")
        if summary and word in ("FAILED", "ERROR"):
            out.append(rest.split(" - ", 1)[0].strip())
    return out


def verdict(failed: list[str], status: int) -> tuple[int, list[str]]:
    """(exit status, messages) for the failed ids and pytest's status."""
    others = [name for name in failed if name != KNOWN]
    messages = [f"unexpected failure: {name}" for name in others]
    if KNOWN not in failed:
        messages.append(f"{KNOWN} did not fail: it is expected to, so "
                        f"this check is stale")
    if status not in (0, 1):
        messages.append(f"pytest stopped with status {status}")
    if messages:
        return 1, messages
    return 0, [f"only the known failure: {KNOWN}"]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ("src", env.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stdout:
        sys.stdout.write(line)
        lines.append(line)
    code, messages = verdict(failures(lines), proc.wait())
    for message in messages:
        print(f"tier1: {message}")
    return code


if __name__ == "__main__":
    sys.exit(main())
