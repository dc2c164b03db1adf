"""`tools/tier1.py`: the tier-1 verdict read from pytest's short summary."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tier1():
    spec = importlib.util.spec_from_file_location(
        "tier1", ROOT / "tools" / "tier1.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SUMMARY = """\
FAILED tests/test_x.py::test_printed_before_the_summary - not read
==================== short test summary info =====================
FAILED tests/test_acceptance.py::test_criterion_04_size_limit_and_correction \
- AssertionError
{extra}1 failed, 662 passed in 53.90s
"""


def test_the_known_failure_alone_passes():
    tier1 = _tier1()
    failed = tier1.failures(SUMMARY.format(extra="").splitlines())
    assert failed == [tier1.KNOWN]
    assert tier1.verdict(failed, 1)[0] == 0


def test_any_other_failure_or_error_is_listed():
    tier1 = _tier1()
    extra = ("FAILED tests/test_exact.py::TestSurvival::test_m[0.5] - x\n"
             "ERROR tests/test_broken.py\n")
    failed = tier1.failures(SUMMARY.format(extra=extra).splitlines())
    code, messages = tier1.verdict(failed, 1)
    assert code == 1
    assert messages == [
        "unexpected failure: tests/test_exact.py::TestSurvival::test_m[0.5]",
        "unexpected failure: tests/test_broken.py"]


def test_criterion_4_passing_is_flagged():
    tier1 = _tier1()
    code, messages = tier1.verdict([], 0)
    assert code == 1 and "did not fail" in messages[0]


def test_pytest_stopping_is_a_failure():
    tier1 = _tier1()
    assert tier1.verdict([tier1.KNOWN], 2)[0] == 1
