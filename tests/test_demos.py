"""Smoke tests: the demos run and print what they promise."""

import pathlib
import re
import runpy

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_coupling_demo(capsys):
    runpy.run_path(str(DEMOS / "coupling_demo.py"), run_name="__main__")
    out = capsys.readouterr().out
    freq = re.search(r"divergence frequency (\d\.\d{5})", out)
    tv = re.search(r"exact TV distance +(\d\.\d{5})", out)
    assert freq and tv, out
    # 20000 probes: the frequency sits within a few standard errors of TV
    assert abs(float(freq[1]) - float(tv[1])) < 0.01


def test_verify_bounds_demo(capsys):
    runpy.run_path(str(DEMOS / "verify_bounds.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "341 bound evaluations:" in out
    assert "  holds: 318\n  inconclusive: 23\n  violated: 0" in out
    assert out.rstrip().endswith("no violations.")


def _printed(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_avalanche_basics_demo(capsys):
    lines = _printed("avalanche_basics.py", capsys)
    assert "  E(T): MC 7.554 +/- 0.058  exact 7.575" in lines
    means = [re.fullmatch(r"  E\([TS]\): MC (\S+) \+/- (\S+)  exact (\S+)",
                          line) for line in lines]
    means = [[float(v) for v in m.groups()] for m in means if m]
    assert len(means) == 6   # E(T) and E(S) at three intensities
    for mc, se, exact in means:
        assert abs(mc - exact) < 5 * se, (mc, se, exact)


def test_branching_limit_demo(capsys):
    assert "  mu = 2.0: alpha = 0.203188" in _printed("branching_limit.py",
                                                      capsys)


def test_exact_analytics_demo(capsys):
    assert "  3.630432539627067438169885986553563396638 ..." in _printed(
        "exact_analytics.py", capsys)


def test_mean_field_demo(capsys):
    assert "  a = 0.80000: nu = 0.45342, chi = 0.16629, zeta = nan" \
        in _printed("mean_field.py", capsys)
