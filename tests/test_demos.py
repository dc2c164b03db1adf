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
