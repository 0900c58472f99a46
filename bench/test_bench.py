"""Tests of the benchmark itself; run with ``python -m pytest bench``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from checks import check_coverage, parse_config
from run import BenchError, _load_reference
from tracer import _union_length

HERE = Path(__file__).resolve().parent


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_reference_check_catches_a_wrong_answer():
    ref = json.loads((HERE / "reference" / "coverage-desk.json").read_text())
    cfg = parse_config(ref["config"])
    text = ref["outputs"]["1"]
    assert check_coverage(text, cfg, ref=text) == ([], 0)
    header, first, *rest = text.splitlines()
    cols = first.split(",")
    cols[5] = "%.17g" % (float(cols[5]) * (1 + 1e-3))  # mean_half_width
    wrong = "\n".join([header, ",".join(cols), *rest]) + "\n"
    problems, _ = check_coverage(wrong, cfg, ref=text)
    assert problems and "mean_half_width" in problems[0]


def test_a_reference_for_another_config_is_an_error():
    with pytest.raises(BenchError, match="another config"):
        _load_reference("coverage-desk", "kind = coverage\nreplicates = 3\n")


def test_union_length_merges_overlaps():
    assert _union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]) == 4.0
