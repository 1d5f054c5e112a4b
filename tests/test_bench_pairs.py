"""The verdict rule of scripts/bench_pairs.py on synthetic runs."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_script():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = _load_script().verdict

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
# a tail read from a few fresh interpreters: one stall moves it by 20-40 %,
# so the interquartile range, 0.0325, is wider than 0.25 of the median 0.10
TAIL = [0.09, 0.10, 0.13, 0.09, 0.12, 0.10, 0.14, 0.09, 0.11, 0.10]


@pytest.mark.parametrize("parent,change,better,bound,want", [
    # nine of ten pairs won, medians 0.2 apart against an IQR of 0.04
    (PARENT, [0.80] * 9 + [1.05], "lower", 0.25, "gain"),
    # the same medians with eight wins is no gain
    (PARENT, [0.80] * 8 + [1.05] * 2, "lower", 0.25, "within bound"),
    # ties count for neither side
    (PARENT, [0.80] * 8 + PARENT[8:], "lower", 0.25, "within bound"),
    (PARENT, [1.30] * 10, "lower", 0.25, "worse"),
    (PARENT, [1.20] * 10, "lower", 0.25, "within bound"),
    # higher is better: a ratio that falls by more than the bound
    ([0.95] * 10, [0.85] * 10, "higher", 0.05, "worse"),
    ([0.95] * 10, [0.93] * 10, "higher", 0.05, "within bound"),
    ([0.80] * 10, [0.95] * 10, "higher", 0.05, "gain"),
    # identical code against itself: the spread hides any change
    (TAIL, TAIL[5:] + TAIL[:5], "lower", 0.25, "unresolved"),
    # unless every change run beats every parent run, here by less than
    # the IQR, so also no gain
    (TAIL, [0.08] * 10, "lower", 0.25, "within bound"),
    # a median worse by more than the bound is worse whatever the spread
    (TAIL, [0.13] * 10, "lower", 0.25, "worse"),
])
def test_verdict(parent, change, better, bound, want):
    assert verdict(parent, change, better, bound) == want


def test_every_benchmark_metric_has_a_bound_and_a_direction():
    # the verdict reads both from BENCHMARK.json
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    assert metrics
    for m in metrics:
        assert m["better"] in ("lower", "higher") and m["bound"] > 0
