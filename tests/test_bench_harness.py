"""scripts/bench.py: the pair verdict on fixed samples, one real row, and
the order and shape of the Tier-1 row.

Loading the script imports what it takes from the benchmark and the library
(IMPORT_PROBE, SearchCold.INSTANCES, the table helpers), so a rename there
fails here rather than in a hand run of the script.
"""

import importlib.util
import os
import subprocess

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = load("bench")

BASE = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # quartile spread 0.5


@pytest.mark.parametrize("ours, word", [
    ([b - 1.0 for b in BASE[:9]] + [2.5], "faster"),  # 9 of 10 won, medians 1.0 apart
    ([b + 1.0 for b in BASE[:9]] + [0.5], "slower"),  # 9 of 10 lost
    ([b - 1.0 for b in BASE[:9]] + [1.9], "faster"),  # 9 won and a tie
    ([b - 1.0 for b in BASE[:8]] + [2.5, 2.5], "unresolved"),  # 8 of 10 won
    ([b - 1.0 for b in BASE[:8]] + BASE[8:], "unresolved"),  # 8 won and 2 ties
    ([b - 0.3 for b in BASE], "unresolved"),  # 10 of 10 won, medians 0.3 apart
    (BASE, "unresolved"),  # all ties
])
def test_verdict_needs_nine_of_ten_pairs_and_a_gap_past_the_quartiles(ours, word):
    assert bench.verdict(ours, BASE)["verdict"] == word


def test_verdict_counts_ties_for_neither_side():
    ours = [b - 1.0 for b in BASE[:8]] + BASE[8:]
    assert bench.verdict(ours, BASE) == {"won": 8, "lost": 0, "verdict": "unresolved"}
    assert bench.verdict(BASE, ours) == {"won": 0, "lost": 8, "verdict": "unresolved"}


def test_verdict_needs_a_gap_past_two_hundredths_of_the_median():
    # 4 kB pages of VmHWM growth on a steady 476 kB: two are past the
    # quartiles but not 2% of the median, three are past both
    assert bench.verdict([484] * 10, [476] * 10)["verdict"] == "unresolved"
    assert bench.verdict([488] * 10, [476] * 10, "smaller", "larger")["verdict"] == "larger"


def test_verdict_needs_ten_pairs():
    # two pairs both won, far apart, are still too few
    assert bench.verdict([0.1, 0.1], [1.0, 2.0])["verdict"] == "unresolved"


def test_a_row_against_its_own_tree():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc/self/status")
    row = bench.row(["p-positions", "--kmax", "20"], 2, baseline=bench.SRC)
    assert row["argv"] == ["p-positions", "--kmax", "20"] and row["runs"] == 2
    for tree in ("tree", "baseline"):
        side = row[tree]
        assert side["exit_code"] == 0 and side["numpy_loaded"] is False
        for metric in ("wall_s", "peak_growth_bytes"):
            assert set(side[metric]) == {"median", "q1", "q3"}
            assert side[metric]["median"] > 0
    for metric in ("wall_s", "peak_growth_bytes"):
        v = row["verdict"][metric]
        assert v["won"] + v["lost"] <= 2 and v["verdict"] == "unresolved"


def test_tier1_runs_each_tree_twice_interleaved(monkeypatch):
    # the suite itself is not run: each call records its checkout and
    # answers with a summary line
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append(os.path.basename(cwd))
        return subprocess.CompletedProcess(argv, 0, stdout=f"{cwd}\n1 passed\n")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    row = bench.tier1({"tree": "/t/ours/src", "baseline": "/t/base/src"})
    assert calls == ["ours", "base", "base", "ours"]
    assert row["runs"] == 2 and set(row) == {"runs", "tree", "baseline"}
    for tree in ("tree", "baseline"):
        first, second = row[tree]["runs"]
        assert [(r["exit_code"], r["summary"]) for r in (first, second)] == [(0, "1 passed")] * 2
        assert row[tree]["median_wall_s"] == round((first["wall_s"] + second["wall_s"]) / 2, 1)
