"""BENCH_trajectory.json: one record of paired benchmark runs per change."""

import json
import math
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "BENCH_trajectory.json"
GATED = ("setup_s", "latency_p50_ms", "samples_per_s", "peak_mib")


@pytest.fixture(scope="module")
def trajectory():
    with open(PATH) as fp:
        return json.load(fp)


def test_pr_numbers_increase(trajectory):
    prs = [rec["pr"] for rec in trajectory["records"]]
    assert prs and all(isinstance(pr, int) for pr in prs)
    assert all(a < b for a, b in zip(prs, prs[1:]))


def test_every_record_names_its_seeds_and_pair_count(trajectory):
    units = trajectory["units"]
    for rec in trajectory["records"]:
        assert isinstance(rec["backfilled"], bool)
        assert rec["workloads"], rec["pr"]
        for name, run in rec["workloads"].items():
            where = f"record {rec['pr']} {name}"
            seeds = run["seeds"]
            assert isinstance(run["pairs"], int) and run["pairs"] >= 1, where
            assert len(seeds) == run["pairs"] == len(set(seeds)), where
            assert all(isinstance(s, int) for s in seeds), where
            assert run["metrics"], where
            for metric, sides in run["metrics"].items():
                assert metric in units, where
                for side in ("parent", "change"):
                    point = sides[side]
                    med = point["median"]
                    assert math.isfinite(med) and med > 0, where
                    if "q1" in point:
                        assert point["q1"] <= med <= point["q3"], where


def test_measured_records_hold_every_gated_metric_with_quartiles(trajectory):
    measured = [r for r in trajectory["records"] if not r["backfilled"]]
    assert measured
    for rec in measured:
        for name in ("serve_b1", "train_b16"):
            run = rec["workloads"][name]
            assert run["pairs"] >= 5
            for metric in GATED:
                for side in ("parent", "change"):
                    assert {"median", "q1", "q3"} <= set(
                        run["metrics"][metric][side])
        assert "peak_mib" in rec["workloads"]["eval_b64"]["metrics"]
