"""Tests for the verdicts of ``benchmarks/ab.py`` (loaded by path)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

#: Seven runs of one side around 100 (q1 = 97.5, q3 = 102.5: IQR 5).
BASE = [90.0, 95.0, 100.0, 100.0, 100.0, 105.0, 110.0]


def shifted(runs, by):
    return [value + by for value in runs]


def test_min_pairs_is_seven():
    assert ab.MIN_PAIRS == 7


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_fewer_than_min_pairs_is_unresolved(better):
    """Even a change far outside the spread resolves nothing on 6 pairs."""
    result = ab.compare(BASE[:6], shifted(BASE[:6], 1000.0), better)
    assert result["verdict"] == "unresolved: fewer than 7 pairs"
    assert result["change_wins"] == ("6/6" if better == "higher" else "0/6")


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_gap_inside_the_spread_is_no_real_change(better):
    result = ab.compare(BASE, shifted(BASE, 4.0), better)
    assert result["verdict"] == "no real change"
    assert result["change_over_parent"] == 1.04


@pytest.mark.parametrize(
    "better, by, verdict",
    [
        ("higher", 20.0, "better"),
        ("higher", -20.0, "worse"),
        ("lower", -20.0, "better"),
        ("lower", 20.0, "worse"),
    ],
)
def test_gap_beyond_both_spreads_is_called(better, by, verdict):
    result = ab.compare(BASE, shifted(BASE, by), better)
    assert result["verdict"] == verdict
    wins = 7 if verdict == "better" else 0
    assert result["change_wins"] == f"{wins}/7"
    assert result["parent"]["median"] == 100.0
    assert result["change"]["median"] == 100.0 + by


def test_the_wider_side_sets_the_spread():
    """A gap beyond the parent's IQR but inside the change's is no change."""
    change = [80.0, 100.0, 120.0, 120.0, 120.0, 140.0, 160.0]  # IQR 20
    result = ab.compare(BASE, change, "higher")
    assert result["verdict"] == "no real change"
    assert ab.compare(BASE, shifted(change, 30.0), "higher")["verdict"] == "better"
