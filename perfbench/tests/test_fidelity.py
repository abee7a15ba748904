"""Fidelity metrics against the generator's ground truth."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
from fidelity import fidelity, idle_period_acc, load_truth, mean_fidelity, save_truth, truth_record
from repro.workloads.catalog import get_spec
from repro.workloads.generator import generate_intents


def test_gap_i_pairs_with_the_think_before_request_i_plus_1():
    is_idle = np.array([False, True, False, True, True])
    thinks = np.array([0.0, 500.0, 40.0, 900.0, 70.0])
    record = truth_record(is_idle, thinks)
    assert record.n_gaps == 4
    assert record.gap_indices.tolist() == [0, 2, 3]
    assert record.periods_us.tolist() == [500.0, 900.0, 70.0]
    assert record.total_injected_us() == 1470.0


def test_idle_period_acc_is_symmetric_in_the_error():
    assert idle_period_acc(104.0, 100.0) == pytest.approx(0.96)
    assert idle_period_acc(81.0, 100.0) == pytest.approx(0.81)
    assert idle_period_acc(100.0, 100.0) == 1.0


def test_exact_estimate_scores_perfectly():
    is_idle = np.array([False, True, False, True])
    thinks = np.array([0.0, 5_000.0, 30.0, 20_000.0])
    record = truth_record(is_idle, thinks)
    estimate = np.array([5_000.0, 0.0, 20_000.0])
    scores = fidelity(record, estimate, float(estimate.sum()))
    assert scores == {"idle_period_acc": 1.0, "idle_detect_tp": 1.0, "idle_len_tp": 1.0}


def test_missed_and_short_idles_lower_detection_and_length():
    is_idle = np.array([False, True, False, True])
    thinks = np.array([0.0, 5_000.0, 30.0, 20_000.0])
    record = truth_record(is_idle, thinks)
    # Gap 0 found at half its length; gap 2 estimated below the threshold.
    estimate = np.array([2_500.0, 0.0, 5.0])
    scores = fidelity(record, estimate, float(estimate.sum()))
    assert scores["idle_detect_tp"] == 0.5
    assert scores["idle_len_tp"] == 0.5
    assert scores["idle_period_acc"] == pytest.approx(1.0 - (25_000.0 - 2_505.0) / 25_000.0)


def test_mean_fidelity_averages_each_metric():
    parts = [
        {"idle_period_acc": 0.9, "idle_detect_tp": 1.0, "idle_len_tp": 0.5},
        {"idle_period_acc": 0.7, "idle_detect_tp": 0.5, "idle_len_tp": 1.0},
    ]
    assert mean_fidelity(parts) == pytest.approx(
        {"idle_period_acc": 0.8, "idle_detect_tp": 0.75, "idle_len_tp": 0.75}
    )


def test_saved_truth_round_trips(tmp_path):
    intents = generate_intents(get_spec("MSNFS").scaled(500))
    save_truth(tmp_path / "truth.npz", intents)
    record = load_truth(tmp_path / "truth.npz")
    assert record.n_gaps == len(intents) - 1
    assert record.total_injected_us() == pytest.approx(intents.total_idle_us())


def test_benchmark_json_matches_run_py():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
