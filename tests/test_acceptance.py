"""End-to-end acceptance checks.

Every test prints exactly one PASS/FAIL line (visible because -s is in the
default pytest options), so the suite output doubles as a release checklist.
The one-hour trace and its datasets are built once per session and shared by
the compound-method criteria.
"""

import time

import numpy as np
import pytest
from numpy.random import default_rng

from ppghrv.amplify import amplification_table, default_base_trace
from ppghrv.cli import main
from ppghrv.data import build_hrv_dataset, chronological_split, Dataset
from ppghrv.metrics import HrvMetricKind, RrSeries, mape, rmssd, sdnn
from ppghrv.models.base import ModelKind
from ppghrv.models.bench import bench_inference
from ppghrv.models.codec import serialized_size
from ppghrv.models.knn import train_knn
from ppghrv.models.mlp import (
    RELU,
    TANH,
    MlpTrainingConfig,
    init_params,
    loss_and_grads,
    train_mlp,
)
from ppghrv.models.search import random_search
from ppghrv.models.tree import train_dt
from ppghrv.sigproc import ppg_to_hr, smooth, zscore_adjust
from ppghrv.synth import SynthConfig, activity_preset, generate_rr_trace, render_ppg


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def office_hour():
    """One hour of the office_work preset, artifacts on, processed to HRs."""
    t0 = time.perf_counter()
    cfg = activity_preset("office_work", duration_s=3600.0, seed=202)
    gt = generate_rr_trace(cfg)
    shr = smooth(zscore_adjust(ppg_to_hr(render_ppg(gt, cfg))))
    return shr, gt, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rmssd_splits(office_hour):
    shr, gt, _ = office_hour
    splits = {}
    for n in (30, 300):
        ds = build_hrv_dataset(shr, gt, n_s=n, kind=HrvMetricKind.RMSSD)
        splits[n] = chronological_split(ds, 0.8)
    return splits


def test_criterion_01_formula_oracles():
    t0 = time.perf_counter()
    rng = default_rng(7)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 40))
        vals = rng.uniform(300.0, 1500.0, size=m)
        mean = sum(vals) / m
        ref_sdnn = (sum((v - mean) ** 2 for v in vals) / m) ** 0.5
        ref_rmssd = (
            sum((vals[i + 1] - vals[i]) ** 2 for i in range(m - 1)) / (m - 1)
        ) ** 0.5
        rr = RrSeries(vals)
        worst = max(worst, abs(sdnn(rr) - ref_sdnn) / ref_sdnn)
        worst = max(worst, abs(rmssd(rr) - ref_rmssd) / ref_rmssd)
        est = rng.uniform(10.0, 100.0, size=m)
        tru = rng.uniform(10.0, 100.0, size=m)
        ref_mape = sum(abs(e - t) / abs(t) for e, t in zip(est, tru)) / m * 100.0
        worst = max(worst, abs(mape(est, tru) - ref_mape) / ref_mape)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"worst relative error {worst:.2e} over 1000 series in {elapsed:.2f}s")


def test_criterion_02_error_amplification():
    t0 = time.perf_counter()
    rows = amplification_table(
        default_base_trace(0),
        mape_levels_pct=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
        trials=1000,
        rng_seed=0,
    )
    elapsed = time.perf_counter() - t0
    zero_exact = rows[0].rmssd_mape_pct == 0.0 and rows[0].sdnn_mape_pct == 0.0
    ordered = all(
        r.rmssd_mape_pct >= r.sdnn_mape_pct >= r.rr_mape_pct for r in rows[1:]
    )
    rm = [r.rmssd_mape_pct for r in rows]
    sd = [r.sdnn_mape_pct for r in rows]
    monotone = all(a <= b for a, b in zip(rm, rm[1:])) and all(
        a <= b for a, b in zip(sd, sd[1:])
    )
    in_band = 5.0 <= rows[1].rmssd_mape_pct <= 20.0 and 2.5 <= rows[1].sdnn_mape_pct <= 10.0
    ok = zero_exact and ordered and monotone and in_band and elapsed < 30.0
    report(
        2,
        ok,
        f"1% rr -> rmssd {rows[1].rmssd_mape_pct:.2f}% sdnn {rows[1].sdnn_mape_pct:.2f}%, "
        f"zero_exact={zero_exact} ordered={ordered} monotone={monotone} in {elapsed:.1f}s",
    )


def test_criterion_03_constant_hr_recovery():
    t0 = time.perf_counter()
    fracs = {}
    for bpm in (50, 60, 90, 120, 150):
        cfg = SynthConfig(duration_s=60.0, base_hr_bpm=float(bpm), seed=1)
        gt = generate_rr_trace(cfg)
        raw = ppg_to_hr(render_ppg(gt, cfg))
        fracs[bpm] = float(np.mean(np.abs(raw.values - bpm) <= 2.0))
    elapsed = time.perf_counter() - t0
    ok = min(fracs.values()) >= 0.95 and elapsed < 10.0
    detail = " ".join(f"{b}bpm:{f:.0%}" for b, f in fracs.items())
    report(3, ok, f"within +-2 bpm {detail} in {elapsed:.1f}s")


def test_criterion_04_compound_beats_sigproc(office_hour, rmssd_splits):
    t0 = time.perf_counter()
    train, test = rmssd_splits[300]
    sig = mape(test.features[:, -1], test.labels)

    result = random_search(
        train, ModelKind.DT, budget=10, seed=17, val_fraction=0.2, mlp_max_epochs=500
    )
    compound = mape(result.model.predict_batch(test.features), test.labels)
    used = "dt"
    if not (compound < sig and compound <= 20.0):
        result = random_search(
            train, ModelKind.MLP, budget=10, seed=17, val_fraction=0.2, mlp_max_epochs=500
        )
        compound = mape(result.model.predict_batch(test.features), test.labels)
        used = "mlp"
    elapsed = time.perf_counter() - t0 + office_hour[2]
    ok = compound < sig and compound <= 20.0 and elapsed < 600.0
    report(
        4,
        ok,
        f"compound({used})={compound:.2f}% < sigproc={sig:.2f}% and <=20%, "
        f"in {elapsed:.0f}s (incl. trace prep)",
    )


def test_criterion_05_longer_window_is_easier(rmssd_splits):
    t0 = time.perf_counter()
    means = {}
    for n in (30, 300):
        train, test = rmssd_splits[n]
        errors = []
        for kind in (ModelKind.DT, ModelKind.KNN):
            res = random_search(
                train, kind, budget=5, seed=23, val_fraction=0.2, mlp_max_epochs=500
            )
            errors.append(mape(res.model.predict_batch(test.features), test.labels))
        means[n] = float(np.mean(errors))
    elapsed = time.perf_counter() - t0
    ok = means[300] <= means[30] and elapsed < 900.0
    report(
        5,
        ok,
        f"mean compound MAPE n=300s {means[300]:.2f}% <= n=30s {means[30]:.2f}% "
        f"in {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def footprint_models(rmssd_splits):
    train, _ = rmssd_splits[300]
    dt = train_dt(train, max_depth=20, seed=0)
    mlp = train_mlp(
        train, hidden_layers=(100,) * 5, activation=RELU,
        cfg=MlpTrainingConfig(max_epochs=2), seed=0,
    )
    return dt, mlp


def test_criterion_06_model_footprint(footprint_models):
    dt, mlp = footprint_models
    dt_bytes = serialized_size(dt)
    mlp_bytes = serialized_size(mlp)
    ok = dt_bytes <= 50_000 and mlp_bytes <= 500_000
    report(
        6,
        ok,
        f"dt(depth<=20)={dt_bytes} bytes <= 50000, "
        f"mlp(5x100)={mlp_bytes} bytes <= 500000",
    )


def test_criterion_07_inference_latency(footprint_models, rmssd_splits):
    dt, mlp = footprint_models
    _, test = rmssd_splits[300]
    probes = list(test.features[:32])
    dt_stats = bench_inference(dt, probes, repetitions=10_000)
    mlp_stats = bench_inference(mlp, probes, repetitions=10_000)
    ok = dt_stats.mean_us < 100.0 and mlp_stats.mean_us < 5000.0
    report(
        7,
        ok,
        f"dt mean {dt_stats.mean_us:.1f}us < 100us, "
        f"mlp mean {mlp_stats.mean_us:.1f}us < 5000us (10000 reps each)",
    )


def test_criterion_08_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    step = 1e-5
    for seed in range(5):
        rng = default_rng(seed)
        activation = RELU if seed % 2 == 0 else TANH
        # small random bias offsets keep every relu preactivation well away
        # from 0, where the derivative jumps and central differences are invalid
        params = [
            (W, b + rng.normal(size=b.size) * 0.1)
            for W, b in init_params((4, 6, 3, 1), rng)
        ]
        X = rng.normal(size=(12, 4))
        y = rng.normal(size=12)
        _, grads = loss_and_grads(params, X, y, activation)
        for li, (W, b) in enumerate(params):
            for which, arr in (("W", W), ("b", b)):
                g = grads[li][0] if which == "W" else grads[li][1]
                flat = arr.ravel()
                gflat = g.ravel()
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + step
                    hi, _ = loss_and_grads(params, X, y, activation)
                    flat[j] = keep - step
                    lo, _ = loss_and_grads(params, X, y, activation)
                    flat[j] = keep
                    numeric = (hi - lo) / (2.0 * step)
                    scale = max(abs(numeric), abs(gflat[j]), 1e-8)
                    worst = max(worst, abs(numeric - gflat[j]) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 5.0
    report(8, ok, f"max relative gradient error {worst:.2e} over 5 seeds in {elapsed:.1f}s")


def test_criterion_09_run_command_determinism(tmp_path):
    def run_args(out):
        return [
            "run", "--out-dir", str(out),
            "--activities", "sit", "--metrics", "rmssd",
            "--lengths", "30,60", "--models", "dt,knn",
            "--duration-s", "400", "--stride-s", "5",
            "--budget", "2", "--seed", "33",
        ]

    assert main(run_args(tmp_path / "a")) == 0
    assert main(run_args(tmp_path / "b")) == 0
    first = (tmp_path / "a" / "results.csv").read_bytes()
    second = (tmp_path / "b" / "results.csv").read_bytes()
    ok = first == second
    report(9, ok, f"two `run` invocations, results.csv identical ({len(first)} bytes)")


def test_criterion_10_small_instance_oracles():
    # depth-1 tree: candidate thresholds are the three feature midpoints;
    # only 5.5 separates the low labels from the high ones with zero SSE
    ds = Dataset(
        features=np.array([[0.0], [1.0], [10.0], [11.0]]),
        labels=np.array([0.0, 0.0, 10.0, 10.0]),
        window_end_times_s=np.array([0.0, 1.0, 2.0, 3.0]),
    )
    tree = train_dt(ds, max_depth=1)
    root_ok = (
        tree.nodes.feature[0] == 0
        and tree.nodes.threshold[0] == np.float32(5.5)
        and tree.predict(np.array([0.5])) == 0.0
        and tree.predict(np.array([10.5])) == 10.0
    )

    # knn: features 0, 1, 100 standardize to z-scores that keep their order,
    # so the two nearest neighbours of the first point are rows 0 and 1
    knn_ds = Dataset(
        features=np.array([[0.0], [1.0], [100.0]]),
        labels=np.array([0.0, 10.0, 300.0]),
        window_end_times_s=np.array([0.0, 1.0, 2.0]),
    )
    knn = train_knn(knn_ds, k=2, distance="euclidean")
    knn_ok = knn.predict(np.array([0.0])) == 5.0

    ok = root_ok and knn_ok
    report(10, ok, f"dt root split (f0, 5.5) exact={root_ok}, knn mean-of-2 exact={knn_ok}")
