"""How RR-level estimation error inflates HRV error.

HRV metrics aggregate differences between intervals, so even small
per-interval errors compound: a few percent of RR error can mean tens of
percent of RMSSD error.  inject_rr_error perturbs a series at a chosen RR
MAPE level; amplification_table measures the resulting HRV MAPE per level
by Monte Carlo over paired windows.

amplification_table handles its trials in batches, and its rows equal those
of a loop that perturbs one trial at a time and calls rmssd, sdnn and mape
on each window, bit for bit.  Trial k of level i still draws its own
perturbation from SeedSequence((rng_seed, i, k)): its 32-bit seed s is the
first word that entropy derives, and its factors come from default_rng(s).
A batch derives all its trial seeds in one synth.derived_seeds call and
their generators' PCG64 states in one derived_rngs call, which sets each
state in turn on one reused Generator, so every perturbed interval is the
same float without a SeedSequence or Generator built per trial.

A batch stores its perturbed series as the rows of one C-contiguous
(trials, intervals) array, and a window is a column slice of it, so each
row of the slice is a run of intervals with unit stride.  The metrics
kernels reduce along that last axis, where numpy hands each row to the same
pairwise-summation loop as a 1-D call on the row, so each trial's window
RMSSD and SDNN are the same floats as the loop's, and so is its MAPE over
the windows, a last-axis mean over one C-contiguous row.  The per-trial
MAPEs are then added in trial order with Python floats, as the loop adds
them.  The batch holds at most TRIAL_CHUNK_BYTES of perturbed intervals (but
at least one trial), so memory does not grow with the trial count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .metrics import RrSeries, mape_rows, rmssd, rmssd_rows, sdnn, sdnn_rows
from .synth import (
    SynthConfig,
    check_seed,
    derived_rng,
    derived_rngs,
    derived_seeds,
    generate_rr_trace,
)

DEFAULT_MAPE_LEVELS_PCT = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_WINDOW_S = 60.0
MIN_WINDOWS = 10
# each trial perturbs and measures the whole base trace once per level, so
# 10^5 trials (100x the default) take about 13 s on a 2-vCPU Xeon VM
MAX_TRIALS = 100_000
# Size of amplification_table's batch of perturbed series (see above).
TRIAL_CHUNK_BYTES = 1024 * 1024

# Base-trace recipe used by the CLI and the verification suite: mean RR
# around 900 ms with SDNN near 50 ms, split between a slow drift component
# and beat-to-beat jitter so RMSSD stays well below sqrt(2) * SDNN.
BASE_TRACE_CONFIG = SynthConfig(
    duration_s=900.0,
    base_hr_bpm=66.7,
    hr_drift_amplitude_bpm=4.8,
    hr_drift_period_s=30.0,
    rr_jitter_ms=20.0,
    seed=0,
)


@dataclass(frozen=True)
class AmplificationRow:
    """HRV error observed at one injected RR error level."""

    rr_mape_pct: float
    rmssd_mape_pct: float
    sdnn_mape_pct: float
    trials: int
    seed: int


def _eps_amplitude(target_mape_pct: float) -> float:
    """The half-width a of the uniform eps that gives the target, checked."""
    if not target_mape_pct >= 0:
        raise ConfigError(f"target_mape_pct must be >= 0, got {target_mape_pct}")
    a = 2.0 * target_mape_pct / 100.0
    if a >= 1.0:
        raise ConfigError(
            f"target of {target_mape_pct}% needs eps amplitude {a} >= 1, "
            "which would produce non-positive intervals"
        )
    return a


def _error_factors(a: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """The n factors 1 + eps that one perturbation multiplies the intervals by."""
    return 1.0 + rng.uniform(-a, a, size=n)


def inject_rr_error(rr: RrSeries, target_mape_pct: float, rng_seed: int) -> RrSeries:
    """Multiplicative uniform noise with expected |relative error| = target.

    Each interval becomes RR_i * (1 + eps_i) with eps_i ~ Uniform(-a, a)
    and a = 2 * target / 100, so E|eps| equals the target.  A target that
    is not a number >= 0, or of 50% or more (which would allow non-positive
    intervals), raises ConfigError, as does a negative rng_seed.
    """
    check_seed(rng_seed)
    a = _eps_amplitude(target_mape_pct)
    return RrSeries(rr.intervals_ms * _error_factors(a, derived_rng((rng_seed,)), len(rr)))


def _window_slices(rr: RrSeries, window_s: float) -> list[slice]:
    """Consecutive non-overlapping index ranges covering window_s each.

    Boundaries follow cumulative interval time; the trailing partial window
    is dropped.  Slices are fixed by the base series so perturbed copies are
    compared window-for-window.
    """
    end_times_s = np.cumsum(rr.intervals_ms) / 1000.0
    slices = []
    i0 = 0
    boundary = window_s
    for i, et in enumerate(end_times_s):
        if et >= boundary:
            if i + 1 - i0 >= 2:
                slices.append(slice(i0, i + 1))
            i0 = i + 1
            boundary += window_s
    return slices


def amplification_table(
    base: RrSeries,
    mape_levels_pct=DEFAULT_MAPE_LEVELS_PCT,
    trials: int = 1000,
    window_s: float = DEFAULT_WINDOW_S,
    rng_seed: int = 0,
) -> list[AmplificationRow]:
    """Mean HRV MAPE per injected RR error level, over Monte Carlo trials.

    The base series is cut into windows once; every trial perturbs the whole
    series from its own derived seed and compares per-window RMSSD/SDNN
    against the unperturbed values.  Level 0 reproduces the base bit for
    bit, so its row is exactly zero.
    """
    check_seed(rng_seed)
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must lie in [1, {MAX_TRIALS}], got {trials}")
    if window_s <= 0:
        raise ConfigError("window_s must be positive")
    slices = _window_slices(base, window_s)
    if len(slices) < MIN_WINDOWS:
        raise ConfigError(
            f"window_s={window_s} cuts the base trace into {len(slices)} windows, "
            f"need at least {MIN_WINDOWS}"
        )
    amplitudes = [_eps_amplitude(level) for level in mape_levels_pct]
    x = base.intervals_ms
    base_rmssd = np.array([rmssd(RrSeries(x[s])) for s in slices])
    base_sdnn = np.array([sdnn(RrSeries(x[s])) for s in slices])
    chunk = max(1, TRIAL_CHUNK_BYTES // x.nbytes)
    pert = np.empty((min(chunk, trials), x.size))
    r_est = np.empty((pert.shape[0], len(slices)))
    s_est = np.empty_like(r_est)
    rows = []
    for li, (level, a) in enumerate(zip(mape_levels_pct, amplitudes)):
        rmssd_sum = 0.0
        sdnn_sum = 0.0
        for t0 in range(0, trials, chunk):
            m = min(chunk, trials - t0)
            seeds = derived_seeds((rng_seed, li), range(t0, t0 + m))
            for j, rng in enumerate(derived_rngs((), seeds)):
                np.multiply(x, _error_factors(a, rng, x.size), out=pert[j])
            for w, s in enumerate(slices):
                r_est[:m, w] = rmssd_rows(pert[:m, s])
                s_est[:m, w] = sdnn_rows(pert[:m, s])
            for r, sd in zip(
                mape_rows(r_est[:m], base_rmssd).tolist(),
                mape_rows(s_est[:m], base_sdnn).tolist(),
            ):
                rmssd_sum += r
                sdnn_sum += sd
        rows.append(
            AmplificationRow(
                rr_mape_pct=float(level),
                rmssd_mape_pct=rmssd_sum / trials,
                sdnn_mape_pct=sdnn_sum / trials,
                trials=trials,
                seed=rng_seed,
            )
        )
    return rows


def default_base_trace(seed: int) -> RrSeries:
    """The documented synthetic base series for amplification runs."""
    return generate_rr_trace(replace(BASE_TRACE_CONFIG, seed=seed)).rr
