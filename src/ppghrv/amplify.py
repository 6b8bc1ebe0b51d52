"""How RR-level estimation error inflates HRV error.

HRV metrics aggregate differences between intervals, so even small
per-interval errors compound: a few percent of RR error can mean tens of
percent of RMSSD error.  inject_rr_error perturbs a series at a chosen RR
MAPE level; amplification_table measures the resulting HRV MAPE per level
by Monte Carlo over paired windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .metrics import RrSeries, mape, rmssd, sdnn
from .synth import SynthConfig, generate_rr_trace

DEFAULT_MAPE_LEVELS_PCT = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_WINDOW_S = 60.0
MIN_WINDOWS = 10

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


def inject_rr_error(rr: RrSeries, target_mape_pct: float, rng_seed: int) -> RrSeries:
    """Multiplicative uniform noise with expected |relative error| = target.

    Each interval becomes RR_i * (1 + eps_i) with eps_i ~ Uniform(-a, a)
    and a = 2 * target / 100, so E|eps| equals the target.  Levels of 50%
    or more would allow non-positive intervals and raise ConfigError.
    """
    if target_mape_pct < 0:
        raise ConfigError("target_mape_pct must be >= 0")
    a = 2.0 * target_mape_pct / 100.0
    if a >= 1.0:
        raise ConfigError(
            f"target of {target_mape_pct}% needs eps amplitude {a} >= 1, "
            "which would produce non-positive intervals"
        )
    rng = np.random.default_rng(rng_seed)
    eps = rng.uniform(-a, a, size=len(rr))
    return RrSeries(rr.intervals_ms * (1.0 + eps))


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
    series with a fresh derived seed and compares per-window RMSSD/SDNN
    against the unperturbed values.  Level 0 reproduces the base bit for
    bit, so its row is exactly zero.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if window_s <= 0:
        raise ConfigError("window_s must be positive")
    slices = _window_slices(base, window_s)
    if len(slices) < MIN_WINDOWS:
        raise ConfigError(
            f"window_s={window_s} cuts the base trace into {len(slices)} windows, "
            f"need at least {MIN_WINDOWS}"
        )
    base_rmssd = np.array([rmssd(RrSeries(base.intervals_ms[s])) for s in slices])
    base_sdnn = np.array([sdnn(RrSeries(base.intervals_ms[s])) for s in slices])
    rows = []
    for li, level in enumerate(mape_levels_pct):
        rmssd_sum = 0.0
        sdnn_sum = 0.0
        for trial in range(trials):
            seed = int(
                np.random.SeedSequence((rng_seed, li, trial)).generate_state(1)[0]
            )
            pert = inject_rr_error(base, level, seed)
            r_est = np.array([rmssd(RrSeries(pert.intervals_ms[s])) for s in slices])
            s_est = np.array([sdnn(RrSeries(pert.intervals_ms[s])) for s in slices])
            rmssd_sum += mape(r_est, base_rmssd)
            sdnn_sum += mape(s_est, base_sdnn)
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


def default_base_trace(seed: int = 0) -> RrSeries:
    """The documented synthetic base series for amplification runs."""
    return generate_rr_trace(replace(BASE_TRACE_CONFIG, seed=seed)).rr
