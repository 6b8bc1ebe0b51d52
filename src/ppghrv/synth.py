"""Synthetic PPG traces with exact RR ground truth.

Beats are laid down sequentially from an instantaneous HR curve plus
Gaussian beat-to-beat jitter; the PPG is a train of asymmetric raised-cosine
pulses with optional motion-artifact bursts and additive noise.  Everything
is a pure function of the config including its seed.

Every random stream in the package is derived here, by seed_states: numpy's
SeedSequence (O'Neill's seed_seq_fe) computed with uint32 arrays for a whole
batch of entropy rows at once, bit for bit.  An entropy tuple becomes its
words as numpy lays out ints: each int as little-endian 32-bit chunks, 0 as
[0].  derived_seed(e) is SeedSequence(e).generate_state(1)[0], and
derived_rng(e) is default_rng(SeedSequence(e)): numpy's PCG64, handed the
first eight words as the four little-endian uint64 words SeedSequence would
hand it, seeds itself from them.  derived_seeds and derived_rngs do the same
for the entropies (*prefix, i) of many i in one batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, HrvError
from .metrics import MS_PER_MINUTE, RrSeries, checked_array
from .sigproc import DEFAULT_SAMPLING_RATE_HZ, PpgSignal, check_rate

RR_CLAMP_MS = (250.0, 2000.0)        # physiological interval bounds
PULSE_RISE_FRACTION = 0.3            # systolic upstroke share of the period
ARTIFACT_AMPLITUDE_RANGE = (1.0, 3.0)  # multiples of the pulse amplitude
ARTIFACT_DURATION_RANGE_S = (0.5, 2.0)  # seconds per burst
ARTIFACT_BAND_HZ = (0.5, 5.0)        # rough band of the burst content
# 24 h; generate_rr_trace lays beats down in a Python loop and render_ppg
# holds duration_s * sampling_rate_hz samples, so a longer trace costs time
# and memory without bound
MAX_DURATION_S = 86_400.0
# render_ppg's block of pulse samples: its temporaries hold about a dozen
# arrays of this many values, whatever the duration
RENDER_BLOCK_SAMPLES = 1 << 15

# independent RNG streams per stage, all derived from cfg.seed
_RR_STREAM = 0
_NOISE_STREAM = 1
_ARTIFACT_STREAM = 2


def check_seed(seed) -> None:
    """ConfigError unless seed is an integer >= 0, as numpy's SeedSequence
    needs."""
    if not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


# numpy's SeedSequence: a pool of 4 words, hashed and mixed with these
# constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_WORD = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j = 0..n: the hash constant before each
    of n hashes, and after the last."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _WORD)
    return np.array(c, dtype=np.uint32)


def _hash(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """seed_seq_fe's hashmix of each column j of v (broadcast) with c[j],
    the constant then advancing to c[j + 1]."""
    v = (v ^ c[:-1]) * c[1:]
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> _XSHIFT)


def seed_states(rows: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(row).generate_state(n_words) for each row of a
    (rows, k) uint32 array of entropy words, as a (rows, n_words) array.

    The pool starts as the first four words (0 past the end), each hashed.
    Each pool word in turn is then hashed and mixed into the other three,
    and each word past the fourth into all four.  The output cycles over
    the pool, hashed with a second run of constants.  Every hash takes the
    next constant of one run, so the hashes of one step are the columns of
    one call, for every row at once.
    """
    rows = np.asarray(rows, dtype=np.uint32)
    k = rows.shape[1]
    n_hashes = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, k - _POOL_SIZE)
    c = _hash_consts(_INIT_A, _MULT_A, n_hashes)
    pool = np.zeros((rows.shape[0], _POOL_SIZE), dtype=np.uint32)
    pool[:, : min(k, _POOL_SIZE)] = rows[:, :_POOL_SIZE]
    pool = _hash(pool, c[: _POOL_SIZE + 1])
    j = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], c[j : j + _POOL_SIZE]))
        j += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, k):
        pool = _mix(pool, _hash(rows[:, src, None], c[j : j + _POOL_SIZE + 1]))
        j += _POOL_SIZE
    cycle = np.arange(n_words) % _POOL_SIZE
    return _hash(pool[:, cycle], _hash_consts(_INIT_B, _MULT_B, n_words))


def _entropy_words(entropy) -> list[int]:
    """The uint32 words SeedSequence(entropy) hashes, for an int >= 0 or a
    tuple of them."""
    if not isinstance(entropy, (int, np.integer)):
        return [w for e in entropy for w in _entropy_words(e)]
    check_seed(entropy)
    n = int(entropy)
    words = [n & _WORD]
    while n := n >> 32:
        words.append(n & _WORD)
    return words


def _entropy_rows(prefix: tuple, indices: Iterable[int]) -> np.ndarray:
    """The words of (*prefix, i) for each i, one row each; each i is below
    2**32, so one word."""
    last = np.fromiter(indices, dtype=np.int64)
    if last.size and not (0 <= last.min() and last.max() <= _WORD):
        raise ConfigError("derived-seed indices must lie in [0, 2**32)")
    head = _entropy_words(prefix)
    rows = np.empty((last.size, len(head) + 1), dtype=np.uint32)
    rows[:, :-1] = head
    rows[:, -1] = last
    return rows


class _SeedWords:
    """One row's PCG64 seed words, as a seed sequence numpy's PCG64 accepts
    (registered as an ISeedSequence by _rngs, so numpy.random is not loaded
    at import).  PCG64 asks for generate_state(4, np.uint64), the only
    request it makes, and seeds itself from the words it gets."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype) -> np.ndarray:
        return self.words


def _rngs(rows: np.ndarray) -> Iterator[np.random.Generator]:
    """default_rng(SeedSequence(row)) for each row, a new generator each.

    Each row's first eight words are read, for the whole batch at once, as
    four little-endian uint64 words (uint32 words 2j and 2j + 1 the low and
    high halves of uint64 word j), as SeedSequence.generate_state(4,
    np.uint64) reads its words for PCG64."""
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    states = seed_states(rows, 8).astype("<u4", order="C").view("<u8").astype(np.uint64)
    for words in states:
        yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def derived_rng(entropy: tuple) -> np.random.Generator:
    """A generator seeded by SeedSequence(entropy), one entropy tuple per stream."""
    return next(_rngs(np.array([_entropy_words(entropy)], dtype=np.uint32)))


def derived_seed(entropy: tuple) -> int:
    """The 32-bit seed SeedSequence(entropy) derives first."""
    return int(seed_states(np.array([_entropy_words(entropy)], dtype=np.uint32), 1)[0, 0])


def derived_rngs(prefix: tuple, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """derived_rng((*prefix, i)) for each i in turn, derived in one batch."""
    return _rngs(_entropy_rows(prefix, indices))


def derived_seeds(prefix: tuple, indices: Iterable[int]) -> list[int]:
    """derived_seed((*prefix, i)) for each i, derived in one batch."""
    return seed_states(_entropy_rows(prefix, indices), 1)[:, 0].tolist()


def first_non_increasing(t: np.ndarray) -> int | None:
    """The index of the first time in t that does not exceed the one before it
    (a nan exceeds nothing), or None if t strictly increases."""
    ok = np.diff(t) > 0
    return None if ok.all() else int(ok.argmin()) + 1


@dataclass(frozen=True)
class SynthConfig:
    duration_s: float
    sampling_rate_hz: float = DEFAULT_SAMPLING_RATE_HZ
    base_hr_bpm: float = 70.0
    hr_drift_amplitude_bpm: float = 0.0
    hr_drift_period_s: float = 300.0
    rr_jitter_ms: float = 0.0
    artifact_rate_per_min: float = 0.0
    additive_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            # a nan or inf setting would keep generate_rr_trace's loop going
            if f.name != "seed" and not np.all(np.isfinite(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        if not 0 < self.duration_s <= MAX_DURATION_S:
            raise ConfigError(f"duration_s must lie in (0, {MAX_DURATION_S:g}] s")
        check_rate(self.sampling_rate_hz)
        if not 30.0 < self.base_hr_bpm < 200.0:
            raise ConfigError("base_hr_bpm must lie in (30, 200)")
        if self.hr_drift_amplitude_bpm < 0:
            raise ConfigError("hr_drift_amplitude_bpm must be >= 0")
        lo = self.base_hr_bpm - self.hr_drift_amplitude_bpm
        hi = self.base_hr_bpm + self.hr_drift_amplitude_bpm
        if not (30.0 < lo and hi < 200.0):
            raise ConfigError("HR drift would leave the (30, 200) bpm band")
        if self.hr_drift_period_s <= 0:
            raise ConfigError("hr_drift_period_s must be positive")
        if self.rr_jitter_ms < 0:
            raise ConfigError("rr_jitter_ms must be >= 0")
        if self.artifact_rate_per_min < 0:
            raise ConfigError("artifact_rate_per_min must be >= 0")
        if self.additive_noise_sigma < 0:
            raise ConfigError("additive_noise_sigma must be >= 0")
        check_seed(self.seed)


@dataclass(frozen=True)
class GroundTruth:
    """Exact beat times; the RR intervals are derived from them."""

    beat_times_s: np.ndarray

    def __post_init__(self):
        bt = checked_array(self.beat_times_s, "beat_times_s", 1)
        if bt.size < 2:
            raise HrvError(f"need at least two beat times, got {bt.size}")
        bad = first_non_increasing(bt)
        if bad is not None:
            raise HrvError(f"beat times must strictly increase, not at {float(bt[bad])} s")
        object.__setattr__(self, "beat_times_s", bt)

    @property
    def rr(self) -> RrSeries:
        """The intervals between consecutive beats, diff(beat_times_s) * 1000 ms."""
        return RrSeries(np.diff(self.beat_times_s) * 1000.0)


def generate_rr_trace(cfg: SynthConfig) -> GroundTruth:
    """Sequential beats from the instantaneous-HR curve plus jitter.

    The interval drawn at beat time t is 60000 / hr(t) plus Gaussian jitter,
    clamped to physiological bounds.  Only the beat times are kept; gt.rr
    derives the intervals from them.
    """
    rng = derived_rng((cfg.seed, _RR_STREAM))
    two_pi = 2.0 * np.pi
    beats = [0.0]
    t = 0.0
    while True:
        hr = cfg.base_hr_bpm + cfg.hr_drift_amplitude_bpm * np.sin(
            two_pi * t / cfg.hr_drift_period_s
        )
        rr_ms = MS_PER_MINUTE / hr + rng.normal(0.0, cfg.rr_jitter_ms)
        rr_ms = min(max(rr_ms, RR_CLAMP_MS[0]), RR_CLAMP_MS[1])
        nxt = t + rr_ms / 1000.0
        if nxt > cfg.duration_s + 1e-9:
            break
        beats.append(nxt)
        t = nxt
    if len(beats) < 2:
        raise ConfigError(
            f"duration_s={cfg.duration_s} is too short for a single beat interval"
        )
    return GroundTruth(beat_times_s=np.asarray(beats))


def _pulse_curve(
    tt: np.ndarray, beat_t: np.ndarray, rise_s: np.ndarray, decay_s: np.ndarray
) -> np.ndarray:
    """Asymmetric raised cosine peaking (value 1) at its beat time: at each
    time tt[k], the pulse of the beat at beat_t[k] that rises over rise_s[k]
    and decays over decay_s[k]."""
    out = np.zeros_like(tt)
    start = beat_t - rise_s
    rising = (tt >= start) & (tt <= beat_t)
    u = (tt[rising] - start[rising]) / rise_s[rising]
    out[rising] = 0.5 * (1.0 - np.cos(np.pi * u))
    falling = (tt > beat_t) & (tt <= beat_t + decay_s)
    v = (tt[falling] - beat_t[falling]) / decay_s[falling]
    out[falling] = 0.5 * (1.0 + np.cos(np.pi * v))
    return out


def render_ppg(gt: GroundTruth, cfg: SynthConfig) -> PpgSignal:
    """Render the beat train into a sampled PPG signal.

    Each beat contributes a raised-cosine pulse peaking at the beat time:
    the upstroke spans 30% of the preceding interval and the decay 70% of
    the following one, so consecutive templates tile without overlap.  The
    result is pulses + Gaussian noise + motion artifacts.

    Beat i's pulse covers samples j0[i]..j1[i], sample j at time j / fs.  A
    block of beats whose spans hold at most RENDER_BLOCK_SAMPLES samples
    (but at least one beat) is expanded to its (beat, sample) pairs in beat
    order; one _pulse_curve call gives their values, and np.add.at adds
    them in that order, so a sample that two pulses cover takes the earlier
    beat's value first, as adding one pulse at a time would.
    """
    fs = cfg.sampling_rate_hz
    n = int(round(cfg.duration_s * fs))
    signal = np.zeros(n)
    bt = gt.beat_times_s
    rr_s = gt.rr.intervals_ms / 1000.0
    rise_s = PULSE_RISE_FRACTION * np.concatenate((rr_s[:1], rr_s))
    decay_s = (1.0 - PULSE_RISE_FRACTION) * np.concatenate((rr_s, rr_s[-1:]))
    j0 = np.maximum(np.ceil((bt - rise_s) * fs), 0).astype(np.int64)
    j1 = np.minimum(np.floor((bt + decay_s) * fs), n - 1).astype(np.int64)
    counts = np.maximum(j1 - j0 + 1, 0)
    # beat i's pairs are starts[i]..starts[i + 1] - 1; pair p's sample is
    # p + shift[i]
    starts = np.concatenate(([0], np.cumsum(counts)))
    shift = j0 - starts[:-1]
    i0 = 0
    while i0 < bt.size:
        limit = starts[i0] + RENDER_BLOCK_SAMPLES
        i1 = max(i0 + 1, int(np.searchsorted(starts, limit, "right")) - 1)
        beat = np.repeat(np.arange(i0, i1), counts[i0:i1])
        sample = np.arange(starts[i0], starts[i1]) + shift[beat]
        pulses = _pulse_curve(sample / fs, bt[beat], rise_s[beat], decay_s[beat])
        np.add.at(signal, sample, pulses)
        i0 = i1
    if cfg.additive_noise_sigma > 0:
        signal = signal + derived_rng((cfg.seed, _NOISE_STREAM)).normal(
            0.0, cfg.additive_noise_sigma, n
        )
    out = PpgSignal(fs, signal)
    if cfg.artifact_rate_per_min > 0:
        out = inject_motion_artifacts(out, cfg)
    return out


def sample_artifact_epochs(cfg: SynthConfig, rng: np.random.Generator) -> list[tuple[float, float]]:
    """Poisson-process artifact epochs as (start_s, duration_s) pairs."""
    lam = cfg.artifact_rate_per_min * cfg.duration_s / 60.0
    count = int(rng.poisson(lam))
    if count == 0:
        return []
    starts = np.sort(rng.uniform(0.0, cfg.duration_s, size=count))
    durations = rng.uniform(*ARTIFACT_DURATION_RANGE_S, size=count)
    return list(zip(starts.tolist(), durations.tolist()))


def _moving_average(x: np.ndarray, w: int) -> np.ndarray:
    """Centred moving average of width w, clipped to len(x); edges average
    the samples available."""
    w = max(1, min(w, x.size))
    kernel = np.ones(w)
    return np.convolve(x, kernel, mode="same") / np.convolve(
        np.ones_like(x), kernel, mode="same"
    )


def _burst(rng: np.random.Generator, m: int, fs: float) -> np.ndarray:
    """Band-limited random-walk segment, normalized to unit peak."""
    walk = np.cumsum(rng.standard_normal(m))
    walk = _moving_average(walk, int(round(fs / (2.0 * ARTIFACT_BAND_HZ[1]))))  # kill > 5 Hz
    walk = walk - _moving_average(walk, int(round(fs / ARTIFACT_BAND_HZ[0])))   # kill < 0.5 Hz
    peak = float(np.max(np.abs(walk)))
    return walk / peak if peak > 0 else walk


def inject_motion_artifacts(signal: PpgSignal, cfg: SynthConfig) -> PpgSignal:
    """Add wrist-motion bursts to a rendered signal.

    Epoch starts follow a Poisson process at artifact_rate_per_min; each
    epoch adds a Hann-windowed band-limited burst with amplitude 1-3x the
    pulse amplitude.  Rate zero returns the input unchanged.
    """
    if cfg.artifact_rate_per_min == 0:
        return signal
    rng = derived_rng((cfg.seed, _ARTIFACT_STREAM))
    fs = signal.sampling_rate_hz
    x = signal.samples.copy()
    n = x.size
    for start_s, dur_s in sample_artifact_epochs(cfg, rng):
        j0 = int(round(start_s * fs))
        j1 = min(n, j0 + max(2, int(round(dur_s * fs))))
        if j0 >= n:
            continue
        m = j1 - j0
        amp = rng.uniform(*ARTIFACT_AMPLITUDE_RANGE)  # pulses peak at 1.0
        x[j0:j1] += amp * _burst(rng, m, fs) * np.hanning(m)
    return PpgSignal(fs, x, signal.start_time_s)


# Activity presets, ordered by artifact intensity: sit < sleep < office_work.
# Sleep sits lowest in HR and richest in beat-to-beat jitter; office work
# brings the most wrist motion.
ACTIVITY_PRESETS: dict[str, dict] = {
    "sit": dict(
        base_hr_bpm=65.0,
        hr_drift_amplitude_bpm=2.0,
        hr_drift_period_s=120.0,
        rr_jitter_ms=25.0,
        artifact_rate_per_min=0.5,
        additive_noise_sigma=0.02,
    ),
    "sleep": dict(
        base_hr_bpm=55.0,
        hr_drift_amplitude_bpm=3.0,
        hr_drift_period_s=180.0,
        rr_jitter_ms=35.0,
        artifact_rate_per_min=2.0,
        additive_noise_sigma=0.03,
    ),
    "office_work": dict(
        base_hr_bpm=75.0,
        hr_drift_amplitude_bpm=6.0,
        hr_drift_period_s=90.0,
        rr_jitter_ms=30.0,
        artifact_rate_per_min=6.0,
        additive_noise_sigma=0.05,
    ),
}


def activity_preset(name: str, duration_s: float, seed: int) -> SynthConfig:
    """Config for a named activity; see ACTIVITY_PRESETS for the knobs."""
    try:
        params = ACTIVITY_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(ACTIVITY_PRESETS))
        raise ConfigError(f"unknown activity {name!r}; choose one of: {known}") from None
    return SynthConfig(duration_s=duration_s, seed=seed, **params)
