"""Exception types shared across the package.

Everything raised on purpose derives from HrvError so callers can catch one
base class.  ParseError and its subclasses mark bad input data (CLI exit
code 2); ConfigError marks bad settings (exit code 1).
"""


class HrvError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(HrvError):
    """Invalid configuration value or combination."""


class EmptySignal(HrvError):
    """Operation received a signal with no samples."""


class NonFiniteSignal(HrvError):
    """Signal holds a nan or inf sample."""


class SignalTooShort(HrvError):
    """Signal shorter than the operation's minimum duration."""


class TooShort(HrvError):
    """Series has too few values for the requested operation."""


class TooFewIntervals(HrvError):
    """HRV metrics need at least two RR intervals."""


class LengthMismatch(HrvError):
    """Paired sequences differ in length or are empty."""


class ZeroTruth(HrvError):
    """MAPE is undefined when a reference value is zero."""


class InvalidTarget(ConfigError):
    """Requested error level outside the representable range."""


class TraceTooShort(HrvError):
    """Trace too short to build even one sample."""


class EmptyWindow(HrvError):
    """A labelling window holds too few ground-truth beats."""


class TooFewSamples(HrvError):
    """Dataset too small to split."""


class KTooLarge(HrvError):
    """Requested neighbour count exceeds the training set size."""


class EmptyDataset(HrvError):
    """Training requires at least one sample."""


class DivergedLoss(HrvError):
    """Training loss became non-finite."""


class FeatureLengthMismatch(HrvError):
    """Query feature length differs from the training layout."""


class SearchExhausted(HrvError):
    """Every sampled hyperparameter candidate failed to train."""


class ParseError(HrvError):
    """Malformed input file; message carries the line number."""


class NonMonotoneTime(ParseError):
    """Timestamps in an input file must strictly increase."""


class RateMismatch(ParseError):
    """Inferred sampling rate disagrees with the declared one."""
