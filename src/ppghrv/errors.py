"""The package's two exception types, one per CLI exit code.

HrvError marks bad input data, or a result the data cannot support (exit
code 2); ConfigError marks a bad setting (exit code 1).  The message says
what went wrong.
"""


class HrvError(Exception):
    """Bad input data, or a result the data cannot support."""


class ConfigError(HrvError):
    """Invalid configuration value or combination."""
