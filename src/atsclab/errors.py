"""Error categories with process exit codes for the CLI."""
import math


class AtscLabError(Exception):
    exit_code = 1


class ConfigError(AtscLabError):
    """Invalid scenario/geometry/training configuration."""
    exit_code = 2


def require_finite(owner: str, **values: float) -> None:
    """A ConfigError naming the first of `values` that is NaN or infinite:
    a range check alone lets NaN through, since it compares false."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{owner}.{name}={value} must be finite")


class DataError(AtscLabError):
    """Malformed or inconsistent input data (logs, streams, sequencing)."""
    exit_code = 3


class NumericError(AtscLabError):
    """Numerical failure (NaN loss, divergent training)."""
    exit_code = 4
