"""Error categories with process exit codes for the CLI, and the declared
ranges that config classes check their numeric fields against."""
import math
import operator
from dataclasses import field, fields


class AtscLabError(Exception):
    exit_code = 1


class ConfigError(AtscLabError):
    """Invalid scenario/geometry/training configuration."""
    exit_code = 2


def bounded(default, *, at_least=None, above=None, at_most=None, below=None):
    """A dataclass field whose value `check_ranges` holds to the given bounds,
    to finite numbers, and to whole ones where `default` is an int."""
    return field(default=default, metadata={"range": (at_least, above, at_most, below)})


# per bound of `bounded`: the test a value fails it by, and its text
_BOUND_TESTS = ((operator.lt, ">="), (operator.le, ">"), (operator.gt, "<="),
                (operator.ge, "<"))


def check_ranges(config) -> None:
    """A ConfigError naming the first `bounded` field of `config` whose value
    is NaN or infinite, not whole where its default is an int, or out of its
    range. Finiteness comes first: a bound alone lets NaN through."""
    for f in fields(config):
        bounds = f.metadata.get("range")
        if bounds is None:
            continue
        value = getattr(config, f.name)
        where = f"{f.name}={value}"
        if not (isinstance(value, int) or math.isfinite(value)):   # an int may overflow a float
            raise ConfigError(f"{where} must be finite")
        if isinstance(f.default, int) and value != int(value):
            raise ConfigError(f"{where} must be a whole number")
        for (fails, text), bound in zip(_BOUND_TESTS, bounds):
            if bound is not None and fails(value, bound):
                raise ConfigError(f"{where} must be {text} {bound}")


class DataError(AtscLabError):
    """Malformed or inconsistent input data (logs, streams, sequencing)."""
    exit_code = 3


class NumericError(AtscLabError):
    """Numerical failure (NaN loss, divergent training)."""
    exit_code = 4
