"""Exception hierarchy shared across the toolkit, and the one check of a
number that enters from outside: a config, a spec, a stored threshold, a
result row, a model body or a command-line argument."""

import math
import sys

_MAX = sys.float_info.max


def _all_numbers(values, low, high, integer: bool) -> bool:
    """Whether every entry of values is an int or, unless integer is set, a
    float or an int that a float can hold, in [low, high]: not a bool, NaN or
    an infinity. Each type is tested once, then each entry's range."""
    kinds = int if integer else (int, float)
    if not integer:
        low, high = max(low, -_MAX), min(high, _MAX)
    return (all(issubclass(t, kinds) and t is not bool for t in set(map(type, values)))
            and all(low <= v <= high for v in values))


def is_number(value, low=-math.inf, high=math.inf, integer=False) -> bool:
    """Whether value is a number in [low, high] (_all_numbers); an int too
    large for a float compares exactly."""
    return _all_numbers((value,), low, high, integer)


def _want(low, high, integer: bool) -> str:
    want = "an integer" if integer else "a finite number"
    if high != math.inf:
        return f"{want} in [{low}, {high}]"
    return want if low == -math.inf else f"{want} >= {low}"


def check_number(value, name: str, low=-math.inf, high=math.inf, integer=False):
    """value, if is_number accepts it; else ValueError("<name> must be <want>,
    not <value!r>"), quoting at most 60 characters of the value."""
    if not is_number(value, low, high, integer):
        raise ValueError(f"{name} must be {_want(low, high, integer)}, not {value!r:.60}")
    return value


def check_numbers(values, name: str, low=-math.inf, high=math.inf, integer=False) -> list:
    """values, if it is a list whose every entry is_number accepts, in one
    pass; else ValueError naming the field."""
    if not (isinstance(values, list) and _all_numbers(values, low, high, integer)):
        raise ValueError(f"{name} must be a list, each entry {_want(low, high, integer)}")
    return values


class SievemalError(Exception):
    """Base class for all domain errors."""


class MalformedPe(SievemalError):
    """The input bytes are not a parseable PE file; the sample must be excluded."""


class SectionLimitExceeded(SievemalError):
    """Appending a section would push the section count past 65535."""


class ParseError(SievemalError):
    """Rule source text is syntactically invalid."""

    def __init__(self, message, line, column, token=None):
        self.line = line
        self.column = column
        self.token = token
        where = f"line {line}, col {column}"
        if token:
            where += f" near {token!r}"
        super().__init__(f"{message} ({where})")


class UnsupportedConstruct(ParseError):
    """The rule uses a YARA feature outside the supported subset."""


class FeatureFailure(SievemalError):
    """Feature extraction failed; the sample must be excluded."""


class DegenerateData(SievemalError):
    """Training data contains a single class."""


class DegenerateLabels(SievemalError):
    """A metric needs both classes but the labels contain only one."""


class SpecInvalid(SievemalError):
    """A corpus specification or an input file fails validation."""


class PoolExhausted(SievemalError):
    """Fewer harvestable sections exist than the attack requested."""


class BudgetZero(SievemalError):
    """The attack was configured with a zero query budget."""
