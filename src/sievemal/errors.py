"""Exception hierarchy shared across the toolkit."""


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
    """A corpus specification or its labels file fails validation."""


class PoolExhausted(SievemalError):
    """Fewer harvestable sections exist than the attack requested."""


class BudgetZero(SievemalError):
    """The attack was configured with a zero query budget."""
