"""Exception types shared across the package."""


class StringSheetError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(StringSheetError):
    """An argument has the wrong number of components for the metric model."""


class DegeneracyError(StringSheetError):
    """A quantity the formulas divide by is numerically zero (unbounded speeds,
    singular metric)."""


class CausalityError(StringSheetError):
    """The worldsheet state or initial data is not timelike."""


class WindowError(StringSheetError):
    """A required evaluation point falls outside the sampled data window."""


class NumericalConsistencyError(StringSheetError):
    """The derivative-consistency monitor of the lattice march exceeded its
    tolerance while the fields stayed bounded (the inverse map is exact)."""


class DomainTruncationError(StringSheetError):
    """The closed-form solution blows up inside the requested domain, so a
    staged solve cannot cover it."""


class ConfigError(StringSheetError):
    """A scenario file or constructor argument is malformed."""
