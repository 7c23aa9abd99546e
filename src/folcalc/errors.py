"""Error types shared across the library and surfaced by the CLI."""

from __future__ import annotations


class FolcalcError(Exception):
    """Base error; ``code`` is a stable machine-readable identifier."""

    code = "error"

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message)
        self.message = message
        self.location = location


class ValidationError(FolcalcError):
    """Malformed or out-of-contract input."""

    code = "invalid-input"


class FrozenRecordError(ValidationError, AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen record."""


class DegenerateConfigurationError(FolcalcError):
    """The pairing matrix of the configuration is singular."""

    code = "degenerate-configuration"


class NotPseudoeffectiveError(FolcalcError):
    """No decomposition with a nef positive part exists relative to the configuration."""

    code = "not-pseudoeffective"


class InconsistentSamplesError(FolcalcError):
    """Samples do not fit a quasi-polynomial of any admissible period."""

    code = "inconsistent-samples"


class NotGeneralTypeError(FolcalcError):
    """The extracted leading coefficient is not positive."""

    code = "not-general-type"


class InconsistentModelError(FolcalcError):
    """Model data is numerically inconsistent: a chi that is not an integer, a negative contribution
    sum, a failed dihedral crepant cancellation or a root-of-unity sum that is not conjugation-symmetric."""

    code = "inconsistent-model"


class SearchBudgetError(FolcalcError):
    """The configuration search outgrew ``bounds.MAX_CONFIGURATIONS`` or ``bounds.MAX_SEARCH_STEPS``,
    or reached a denominator of more than ``rationals.MAX_DIGITS`` digits."""

    code = "search-budget-exceeded"
