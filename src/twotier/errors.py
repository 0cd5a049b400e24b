"""Exception types raised across the forecasting pipeline, and `quoted`,
the one rule for quoting input text in their messages.

Every error the library raises deliberately derives from ``TwoTierError``,
so callers (notably the CLI) can map failures onto stable exit codes.
"""

# an error quotes at most this many characters of an input's text
_QUOTED_CHARS = 40


def quoted(text: str) -> str:
    """repr(text) for an error message; a longer text is cut to its first
    _QUOTED_CHARS characters, then `...` and its length."""
    if len(text) <= _QUOTED_CHARS:
        return repr(text)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


class TwoTierError(Exception):
    """Base class for all library errors."""


# --- data ingestion / series construction ---

class MalformedRow(TwoTierError):
    """CSV row with a bad timestamp, non-numeric power, or duplicate slot."""


class GridMisalignment(TwoTierError):
    """Timestamp does not fall on a multiple of the sampling interval."""


class IncompleteDay(TwoTierError):
    """A calendar day inside the covered span is missing samples."""

    note = ""

    def __init__(self, date):
        self.date = date
        super().__init__(f"incomplete day: {date.isoformat()}{self.note}")


class MissingDay(IncompleteDay):
    """A calendar day inside the covered span has no rows at all."""

    note = " (no rows)"


class NegativePower(TwoTierError):
    """Power reading below the -1 W sensor-noise tolerance."""


class TooFewDays(TwoTierError):
    """Series too short for the requested chronological split."""


class InsufficientHistory(TwoTierError):
    """Target day lacks the required number of preceding days."""


class UnknownDate(TwoTierError):
    """Requested date is not present in the data set."""


# --- model fitting / prediction ---

class InsufficientTrainingDays(TwoTierError):
    """Training series too short for the model configuration."""


class DimensionMismatch(TwoTierError):
    """Query vector length differs from the stored context length."""


class GridMismatch(TwoTierError):
    """Day profile is not on the grid the model/forecast expects."""


class SingularStep(TwoTierError):
    """Damped normal equations unsolvable even at the damping cap."""


# --- local correction ---

class Underdetermined(TwoTierError):
    """More basis coefficients than window samples (2L+1 > n)."""


class NumericalFailure(TwoTierError):
    """Least-squares solve failed (corrupt or non-finite input)."""


class IndexOutOfDay(TwoTierError):
    """Correction anchor index outside the valid intra-day range."""


# --- evaluation ---

class LengthMismatch(TwoTierError):
    """Paired vectors have different lengths."""


class EmptyInput(TwoTierError):
    """Operation requires at least one sample."""


# --- configuration ---

class ConfigError(TwoTierError):
    """Bad key, unparsable value, or inconsistent configuration."""


# --- persistence ---

class PersistenceError(TwoTierError):
    """Base class for model save/load failures."""


class MalformedModelFile(PersistenceError):
    """Model file is structurally unreadable (truncated, bad header)."""


class ChecksumMismatch(PersistenceError):
    """Payload hash does not match the recorded checksum."""


class UnsupportedVersion(PersistenceError):
    """Model file uses a format version this release does not know."""


class InvariantViolation(PersistenceError):
    """Loaded fields violate the model type's invariants."""
