"""Exception hierarchy shared across the package."""


class StabevalError(Exception):
    """Base class for all package errors."""


class CorpusError(StabevalError):
    """Dataset ingestion or validation failure."""


class MissingColumn(CorpusError):
    pass


class ParseError(CorpusError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IncompleteRatings(CorpusError):
    pass


class InconsistentBuckets(CorpusError):
    pass


class ScoreMismatch(CorpusError):
    pass


class ScoreOutOfRange(CorpusError):
    """A score too large for the study statistics to stay finite."""


class ConfigError(StabevalError):
    """Invalid configuration file or value."""


class DegenerateRater(StabevalError):
    """A rater's mean score is zero under a multiplicative normalization."""


class MissingErrorCounts(StabevalError):
    """Error-normalization requested on score-only data."""


class MismatchedDocuments(StabevalError):
    pass


class SystemSetMismatch(StabevalError):
    pass


class NoAdmissiblePairs(StabevalError):
    pass


class EmptyWorkload(StabevalError):
    pass


class UnknownRater(StabevalError):
    pass


class TargetUnreachable(StabevalError):
    pass


class QuotaExceedsBucket(StabevalError):
    pass


class BucketArityUnsupported(StabevalError):
    pass


class InvalidSpec(ConfigError):
    """Invalid synthetic-dataset generator specification."""
