"""Exception types shared across the package."""


class AsmsieveError(Exception):
    """Base class for all asmsieve errors."""


class ConfigurationError(AsmsieveError):
    """Invalid configuration: bad flag combinations, mismatched corpora, etc."""


class ListingParseError(AsmsieveError):
    """Malformed disassembly listing. Carries the 1-based line number, and
    names it as ``path:line`` when the path is given."""

    def __init__(self, message: str, line_number: int, path=None):
        where = f"line {line_number}" if path is None else f"{path}:{line_number}"
        super().__init__(f"{where}: {message}")
        self.line_number = line_number


class SchemaError(AsmsieveError):
    """Feature document failed validation against the schema."""


class ExtractionFailedError(AsmsieveError):
    """Every extraction attempt produced an unusable response."""

    def __init__(self, message: str, transcript=None):
        super().__init__(message)
        self.transcript = transcript


class ClientTransportError(AsmsieveError):
    """The model client could not complete a request (network, HTTP, ...)."""

    def __init__(self, message: str, transcript=None):
        super().__init__(message)
        self.transcript = transcript


class FixtureMissError(AsmsieveError):
    """Replay was asked for a prompt/temperature that was never recorded."""


class SnapshotError(AsmsieveError):
    """Index snapshot is corrupt, truncated, or has an unsupported version."""


class DuplicateIdError(AsmsieveError):
    """A function id was added to an index or corpus twice."""


class MissingFeatureError(AsmsieveError):
    """Evaluation referenced function ids with no feature document."""


class MissingEmbeddingError(AsmsieveError):
    """A scorer needed embeddings that the store does not contain."""
