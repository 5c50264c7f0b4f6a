"""Exception hierarchy shared across the engine.

The CLI maps these onto distinct exit codes, so new failure modes should
subclass the closest existing category rather than raising bare Exceptions.
"""


class ThinkerError(Exception):
    """Base class for all engine errors."""


class DatasetError(ThinkerError):
    """Unreadable, malformed, or inconsistent dataset file."""


class ConfigError(ThinkerError):
    """Invalid configuration file, key, or value."""


class BackendError(ThinkerError):
    """Text-generation backend failure (transport or protocol)."""


class LogprobUnsupportedError(ThinkerError):
    """Backend cannot score completions; callers choose their own fallback."""


class EpisodeError(ThinkerError):
    """Illegal episode-state operation, e.g. advancing a terminal episode."""
