"""Error types that the CLI maps to exit codes; importable by every module."""


class ConfigError(ValueError):
    """Invalid configuration or usage (CLI exit code 1)."""


class DataError(ValueError):
    """Malformed or unusable input data (CLI exit code 2)."""
