"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are inconsistent (messages name both operands)."""


class MaskError(ValueError):
    """An attention mask leaves a query row with no visible keys."""


class ConfigError(ValueError):
    """A model or run configuration violates its invariants."""


class LengthError(ValueError):
    """A sequence is empty, too long, or a cache would overflow."""


class TrainingError(RuntimeError):
    """Training produced a non-finite loss; message carries the step index."""


class ResourceLimitError(RuntimeError):
    """A run would exceed the configured memory guard."""
