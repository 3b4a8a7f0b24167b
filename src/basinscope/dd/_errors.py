"""The kernels' shared exception, in a module that imports neither kernel,
so that callers catch one NodeLimitError whichever kernel is loaded."""


class NodeLimitError(MemoryError):
    """Raised when the diagram grows past the configured node cap."""
