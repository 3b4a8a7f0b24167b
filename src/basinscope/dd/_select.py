"""Kernel backend selection: compiled C extension if built, else pure Python.

Set BASINSCOPE_DD_BACKEND=py or =c to force a backend.  Any other value is
reported as a ValueError when the first kernel is made, so that the CLI ends
in one line instead of failing at import.
"""

import os

_choice = os.environ.get("BASINSCOPE_DD_BACKEND")

if _choice == "py":
    from ._kernel_py import BACKEND, OP_AND, OP_DIFF, OP_OR, OP_XOR, Kernel  # noqa: F401
else:
    try:
        from ._kernel_c import BACKEND, OP_AND, OP_DIFF, OP_OR, OP_XOR, Kernel  # noqa: F401
    except ImportError:
        if _choice == "c":
            raise
        from ._kernel_py import BACKEND, OP_AND, OP_DIFF, OP_OR, OP_XOR, Kernel  # noqa: F401

if _choice not in (None, "py", "c"):
    def Kernel(n_vars, node_limit, order=None):  # noqa: F811
        raise ValueError(
            f"BASINSCOPE_DD_BACKEND must be 'py' or 'c', got {_choice!r}")
