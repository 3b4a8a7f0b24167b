"""Reduced ordered binary decision diagram kernel and exports."""

from ._errors import NodeLimitError
from ._select import BACKEND, OP_AND, OP_DIFF, OP_OR, OP_XOR
from .express import ExprStyle, dnf_states, factored, isop_cover, isop_expression, to_expression
from .manager import DEFAULT_NODE_LIMIT, DdManager, StateSet, node_limit_from_env

__all__ = [
    "BACKEND",
    "OP_AND",
    "OP_OR",
    "OP_XOR",
    "OP_DIFF",
    "NodeLimitError",
    "DdManager",
    "StateSet",
    "DEFAULT_NODE_LIMIT",
    "node_limit_from_env",
    "ExprStyle",
    "to_expression",
    "dnf_states",
    "factored",
    "isop_cover",
    "isop_expression",
]
