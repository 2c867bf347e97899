"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so estimator/model code should
raise the most specific class that applies.
"""

import numpy as np


class DagformerError(Exception):
    """Base class for all package errors."""


class ShapeError(DagformerError):
    """Array dimensions do not match an operation's contract."""


class ContractError(DagformerError):
    """A precondition of an operation was violated."""


class ConfigError(DagformerError):
    """Invalid or incompatible configuration (exit code 2)."""


class DataError(DagformerError):
    """Malformed or out-of-contract input data (exit code 3)."""


class TrainingDivergedError(DagformerError):
    """Loss became non-finite during training (exit code 4)."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class SelectionFailedError(DagformerError):
    """Every candidate in a model-selection run diverged (exit code 5)."""

    def __init__(self, message: str, table=None):
        super().__init__(message)
        self.table = table


class DegenerateInputError(ContractError):
    """An input is degenerate (all-masked softmax row, zero-variance reference)."""


def is_number(value, kind=float) -> bool:
    """The one rule for a number that comes from outside, a config value or an
    API argument: an `int` is a Python or NumPy integer; a `float` is such an
    integer or a Python or NumPy float; a bool, a string or a list is neither.
    Each caller raises its own error, naming its field, before any comparison."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, np.integer) if kind is int
                      else (int, np.integer, float, np.floating))
