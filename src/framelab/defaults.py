"""Default tolerance and step sizes, and the checks of scalar arguments.

They live in a module that loads no numpy, so the command line can build
its parser and read --tol without it; `frames`, `planar` and `grassmann`
re-export the defaults under the same names.
"""

import operator

#: absolute/relative tolerance of every numerical check
DEFAULT_TOL = 1e-9
#: largest max-norm step between consecutive samples of a planar path
DEFAULT_MAX_STEP = 0.05
#: largest step between consecutive Gram points of a holonomy loop
DEFAULT_LOOP_STEP = 0.2


def check_positive(value, source: str) -> float:
    """float(value); ValueError naming ``source`` unless it is finite and > 0."""
    try:
        if 0 < float(value) < float("inf"):  # NaN fails both comparisons
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{source} must be a finite number > 0, got {value!r}")


def check_integer(value, source: str) -> int:
    """operator.index(value); ValueError naming ``source`` for a bool, float or str."""
    if type(value) is int or type(value) is not bool and hasattr(value, "__index__"):
        return operator.index(value)
    raise ValueError(f"{source} must be an integer, got {value!r}")
