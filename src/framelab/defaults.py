"""Default tolerance and step sizes, the checks of scalar arguments and
of the field, and `_Record`, the read-only base of every stored type.

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
    """float(value); ValueError naming ``source`` unless it is a finite number > 0
    (a bool is not a number here, as in check_integer)."""
    try:
        if type(value) is not bool and 0 < float(value) < float("inf"):  # NaN fails both
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{source} must be a finite number > 0, got {value!r}")


def check_field(field) -> None:
    """ValueError unless field is "R" (real) or "C" (complex)."""
    if field not in ("R", "C"):
        raise ValueError(f"field must be 'R' or 'C', got {field!r}")


def check_integer(value, source: str) -> int:
    """operator.index(value); ValueError naming ``source`` for a bool, float or str."""
    if type(value) is int or type(value) is not bool and hasattr(value, "__index__"):
        return operator.index(value)
    raise ValueError(f"{source} must be an integer, got {value!r}")


class _Record:
    """Read-only fields, set once by a subclass's __init__ through
    ``vars(self).update(...)`` in its parameter order; equality, hash and
    repr go by those fields in that order (hashing a record that holds an
    array or a read-only mapping raises TypeError)."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__qualname__} is read-only: "
                             f"cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"
