"""What the paper gives in closed form: the simplex frame, the dimensions of
the frame and Gram spaces, and the one-redundant orbit counts.

Plain integers and floats, no numpy: the ``simplex``, ``dims`` and
``enumerate-1red`` subcommands print from this module without loading
numpy, and `frames`, `grassmann` and `stratification` read the same
formulas from here.
"""

import math

from .defaults import check_field, check_integer


def _check_shape(k, n):
    """(k, n) as ints; ValueError unless both are integers with k > n >= 1."""
    k, n = check_integer(k, "k"), check_integer(n, "n")
    if not k > n >= 1:
        raise ValueError("need k > n >= 1")
    return k, n


def _stratum_block_dim(k_blk: int, n_blk: int, field: str) -> int:
    """Dimension of the non-orthodecomposable Gram points of one (k, n) block."""
    if field == "R":
        return (k_blk - n_blk - 1) * (n_blk - 1)
    return 2 * n_blk * (k_blk - n_blk) - k_blk + 1


def expected_dimensions(k: int, n: int, field: str) -> dict:
    """Closed-form dimensions of the Gram space, the frame space, and their
    non-orthodecomposable strata.

    Real: dimG = dimN = (k-n-1)(n-1) and dimF = dimM = (k-n/2-1)(n-1).
    Complex: dimG = dimN = 2n(k-n)-k+1 and dimF = dimM = 2n(k-n)+n^2-k+1.
    """
    k, n = _check_shape(k, n)
    check_field(field)
    dim_g = _stratum_block_dim(k, n, field)
    # a Gram point's fiber of frames is an orbit of O(n) (U(n)), acting freely
    dim_f = dim_g + (n * (n - 1) // 2 if field == "R" else n * n)
    return {"dimG": dim_g, "dimF": dim_f, "dimN": dim_g, "dimM": dim_f}


def simplex_rows(n: int) -> list:
    """The n rows, of n+1 floats each, of the prototype simplex frame's
    synthesis matrix (see `frames.simplex_frame`).

    Row j (1-based) carries 1 in columns 1..j and -j in column j+1, over
    sqrt(j(j+1)), all times sqrt((n+1)/n).
    """
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError("simplex_frame requires n >= 1")
    scale = math.sqrt((n + 1) / n)
    rows = []
    for j in range(1, n + 1):
        r = math.sqrt(j * (j + 1))
        rows.append([scale * (1.0 / r)] * j + [scale * (-j / r)] + [0.0] * (n - j))
    return rows


def one_redundant_counts(n: int) -> tuple:
    """(points, permutation orbits, sign orbits) of the rank-1 real Gram
    points on n+1 coordinates: (2^n, floor((n+1)/2) + 1, 1); see
    `grassmann.enumerate_one_redundant`."""
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError("need n >= 1")
    # conjugating by a diagonal sign matrix realises any off-diagonal sign
    # pattern, so there is one sign orbit
    return 2 ** n, (n + 1) // 2 + 1, 1
