"""Finite frames in R^n and C^n, stored as synthesis matrices.

A frame is a list of k vectors f_1, ..., f_k spanning the ambient space;
we identify it with the n-by-k matrix whose columns are the vectors (the
synthesis operator).  The optimal frame bounds are the extreme eigenvalues
of F F*; a frame is *tight* when they coincide, *spherical* when every
vector lies on the unit sphere, and *ellipsoidal* when every vector lies
on a fixed axis-aligned ellipsoid.

Every array the library takes from a caller goes through `_as_array`,
the one place that checks it holds finite numbers of the expected shape
and field; the stored types keep a read-only copy of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .defaults import DEFAULT_TOL, check_positive

#: the array dtype of each field
_DTYPES = {"R": np.float64, "C": np.complex128}


def _check_field(field) -> None:
    if field not in _DTYPES:
        raise ValueError(f"field must be 'R' or 'C', got {field!r}")


def _as_array(values, field=None, ndim: int = 2, square: bool = False,
              copy: bool = False) -> np.ndarray:
    """``values`` as a read-only float64 (field "R") or complex128 ("C")
    array of ``ndim`` axes (square when ``square``); field None takes "C"
    for complex input and "R" otherwise.  ValueError unless every entry is
    a finite number (a bool, string or object is none) and a real array
    has no nonzero imaginary part.  Input of the field's dtype is viewed,
    not copied, unless ``copy``: a stored type asks for a copy it owns."""
    a = np.asarray(values)  # ragged rows raise ValueError here
    if a.dtype.kind not in "iufc":
        raise ValueError(f"entries must be numbers, got dtype {a.dtype}")
    if a.ndim != ndim or square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a {'square ' * square}{ndim}-d array, got shape {a.shape}")
    if field is None:
        field = "C" if a.dtype.kind == "c" else "R"
    _check_field(field)
    if field == "R" and a.dtype.kind == "c":
        if a.imag.any():
            raise ValueError("real array with nonzero imaginary entries")
        a = a.real
    a = np.array(a, _DTYPES[field]) if copy else np.asarray(a, _DTYPES[field]).view()
    if not np.isfinite(a).all():
        raise ValueError("array has non-finite entries")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Frame:
    """An ordered frame of k vectors in R^n or C^n.

    Attributes
    ----------
    field : str
        "R" or "C"; real frames are never silently promoted to complex.
    entries : ndarray
        The n-by-k synthesis matrix; column j is the frame vector f_j.
    """

    field: str
    entries: np.ndarray

    def __post_init__(self):
        _check_field(self.field)
        object.__setattr__(self, "entries", _as_array(self.entries, self.field, copy=True))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j]

    def conj_transpose(self) -> np.ndarray:
        return self.entries.conj().T


@dataclass(frozen=True)
class EllipsoidSpec:
    """Axis lengths a_1 >= a_2 >= ... >= a_n > 0 of an axis-aligned ellipsoid.

    The ellipsoid is {v : sum_j a_j |v_j|^2 = 1}.
    """

    axes: tuple = dc_field(default=())

    def __post_init__(self):
        axes = tuple(_as_array(self.axes, "R", ndim=1).tolist())
        if len(axes) == 0:
            raise ValueError("axes must be nonempty")
        if any(a <= 0 for a in axes):
            raise ValueError("axes must be strictly positive")
        if any(axes[i] < axes[i + 1] for i in range(len(axes) - 1)):
            raise ValueError("axes must be sorted in descending order")
        object.__setattr__(self, "axes", axes)

    @property
    def n(self) -> int:
        return len(self.axes)

    def matrix(self) -> np.ndarray:
        return np.diag(self.axes)


@dataclass(frozen=True)
class FrameBounds:
    """Optimal constants A <= B with A |v|^2 <= sum |<v,f_i>|^2 <= B |v|^2."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper + 1e-15):
            raise ValueError(f"invalid bounds ({self.lower}, {self.upper})")


def frame_operator(F: Frame) -> np.ndarray:
    """The n-by-n positive matrix F F*."""
    return F.entries @ F.entries.conj().T


def frame_bounds(F: Frame) -> FrameBounds:
    """Optimal frame bounds of F: the extreme eigenvalues of F F*.

    Accepts any nonzero matrix; for k <= n the lower bound may be 0
    (diagnostic use), in which case F is not a frame for the full space.
    """
    if np.max(np.abs(F.entries)) == 0:
        raise ValueError("frame_bounds requires a nonzero frame")
    ev = np.linalg.eigvalsh(frame_operator(F))
    lo = float(max(ev[0], 0.0))
    return FrameBounds(lo, float(ev[-1]))


def is_tight(F: Frame, tol: float = DEFAULT_TOL):
    """Decide tightness and report the tight bound.

    Returns ``(tight, B)`` where B = trace(F F*)/n, the common frame bound
    when the frame is tight.  Tight means the optimal bounds agree to a
    relative tolerance: lambda_max - lambda_min <= tol * lambda_max.
    """
    tol = check_positive(tol, "tol")
    b = frame_bounds(F)
    bound = float(np.trace(frame_operator(F)).real) / F.n
    return (b.upper - b.lower) <= tol * b.upper, bound


def is_spherical(F: Frame, tol: float = DEFAULT_TOL) -> bool:
    """True iff every column has unit Euclidean norm within tol."""
    norms = np.linalg.norm(F.entries, axis=0)
    return bool(np.max(np.abs(norms - 1.0)) <= tol)


def is_on_ellipsoid(F: Frame, a: EllipsoidSpec, tol: float = DEFAULT_TOL) -> bool:
    """True iff every column f satisfies <D(a) f, f> = 1 within tol.

    The spherical case is ``a = (1, ..., 1)``.
    """
    if a.n != F.n:
        raise ValueError(f"axis count {a.n} != ambient dimension {F.n}")
    w = np.asarray(a.axes)[:, None]
    vals = np.sum(w * np.abs(F.entries) ** 2, axis=0)
    return bool(np.max(np.abs(vals - 1.0)) <= tol)


def expected_tight_bound(a: EllipsoidSpec, k: int) -> float:
    """Tight-frame bound forced by the ellipsoid: k / (a_1 + ... + a_n)."""
    if k <= a.n:
        raise ValueError(f"need k > n, got k={k}, n={a.n}")
    return k / sum(a.axes)


def simplex_frame(n: int) -> Frame:
    """The prototype spherical tight frame of n+1 vectors in R^n.

    Column p (1-based) is
    sqrt((n+1)/n) * (0, ..., 0, -(p-1)/sqrt((p-1)p), 1/sqrt(p(p+1)), ...,
    1/sqrt(n(n+1))), with the last column (0, ..., 0, -1).  All pairwise
    inner products equal -1/n.
    """
    if n < 1:
        raise ValueError("simplex_frame requires n >= 1")
    scale = np.sqrt((n + 1) / n)
    M = np.zeros((n, n + 1))
    for p in range(1, n + 2):
        for j in range(p, n + 1):  # rows p..n carry 1/sqrt(j(j+1))
            M[j - 1, p - 1] = 1.0 / np.sqrt(j * (j + 1))
        if p >= 2:
            M[p - 2, p - 1] = -(p - 1) / np.sqrt((p - 1) * p)
    return Frame("R", scale * M)


def _check_structure_matrix(U: np.ndarray, field: str, tol: float) -> np.ndarray:
    U = _as_array(U, field, square=True)
    if np.max(np.abs(U.conj().T @ U - np.eye(len(U)))) > tol:
        raise ValueError("matrix is not orthogonal/unitary within tolerance")
    return U


def act_orthogonal(F: Frame, U, tol: float = DEFAULT_TOL) -> Frame:
    """Left action by an orthogonal (unitary) matrix: F -> U F.

    Preserves tightness and sphericity; the Gram matrix F*F is unchanged.
    """
    U = _check_structure_matrix(U, F.field, tol)
    if U.shape[0] != F.n:
        raise ValueError(f"U is {U.shape[0]}x{U.shape[0]}, frame has n={F.n}")
    return Frame(F.field, U @ F.entries)


def _permutation(perm, k: int) -> list:
    perm = list(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError("perm is not a permutation of 0..k-1")
    return perm


def act_permutation(F: Frame, perm) -> Frame:
    """Reorder the frame vectors: column j of the result is f_{perm[j]}.

    ``perm`` is a 0-based permutation of range(k).
    """
    return Frame(F.field, F.entries[:, _permutation(perm, F.k)])


def permutation_matrix(perm) -> np.ndarray:
    """The matrix A with column j equal to e_{perm[j]}, so F A reorders columns."""
    perm = list(perm)
    return np.eye(len(perm))[:, _permutation(perm, len(perm))]


def act_phases(F: Frame, zetas, tol: float = DEFAULT_TOL) -> Frame:
    """Scale column j by the unimodular scalar zetas[j].

    Real frames only admit signs +-1; spherical tightness is preserved.
    """
    z = _as_array(zetas, ndim=1)
    if z.shape != (F.k,):
        raise ValueError(f"need {F.k} phases, got shape {z.shape}")
    if np.max(np.abs(np.abs(z) - 1.0)) > tol:
        raise ValueError("phases must be unimodular")
    if F.field == "R":
        if np.max(np.abs(z.imag)) > tol:
            raise ValueError("real frames admit only +-1 phases")
        z = np.round(z.real)
    return Frame(F.field, F.entries * z[None, :])
