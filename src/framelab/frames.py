"""Finite frames in R^n and C^n, stored as synthesis matrices.

A frame is a list of k vectors f_1, ..., f_k spanning the ambient space;
we identify it with the n-by-k matrix whose columns are the vectors (the
synthesis operator).  The optimal frame bounds are the extreme eigenvalues
of F F*; a frame is *tight* when they coincide, *spherical* when every
vector lies on the unit sphere, and *ellipsoidal* when every vector lies
on a fixed axis-aligned ellipsoid.

Every array the library takes from a caller goes through `_as_array`,
the one place that checks it holds finite numbers of the expected shape
and field.  The stored types derive from `defaults._Record`: each
__init__ checks its arguments, then sets its read-only fields once, and
an array field is a read-only copy of its own.
"""

from __future__ import annotations

import numpy as np

from .closedform import simplex_rows
from .defaults import DEFAULT_TOL, _Record, check_field, check_integer, check_positive

#: the array dtype of each field
_DTYPES = {"R": np.float64, "C": np.complex128}


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
    check_field(field)
    if field == "R" and a.dtype.kind == "c":
        if a.imag.any():
            raise ValueError("real array with nonzero imaginary entries")
        a = a.real
    a = np.array(a, _DTYPES[field]) if copy else np.asarray(a, _DTYPES[field]).view()
    if not np.isfinite(a).all():
        raise ValueError("array has non-finite entries")
    a.flags.writeable = False
    return a


class Frame(_Record):
    """An ordered frame of k vectors in R^n or C^n.

    Attributes
    ----------
    field : str
        "R" or "C"; real frames are never silently promoted to complex.
    entries : ndarray
        The n-by-k synthesis matrix; column j is the frame vector f_j.
    """

    def __init__(self, field: str, entries: np.ndarray):
        check_field(field)
        vars(self).update(field=field, entries=_as_array(entries, field, copy=True))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]

    def conj_transpose(self) -> np.ndarray:
        return self.entries.conj().T


class EllipsoidSpec(_Record):
    """Axis lengths a_1 >= a_2 >= ... >= a_n > 0 of an axis-aligned ellipsoid.

    The ellipsoid is {v : sum_j a_j |v_j|^2 = 1}.
    """

    def __init__(self, axes: tuple = ()):
        axes = tuple(_as_array(axes, "R", ndim=1).tolist())
        if len(axes) == 0:
            raise ValueError("axes must be nonempty")
        if any(a <= 0 for a in axes):
            raise ValueError("axes must be strictly positive")
        if any(axes[i] < axes[i + 1] for i in range(len(axes) - 1)):
            raise ValueError("axes must be sorted in descending order")
        vars(self).update(axes=axes)

    @property
    def n(self) -> int:
        return len(self.axes)


class FrameBounds(_Record):
    """Optimal constants A <= B with A |v|^2 <= sum |<v,f_i>|^2 <= B |v|^2."""

    def __init__(self, lower: float, upper: float):
        if not (0 <= lower <= upper + 1e-15):
            raise ValueError(f"invalid bounds ({lower}, {upper})")
        vars(self).update(lower=lower, upper=upper)


def frame_operator(F: Frame) -> np.ndarray:
    """The n-by-n positive matrix F F*."""
    return F.entries @ F.entries.conj().T


def frame_bounds(F: Frame) -> FrameBounds:
    """Optimal frame bounds of F: the extreme eigenvalues of F F*.

    Accepts any matrix whose F F* is nonzero in floating point; for k <= n
    the lower bound may be 0 (diagnostic use), in which case F is not a
    frame for the full space.
    """
    return _bounds(frame_operator(F))


def _bounds(S: np.ndarray) -> FrameBounds:
    """`frame_bounds` of a frame from its frame operator S = F F*.  ValueError
    unless lambda_max > 0: one rule for the zero frame and for a nonzero
    one whose F F* underflows to 0 (every entry below about 1e-162); an
    F F* that overflows, with eigenvalues NaN, is refused too."""
    ev = np.linalg.eigvalsh(S)
    if not ev[-1] > 0:
        raise ValueError("frame_bounds requires a nonzero frame operator with finite "
                         f"eigenvalues, got {ev[-1]:g}")
    lo = float(max(ev[0], 0.0))
    return FrameBounds(lo, float(ev[-1]))


def is_tight(F: Frame, tol: float = DEFAULT_TOL):
    """Decide tightness and report the tight bound.

    Returns ``(tight, B)`` where B = c = trace(F F*)/n, the common frame
    bound when the frame is tight.  Tight means the optimal bounds agree
    to a relative tolerance: lambda_max - lambda_min <= tol * lambda_max.
    F F* is formed once, for both.

    With S = F F* and D = S - c I, every eigenvalue of S lies within
    ||D||_2 <= ||D||_F of c, and lambda_max >= c, the mean eigenvalue.  So
    2 ||D||_F <= tol * c proves lambda_max - lambda_min <= 2 ||D||_2 <=
    tol * c <= tol * lambda_max, and a frame with c > 0 that passes this
    bound is tight with no ``eigvalsh``.  Every other frame is decided on
    the eigenvalues of S; one whose S is 0 (the zero frame, or one whose
    F F* underflows) is refused there, as by `frame_bounds`.  The two
    rules can disagree only through rounding, when lambda_max - lambda_min
    is within rounding of tol * lambda_max.
    """
    tol = check_positive(tol, "tol")
    S = frame_operator(F)
    c = float(np.trace(S).real) / F.n
    D = S - c * np.eye(F.n)
    if c > 0 and 2 * np.vdot(D, D).real ** 0.5 <= tol * c:
        return True, c
    b = _bounds(S)
    return (b.upper - b.lower) <= tol * b.upper, c


def is_spherical(F: Frame, tol: float = DEFAULT_TOL) -> bool:
    """True iff every column has unit Euclidean norm within tol."""
    norms = np.linalg.norm(F.entries, axis=0)
    return bool(abs(norms - 1.0).max() <= check_positive(tol, "tol"))


def is_on_ellipsoid(F: Frame, a: EllipsoidSpec, tol: float = DEFAULT_TOL) -> bool:
    """True iff every column f satisfies <D(a) f, f> = 1 within tol.

    The spherical case is ``a = (1, ..., 1)``.
    """
    if a.n != F.n:
        raise ValueError(f"axis count {a.n} != ambient dimension {F.n}")
    w = np.asarray(a.axes)[:, None]
    vals = np.sum(w * np.abs(F.entries) ** 2, axis=0)
    return bool(abs(vals - 1.0).max() <= check_positive(tol, "tol"))


def expected_tight_bound(a: EllipsoidSpec, k: int) -> float:
    """Tight-frame bound forced by the ellipsoid: k / (a_1 + ... + a_n)."""
    k = check_integer(k, "k")
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
    return Frame("R", np.array(simplex_rows(n)))


#: the Newton steps `_retract` takes before it refuses
_RETRACT_STEPS = 100
#: the spread of log column weights past which `_retract` refuses: whitening
#: scales a column's parts by up to e^{spread/2}, so past 2 ln(1/eps) a
#: rounding error alone grows to the size of the data
_WEIGHT_SPREAD = -2 * np.log(np.finfo(float).eps)


def _retract(M) -> np.ndarray:
    """Retract an n x k frame, or an (m, n, k) stack of them, onto the
    spherical tight frames, stopping once max|F F* - (k/n) I| < 1e-13 over
    the stack; the input, columns normalized, is returned when it passes
    this rule before any Newton step.  ValueError, before dividing by its
    norm, for a zero or NaN column; also ValueError ("... did not converge"
    or "... failed") after _RETRACT_STEPS Newton steps, once the log column
    weights spread past _WEIGHT_SPREAD (about 72), or when a factorization
    is singular or a step overflows.

    The rule is Newton's method on the column weights W = e^t (the radial
    isotropic position of Barthe 1998; Hamilton and Moitra 2021).  The
    leverage scores tau of M W^{1/2} are the diagonal of
    Q = W^{1/2} M* (M W M*)^{-1} M W^{1/2}, and the frame
    sqrt(k/n) (M W M*)^{-1/2} M W^{1/2} is tight with unit columns exactly
    when tau = n/k.  Newton minimizes the convex log det(M W M*) - (n/k)
    sum t, whose gradient is tau - n/k and Hessian diag(tau) - |Q|^2.  The
    step adds 1 1^T / k to the Hessian, fixing the scale of W (the null
    vector 1), and 1e-12 I, so that it stays a descent step where the
    Hessian is singular to rounding (a frame that all but splits into
    orthogonal blocks, each with a scale of its own); it is cut to 1 in
    max norm.  Before each step M is whitened by the Cholesky factor of
    M M*, with the last step's weights folded in: a left factor moves no
    leverage score, and every solve sees rows near orthonormal.  Once
    max|1/tau - k/n| < 1e-13, which bounds max|F F* - (k/n) I| by the same,
    the frame is formed (one ``eigh``) and checked.  An input with no tight
    position, such as two parallel columns of three in R^2, drives the
    weights apart without bound, and is refused at the spread cap, before
    whitening can blow rounding errors up into a spurious tight frame.

    The alternating projection M -> sqrt(k/n) (M M*)^{-1/2} M, then
    normalize the columns (Tropp, Dhillon, Heath and Strohmer 2005), lands
    on the same Gram point: each of its steps multiplies by an n x n matrix
    on the left and a positive diagonal on the right, so its limit is
    A M D as well; with W = D^2 its Gram matrix is
    (k/n) W^{1/2} M* (M W M*)^{-1} M W^{1/2}, which depends on W alone, and
    W is unique up to scale (Barthe).  The two frames differ only by an
    orthogonal (unitary) map, within the fibre O_n.
    """
    n, k = M.shape[-2:]
    norms = np.linalg.norm(M, axis=-2, keepdims=True)
    if not norms.min() > 0:  # a NaN fails too
        raise ValueError("cannot retract: a frame column is zero or NaN")
    M, c, diag, t = M / norms, k / n, np.arange(k), 0
    if abs(M @ M.conj().swapaxes(-1, -2) - c * np.eye(n)).max() < 1e-13:
        return M
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(_RETRACT_STEPS):
                A = M @ M.conj().swapaxes(-1, -2)
                B = np.linalg.solve(np.linalg.cholesky(A), M)
                Q = B.conj().swapaxes(-1, -2) @ B
                tau = Q.real[..., diag, diag]
                if abs(1 / tau - c).max() < 1e-13:
                    w, V = np.linalg.eigh(A)
                    F = (V / np.sqrt(w)[..., None, :]) @ (V.conj().swapaxes(-1, -2) @ M)
                    F /= np.linalg.norm(F, axis=-2, keepdims=True)
                    if abs(F @ F.conj().swapaxes(-1, -2) - c * np.eye(n)).max() < 1e-13:
                        return F
                hess = 1 / k - np.abs(Q) ** 2
                hess[..., diag, diag] += tau + 1e-12
                s = np.linalg.solve(hess, (1 / c - tau)[..., None])[..., 0]
                s /= np.maximum(np.max(np.abs(s), axis=-1, keepdims=True), 1)
                t = t + s
                if np.max(np.ptp(t, axis=-1)) > _WEIGHT_SPREAD:
                    break
                M = B * np.exp(s / 2)[..., None, :]
    except (np.linalg.LinAlgError, FloatingPointError) as err:
        raise ValueError(f"retraction onto spherical tight frames failed: {err}") from None
    raise ValueError("retraction onto spherical tight frames did not converge")


def act_orthogonal(F: Frame, U, tol: float = DEFAULT_TOL) -> Frame:
    """Left action by an orthogonal (unitary) matrix: F -> U F.

    Preserves tightness and sphericity; the Gram matrix F*F is unchanged.
    """
    U = _as_array(U, F.field, square=True)
    if abs(U.conj().T @ U - np.eye(len(U))).max() > check_positive(tol, "tol"):
        raise ValueError("matrix is not orthogonal/unitary within tolerance")
    if U.shape[0] != F.n:
        raise ValueError(f"U is {U.shape[0]}x{U.shape[0]}, frame has n={F.n}")
    return Frame(F.field, U @ F.entries)


def _permutation(perm, k: int) -> list:
    """``perm`` as a list of ints; ValueError unless each entry passes
    `check_integer`'s rule and together they permute range(k)."""
    perm = [check_integer(p, "perm entry") for p in perm]
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
    tol = check_positive(tol, "tol")
    if abs(abs(z) - 1.0).max() > tol:
        raise ValueError("phases must be unimodular")
    if F.field == "R":
        if abs(z.imag).max() > tol:
            raise ValueError("real frames admit only +-1 phases")
        z = np.round(z.real)
    return Frame(F.field, F.entries * z[None, :])
