"""Gram points of spherical tight frames and the frame <-> projection bridge.

The Gram matrix R = F*F of a spherical tight frame of k vectors in n
dimensions equals (k/n) P for a rank-n projection P with constant diagonal
n/k.  R is a complete invariant for the orbit of F under orthogonal
(unitary) transformations, so the set of such matrices serves as the orbit
space.  This module provides the invariant map and its local inverse, the
Naimark complement R -> (k/(k-n))(I - (n/k)R), the finite enumeration for
one redundant vector, and the holonomy sign of a loop of Gram points
(the determinant picked up when lifting the loop back to frames).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_LOOP_STEP, check_integer, check_positive
from .frames import DEFAULT_TOL, Frame, _as_array, _check_field, is_spherical, is_tight

#: required spectral gap between the n-th and (n+1)-th eigenvalue of P
RANK_GAP = 0.5


@dataclass(frozen=True)
class GramPoint:
    """A k-by-k self-adjoint matrix R = (k/n) P, P a rank-n projection
    with unit diagonal (equivalently P_ii = n/k)."""

    field: str
    n: int
    entries: np.ndarray

    def __post_init__(self):
        _check_field(self.field)
        a = _as_array(self.entries, self.field, square=True, copy=True)
        n = check_integer(self.n, "n")
        if not (0 < n < a.shape[0]):
            raise ValueError(f"need 0 < n < k, got n={n}, k={a.shape[0]}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", a)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def projection(self) -> np.ndarray:
        """The projection P = (n/k) R."""
        return (self.n / self.k) * self.entries


@dataclass(frozen=True)
class OrbitWitness:
    """An orthogonal/unitary U with G = U F, plus the achieved residual."""

    U: np.ndarray
    residual: float


@dataclass(frozen=True)
class GramCheck:
    """Per-invariant diagnostics for a Gram-point candidate."""

    self_adjoint: bool
    idempotent: bool
    unit_diagonal: bool
    rank_ok: bool

    @property
    def ok(self) -> bool:
        return self.self_adjoint and self.idempotent and self.unit_diagonal and self.rank_ok


def _spectral_split(P, n: int):
    """Eigenvalues (descending), matching eigenvectors and the gap
    ev[..., n-1] - ev[..., n] of the self-adjoint part of P, for one matrix
    or a stack of them (..., k, k)."""
    ev, V = np.linalg.eigh((P + P.swapaxes(-1, -2).conj()) / 2)
    ev, V = ev[..., ::-1], V[..., ::-1]
    if not 0 < n < ev.shape[-1]:
        raise ValueError(f"need 0 < n < k, got n={n}, k={ev.shape[-1]}")
    return ev, V, ev[..., n - 1] - ev[..., n]


def gram(F: Frame, tol: float = DEFAULT_TOL) -> GramPoint:
    """The orbit invariant F*F of a spherical tight frame.

    Raises ValueError naming the violated precondition when F is not
    unit-norm or not tight within tol.
    """
    tol = check_positive(tol, "tol")
    problems = []
    if F.k <= F.n:
        problems.append(f"k={F.k} <= n={F.n} (no redundancy)")
    if not is_spherical(F, tol):
        problems.append("columns are not unit vectors")
    tight, _ = is_tight(F, tol)
    if not tight:
        problems.append("frame is not tight")
    if problems:
        raise ValueError("not a spherical tight frame: " + "; ".join(problems))
    return GramPoint(F.field, F.n, F.conj_transpose() @ F.entries)


def is_gram_point(M, n: int, tol: float = DEFAULT_TOL) -> GramCheck:
    """Check the Gram-point invariants of a square matrix.

    Verifies M* = M, idempotency of P = (n/k) M, unit diagonal, and that
    the spectrum of P splits into n eigenvalues near 1 and k-n near 0 with
    a gap of at least RANK_GAP.
    """
    M = _as_array(M, square=True)
    k = M.shape[0]
    scale = max(1.0, float(np.max(np.abs(M))))
    sa = bool(np.max(np.abs(M - M.conj().T)) <= tol * scale)
    P = (n / k) * M
    idem = bool(np.max(np.abs(P @ P - P)) <= tol * scale)
    diag = bool(np.max(np.abs(np.diag(M) - 1.0)) <= tol)
    rank_ok = False
    if 0 < n < k:
        ev, _, gap = _spectral_split(P, n)
        rank_ok = bool(gap >= RANK_GAP and abs(ev[0] - 1.0) <= 0.25 and abs(ev[-1]) <= 0.25)
    return GramCheck(sa, idem, diag, rank_ok)


def complement(R: GramPoint) -> GramPoint:
    """Naimark complement: (k/(k-n)) (I - (n/k) R), a Gram point with rank k-n.

    An involution: complement(complement(R)) == R.
    """
    k, n = R.k, R.n
    I = np.eye(k, dtype=R.entries.dtype)
    return GramPoint(R.field, k - n, (k / (k - n)) * (I - R.projection()))


def frame_from_gram(R: GramPoint) -> Frame:
    """Recover a spherical tight frame F with F*F = R.

    The projection P = (n/k) R is eigendecomposed; the n eigenvectors with
    eigenvalue near 1 are stacked (conjugate-transposed) and scaled by
    sqrt(k/n).  Requires the spectrum of P to split with a gap of at least
    RANK_GAP between the n-th and (n+1)-th eigenvalues.
    """
    F, gap = _recovered_frames(R.entries, R.n)
    _check_gap(gap)
    return Frame(R.field, F)


def _recovered_frames(R, n: int):
    """sqrt(k/n) V* for the top n eigenvectors V of P = (n/k) R, and the
    spectral gap of P, for one Gram matrix or a stack of them."""
    k = R.shape[-1]
    _, V, gap = _spectral_split((n / k) * R, n)
    return np.sqrt(k / n) * V[..., :n].swapaxes(-1, -2).conj(), gap


def _check_gap(gap) -> None:
    if gap < RANK_GAP:
        raise ValueError(f"eigenvalues not clustered at 0 and 1 (gap {gap:.3g} < {RANK_GAP})")


def same_orbit(F: Frame, G: Frame, tol: float = DEFAULT_TOL):
    """Witness that F and G differ by an orthogonal (unitary) map, or None.

    If the Gram matrices agree entrywise within tol, returns an
    OrbitWitness with U = (n/k) G F*, which satisfies G = U F.
    """
    if (F.n, F.k, F.field) != (G.n, G.k, G.field):
        raise ValueError("frames have mismatched shape or field")
    RF = F.conj_transpose() @ F.entries
    RG = G.conj_transpose() @ G.entries
    if np.max(np.abs(RF - RG)) > tol:
        return None
    U = (F.n / F.k) * (G.entries @ F.conj_transpose())
    residual = float(np.max(np.abs(U @ F.entries - G.entries)))
    return OrbitWitness(U, residual)


def torus_point(zetas) -> GramPoint:
    """The rank-1 complex Gram point with entries zeta_{i-1} * conj(zeta_{j-1}).

    ``zetas`` are n unimodular scalars; zeta_0 = 1 is prepended, giving a
    (n+1)-by-(n+1) matrix: k = n+1 times the projection onto the span of
    (1, zeta_1, ..., zeta_n)/sqrt(n+1).
    """
    z = _as_array(zetas, "C", ndim=1)
    if z.size == 0:
        raise ValueError("need at least one phase")
    if np.max(np.abs(np.abs(z) - 1.0)) > 1e-12:
        raise ValueError("phases must be unimodular")
    v = np.concatenate(([1.0 + 0j], z))
    return GramPoint("C", 1, np.outer(v, v.conj()))


@dataclass(frozen=True)
class OneRedundantEnumeration:
    """The finite set of rank-1 real Gram points on n+1 coordinates,
    together with orbit counts under vector permutation and sign flips."""

    points: tuple
    permutation_orbits: int
    sign_orbits: int


#: points per stacked outer product in `enumerate_one_redundant`
_ENUM_CHUNK = 256


def enumerate_one_redundant(n: int) -> OneRedundantEnumeration:
    """All 2^n real Gram points for one redundant vector, with orbit counts.

    The points are R = (n+1) v v^T for v = (1, e_1, ..., e_n)/sqrt(n+1),
    e_j = +-1 (the leading sign is fixed because v and -v give the same R),
    listed in the order of b = 0 ... 2^n - 1 with e_{j+1} = -1 exactly when
    bit j of b is set.  Sign rows and outer products are built in stacks of
    _ENUM_CHUNK points, so no 2^n-long float array is held next to the
    points.  A permutation orbit is determined by the number m of minus
    signs up to a global flip, that is by min(m, n+1-m); a sign orbit by
    the all-plus form.  The counts come out as 2^n points, ceil(n/2) + 1
    permutation orbits and a single sign orbit; the orbit canonicalisation
    is cross-checked against literal group enumeration in the tests.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    index, points, perm_classes = np.arange(2 ** n), [], set()
    for start in range(0, 2 ** n, _ENUM_CHUNK):
        bits = (index[start:start + _ENUM_CHUNK, None] >> np.arange(n)) & 1
        signs = np.ones((len(bits), n + 1))
        signs[:, 1:] -= 2 * bits
        v = signs / np.sqrt(n + 1)
        points.extend(GramPoint("R", 1, R) for R in (n + 1) * (v[:, :, None] * v[:, None, :]))
        minus = bits.sum(axis=1)
        perm_classes.update(np.minimum(minus, n + 1 - minus).tolist())
    # diag(s) R diag(s) realises any off-diagonal sign pattern: one orbit
    return OneRedundantEnumeration(tuple(points), len(perm_classes), 1)


def _procrustes(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthogonal V minimizing ||V B - A||_F (V may have det -1), for one
    pair of matrices or a stack of pairs."""
    U, _, Wt = np.linalg.svd(A @ B.swapaxes(-1, -2).conj())
    return U @ Wt


def lift_gram_path(path, tol: float = DEFAULT_TOL,
                   max_step: float = DEFAULT_LOOP_STEP) -> np.ndarray:
    """Frames over a path of real Gram points, each aligned to its predecessor.

    Returns a read-only (m, n, k) float64 array F with F[i]^T F[i] = R_i.
    F[0] is the frame `frame_from_gram` recovers from R_0, and F[i] is the
    frame of R_i turned by the orthogonal Procrustes fit onto F[i-1].  All m
    frames come from one stacked eigendecomposition, and the fits W_i
    between consecutive raw frames from one stacked SVD; the turns are the
    running products W_1 ... W_i.

    Refuses (ValueError) in the order a point-by-point lift meets the
    faults: the spectral gap of R_0 (below RANK_GAP); then, at the first
    index i with a fault, the Gram step |R_i - R_{i-1}| (max norm above
    ``max_step``), the spectral gap of R_i and the alignment residual
    |F[i] - F[i-1]| (max norm above 2.5 max_step + 1e-6).  Last, it
    refuses a path with a frame that misses its R_i by more than ``tol``
    in max norm: that R_i is not a Gram point.
    """
    max_step = check_positive(max_step, "max_step")
    pts = list(path)
    if not pts or any(p.field != "R" or (p.k, p.n) != (pts[0].k, pts[0].n) for p in pts):
        raise ValueError("need a nonempty path of real Gram points sharing (k, n)")
    n = pts[0].n
    R = np.stack([p.entries for p in pts])
    raw, gaps = _recovered_frames(R, n)
    turns = np.concatenate((np.eye(n)[None], _procrustes(raw[:-1], raw[1:])))
    span = 1
    while span < len(turns):  # inclusive scan: turns[i] = W_1 ... W_i
        turns[span:] = turns[:-span] @ turns[span:]
        span *= 2
    frames = turns @ raw
    steps, resids = (np.max(np.abs(np.diff(a, axis=0, prepend=a[:1])), axis=(1, 2))
                     for a in (R, frames))
    bad = (steps > max_step) | (gaps < RANK_GAP) | (resids > 2.5 * max_step + 1e-6)
    if bad.any():
        i = int(np.argmax(bad))
        if steps[i] > max_step:
            raise ValueError(f"gram step {steps[i]:.3g} at index {i} exceeds {max_step}")
        _check_gap(gaps[i])
        raise ValueError(f"alignment residual {resids[i]:.3g} at index {i}: step too large")
    misses = np.max(np.abs(raw.swapaxes(-1, -2) @ raw - R), axis=(1, 2))
    if misses.max() > tol:
        i = int(np.argmax(misses > tol))
        raise ValueError(f"frame at index {i} misses its Gram point by {misses[i]:.3g}"
                         f" > tol {tol:g}: not a Gram point")
    frames.flags.writeable = False
    return frames


def holonomy_sign(loop, tol: float = DEFAULT_TOL,
                  max_step: float = DEFAULT_LOOP_STEP) -> int:
    """Sign of the orthogonal transformation picked up around a Gram loop.

    The loop (first point == last point within ``tol``, consecutive points
    within ``max_step`` in max norm) is lifted to aligned frames by
    `lift_gram_path`.  Returns sign(det U) for the U with F_N = U F_0.
    Refuses (ValueError) an open loop, every fault `lift_gram_path` refuses
    (a step too large to track reliably), and a U that is not orthogonal
    or whose determinant is not +-1 within 1e-6.
    """
    pts = list(loop)
    if len(pts) < 2:
        raise ValueError("loop needs at least two points")
    if any(p.field != "R" for p in pts):
        raise ValueError("holonomy sign is defined for real Gram points")
    k, n = pts[0].k, pts[0].n
    if any((p.k, p.n) != (k, n) for p in pts):
        raise ValueError("loop points have mismatched (k, n)")
    if np.max(np.abs(pts[0].entries - pts[-1].entries)) > tol:
        raise ValueError("loop is not closed (first != last)")
    F = lift_gram_path(pts, tol, max_step)
    U = (n / k) * (F[-1] @ F[0].T)
    if np.max(np.abs(U @ U.T - np.eye(n))) > 1e-6:
        raise ValueError("final alignment is not orthogonal; refine the loop")
    det = float(np.linalg.det(U))
    if abs(abs(det) - 1.0) > 1e-6:
        raise ValueError("unreliable holonomy determinant; refine the loop")
    return 1 if det > 0 else -1


def nearest_gram_point(M, n: int, max_iter: int = 200, tol: float = 1e-13) -> GramPoint:
    """Project a nearby matrix onto the Gram-point set.

    Alternates the spectral projection onto rank-n projections with the
    unit-diagonal correction; converges quickly for inputs close to a
    valid Gram point (used to refine interpolated loop points).
    """
    M = _as_array(M, square=True)
    field = "C" if M.dtype.kind == "c" else "R"
    k = M.shape[0]
    R = (M + M.conj().T) / 2
    for _ in range(max_iter):
        _, V, _ = _spectral_split((n / k) * R, n)
        P = V[:, :n] @ V[:, :n].conj().T
        R = (k / n) * P
        d = np.real(np.diag(R)) - 1.0
        err_diag = float(np.max(np.abs(d)))
        R = R - np.diag(d.astype(R.dtype))
        PP = (n / k) * R
        err_idem = float(np.max(np.abs(PP @ PP - PP)))
        if err_diag <= tol and err_idem <= tol:
            break
    else:
        raise ValueError("projection onto the Gram-point set did not converge")
    return GramPoint(field, n, R)


def refine_loop(loop, rounds: int = 1):
    """Insert reprojected midpoints between consecutive loop points."""
    pts = list(loop)
    for _ in range(rounds):
        out = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            mid = nearest_gram_point((a.entries + b.entries) / 2, a.n)
            out.extend([mid, b])
        pts = out
    return pts
