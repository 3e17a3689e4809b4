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

from .closedform import one_redundant_counts
from .defaults import DEFAULT_LOOP_STEP, check_field, check_integer, check_positive
from .frames import DEFAULT_TOL, Frame, _as_array, _retract, is_spherical, is_tight

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
        check_field(self.field)
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


def _split_decided(P, n: int):
    """Whether the self-adjoint part H of one k-by-k P splits into n
    eigenvalues near 1 and k-n near 0, decided from one product: the
    verdict `is_gram_point`'s ``eigh`` rule would give (gap >= RANK_GAP,
    extreme eigenvalues within 1/4 of 1 and 0), or None when
    delta = ||H^2 - H||_F and tr H cannot decide it.

    Every eigenvalue l of H has |l (l - 1)| <= ||H^2 - H||_2 <= delta.  For
    delta < 1/4 each l therefore lies within e = (1 - sqrt(1 - 4 delta))/2
    of 0 or 1 (the inner root; the outer deviation (sqrt(1 + 4 delta) - 1)/2
    is smaller).  If m eigenvalues lie near 1, |tr H - m| <= k e, so for
    k e < 1/4 m = n exactly when |tr H - n| < 1/2.  Then the gap is at
    least 1 - 2 e > 1/2 and the extreme eigenvalues lie within e < 1/4 of
    1 and 0: True.  Otherwise the two eigenvalues at the cut lie near the
    same end and the gap is at most 2 e < 1/2: False.  An overflowing
    product gives an infinite or NaN delta, which decides nothing.
    """
    H = (P + P.conj().T) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        delta = float(np.linalg.norm(H @ H - H))
    if not delta < 0.25:
        return None
    e = (1 - np.sqrt(1 - 4 * delta)) / 2
    return bool(abs(np.trace(H).real - n) < 0.5) if H.shape[0] * e < 0.25 else None


def gram(F: Frame, tol: float = DEFAULT_TOL) -> GramPoint:
    """The orbit invariant F*F of a spherical tight frame.

    Raises ValueError naming the violated precondition when F is not
    unit-norm or not tight within tol.
    """
    problems = []
    if F.k <= F.n:
        problems.append(f"k={F.k} <= n={F.n} (no redundancy)")
    if not is_spherical(F, tol):
        problems.append("columns are not unit vectors")
    if not is_tight(F, tol)[0]:
        problems.append("frame is not tight")
    if problems:
        raise ValueError("not a spherical tight frame: " + "; ".join(problems))
    return GramPoint(F.field, F.n, F.conj_transpose() @ F.entries)


def is_gram_point(M, n: int, tol: float = DEFAULT_TOL) -> GramCheck:
    """Check the Gram-point invariants of a square matrix.

    Verifies M* = M, idempotency of P = (n/k) M, unit diagonal, and that
    the spectrum of P splits into n eigenvalues near 1 and k-n near 0 with
    a gap of at least RANK_GAP (``rank_ok``).  The split needs no
    eigendecomposition near a projection: with H = (P + P*)/2 and
    delta = ||H^2 - H||_F, every eigenvalue lies within
    e = (1 - sqrt(1 - 4 delta))/2 of 0 or 1, and for k e < 1/4 the trace
    counts those near 1 (`_split_decided`).  Only when delta or tr H
    cannot decide does ``rank_ok`` come from an ``eigh`` of H, the gap and
    both extreme eigenvalues within 0.25 of 1 and 0.
    """
    M, tol = _as_array(M, square=True), check_positive(tol, "tol")
    n = check_integer(n, "n")
    k = M.shape[0]
    scale = max(1.0, float(np.max(np.abs(M))))
    sa = bool(np.max(np.abs(M - M.conj().T)) <= tol * scale)
    P = (n / k) * M
    idem = bool(np.max(np.abs(P @ P - P)) <= tol * scale)
    diag = bool(np.max(np.abs(np.diag(M) - 1.0)) <= tol)
    rank_ok = _split_decided(P, n) if 0 < n < k else False
    if rank_ok is None:
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
    RANK_GAP between the n-th and (n+1)-th eigenvalues, read off the same
    ``eigh``.  This is the one Gram-point step that needs the eigenvectors:
    `is_gram_point` and `tangent_report` decide the split from
    ||H^2 - H||_F and tr H (`_split_decided`) and run an ``eigh`` only
    when those cannot decide.
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
    if np.max(np.abs(RF - RG)) > check_positive(tol, "tol"):
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
    """The finite set of rank-1 real Gram points on n+1 coordinates, as one
    read-only (2^n, n+1, n+1) float64 stack of their entries, with orbit
    counts under vector permutation and sign flips."""

    points: np.ndarray
    permutation_orbits: int
    sign_orbits: int


def enumerate_one_redundant(n: int) -> OneRedundantEnumeration:
    """All 2^n real Gram points for one redundant vector, with orbit counts.

    The points are R = (n+1) v v^T = s s^T for v = s/sqrt(n+1), s = (1, e_1,
    ..., e_n), e_j = +-1 (the leading sign is fixed because v and -v give the
    same R), stacked in the order of b = 0 ... 2^n - 1 with e_{j+1} = -1
    exactly when bit j of b is set: points[b] holds the entries of the Gram
    point (field "R", n = 1) for sign pattern b.  The read-only stack is
    built by doubling: points[0] is all ones, and for j = 0 ... n-1 the
    block points[2^j : 2^(j+1)] is a copy of points[:2^j] with row and
    column j+1 negated, which sets bit j of every pattern in it.  Every
    entry is a copy or a negation of 1.0, so each is exactly +-1.  A
    permutation orbit is determined by the number m of minus signs up to a
    global flip, that is by min(m, n+1-m), which takes floor((n+1)/2) + 1 =
    ceil(n/2) + 1 values as m runs over 0 ... n; a sign orbit by the
    all-plus form, so there is one.  The tests cross-check both counts
    against literal group enumeration.
    """
    count, permutation_orbits, sign_orbits = one_redundant_counts(n)
    points = np.empty((count, n + 1, n + 1))
    points[0] = 1.0
    for j in range(n):
        block = points[2 ** j:2 ** (j + 1)]
        block[...] = points[:2 ** j]
        block[:, j + 1] *= -1  # row j+1, then column j+1: the corner flips back
        block[:, :, j + 1] *= -1
    points.flags.writeable = False
    return OneRedundantEnumeration(points, permutation_orbits, sign_orbits)


def _procrustes(A: np.ndarray, B: np.ndarray):
    """Orthogonal V minimizing ||V B - A||_F (V may have det -1), and the
    smallest singular value of A B*, for one pair of matrices or a stack
    of pairs.  V is unique exactly when that value is positive."""
    U, s, Wt = np.linalg.svd(A @ B.swapaxes(-1, -2).conj())
    return U @ Wt, s[..., -1]


def lift_gram_path(path, tol: float = DEFAULT_TOL,
                   max_step: float = DEFAULT_LOOP_STEP) -> np.ndarray:
    """Frames over a path of real Gram points, each aligned to its predecessor.

    Returns a read-only (m, n, k) float64 array F with F[i]^T F[i] = R_i.
    F[0] is the frame `frame_from_gram` recovers from R_0, and F[i] is the
    frame of R_i turned by the orthogonal Procrustes fit onto F[i-1].  All m
    frames come from one stacked eigendecomposition, and the fits W_i
    between consecutive raw frames from one stacked SVD; the turns are the
    running products W_1 ... W_i.

    Three rules decide each index i, in this order, and the first index
    that breaks one is refused (ValueError naming it): the Gram step
    |R_i - R_{i-1}| is at most ``max_step`` in max norm (sampling density);
    the frame of R_i reproduces R_i within ``tol`` (else R_i is no Gram
    point); and the Procrustes margin (n/k) sigma_min(F[i-1] F[i]^T) =
    sqrt(1 - ||P_i - P_{i-1}||_2^2), P = (n/k) R, read off the fit's SVD,
    is above ``tol``, so the fit is unique (Kato 1966, I 4.6) and the step
    stays in one local trivialization of F -> G.
    """
    tol, max_step = check_positive(tol, "tol"), check_positive(max_step, "max_step")
    pts = list(path)
    if not pts or any(p.field != "R" or (p.k, p.n) != (pts[0].k, pts[0].n) for p in pts):
        raise ValueError("need a nonempty path of real Gram points sharing (k, n)")
    k, n = pts[0].k, pts[0].n
    R = np.stack([p.entries for p in pts])
    raw = _recovered_frames(R, n)[0]
    fits, smin = _procrustes(raw[:-1], raw[1:])
    steps = np.max(np.abs(np.diff(R, axis=0, prepend=R[:1])), axis=(1, 2))
    misses = np.max(np.abs(raw.swapaxes(-1, -2) @ raw - R), axis=(1, 2))
    margins = np.concatenate(([np.inf], (n / k) * smin))
    bad = (steps > max_step) | (misses > tol) | ~(margins > tol)
    if bad.any():
        i = int(np.argmax(bad))
        if steps[i] > max_step:
            raise ValueError(f"gram step {steps[i]:.3g} at index {i} exceeds {max_step}")
        if misses[i] > tol:
            raise ValueError(f"frame at index {i} misses its Gram point by {misses[i]:.3g}"
                             f" > tol {tol:g}: not a Gram point")
        raise ValueError(f"Procrustes margin {margins[i]:.3g} at index {i} <= tol {tol:g}:"
                         " the fit onto the previous frame is not unique")
    turns = np.concatenate((np.eye(n)[None], fits))
    span = 1
    while span < len(turns):  # inclusive scan: turns[i] = W_1 ... W_i
        turns[span:] = turns[:-span] @ turns[span:]
        span *= 2
    frames = turns @ raw
    frames.flags.writeable = False
    return frames


def holonomy_sign(loop, tol: float = DEFAULT_TOL,
                  max_step: float = DEFAULT_LOOP_STEP) -> int:
    """Sign of the orthogonal transformation picked up around a Gram loop.

    The loop (first point == last point within ``tol``) is lifted to
    aligned frames F by `lift_gram_path` and its three rules.  Returns
    sign(det U) for the Procrustes fit U of F[-1] onto F[0].  Refuses
    (ValueError) fewer than two points, an open loop, every fault the lift
    refuses, and a closing fit whose margin is not above ``tol``.
    """
    pts, tol = list(loop), check_positive(tol, "tol")
    if len(pts) < 2:
        raise ValueError("loop needs at least two points")
    if pts[0].k != pts[-1].k or np.max(np.abs(pts[0].entries - pts[-1].entries)) > tol:
        raise ValueError("loop is not closed (first != last)")
    F = lift_gram_path(pts, tol, max_step)
    n, k = F.shape[1:]
    U, smin = _procrustes(F[-1], F[0])
    margin = (n / k) * smin
    if not margin > tol:
        raise ValueError(f"closing Procrustes margin {margin:.3g} <= tol {tol:g}:"
                         " the fit onto the first frame is not unique")
    return 1 if np.linalg.det(U) > 0 else -1


def nearest_gram_point(M, n: int) -> GramPoint:
    """Project a nearby matrix onto the Gram-point set: F*F, where F is the
    top-n frame of M (as `frame_from_gram` recovers it) retracted by
    `frames._retract`, which stops once max|F F* - (k/n) I| < 1e-13.
    ValueError when it does not stop within 300 steps, or when the top-n
    frame has a zero column.
    """
    M, n = _as_array(M, square=True), check_integer(n, "n")
    F = _retract(_recovered_frames(M, n)[0])
    return GramPoint("C" if M.dtype.kind == "c" else "R", n, F.conj().T @ F)


def refine_loop(loop, rounds: int = 1) -> list:
    """Insert `nearest_gram_point` of (R_i + R_{i+1})/2 between consecutive
    points, ``rounds`` times, mapping all midpoints of a round as one stack.
    ValueError for an empty loop, points that do not share (k, n) and
    field, and a negative ``rounds``.
    """
    pts, rounds = list(loop), check_integer(rounds, "rounds")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if not pts or any((p.field, p.k, p.n) != (pts[0].field, pts[0].k, pts[0].n) for p in pts):
        raise ValueError("need a nonempty loop of Gram points sharing (k, n) and field")
    field, n = pts[0].field, pts[0].n
    for _ in range(rounds if len(pts) > 1 else 0):
        R = np.stack([p.entries for p in pts])
        F = _retract(_recovered_frames((R[:-1] + R[1:]) / 2, n)[0])
        mids = [GramPoint(field, n, m) for m in F.conj().swapaxes(-1, -2) @ F]
        pts = [p for pair in zip(pts, mids) for p in pair] + pts[-1:]
    return pts
