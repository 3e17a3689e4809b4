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

import functools
import math
import random

import numpy as np

from .closedform import one_redundant_counts
from .defaults import DEFAULT_LOOP_STEP, _Record, check_field, check_integer, check_positive
from .frames import DEFAULT_TOL, Frame, _as_array, is_spherical, is_tight

#: required spectral gap between the n-th and (n+1)-th eigenvalue of P
RANK_GAP = 0.5
#: machine epsilon of float64
_EPS = float(np.finfo(np.float64).eps)


class GramPoint(_Record):
    """A k-by-k self-adjoint matrix R = (k/n) P, P a rank-n projection
    with unit diagonal (equivalently P_ii = n/k)."""

    def __init__(self, field: str, n: int, entries: np.ndarray):
        check_field(field)
        a = _as_array(entries, field, square=True, copy=True)
        n = check_integer(n, "n")
        if not (0 < n < a.shape[0]):
            raise ValueError(f"need 0 < n < k, got n={n}, k={a.shape[0]}")
        vars(self).update(field=field, n=n, entries=a)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def projection(self) -> np.ndarray:
        """The projection P = (n/k) R."""
        return (self.n / self.k) * self.entries


class OrbitWitness(_Record):
    """An orthogonal/unitary U with G = U F, plus the achieved residual."""

    def __init__(self, U: np.ndarray, residual: float):
        vars(self).update(U=U, residual=residual)


class GramCheck(_Record):
    """Per-invariant diagnostics for a Gram-point candidate."""

    def __init__(self, self_adjoint: bool, idempotent: bool, unit_diagonal: bool, rank_ok: bool):
        vars(self).update(self_adjoint=self_adjoint, idempotent=idempotent,
                          unit_diagonal=unit_diagonal, rank_ok=rank_ok)

    @property
    def ok(self) -> bool:
        return self.self_adjoint and self.idempotent and self.unit_diagonal and self.rank_ok


def _split(R, n: int):
    """The split (l_1, gap, l_k) of the spectrum of the self-adjoint part H
    of P = (n/k) R, for one k-by-k R and 0 < n < k, that `_split_refusal`
    judges: bounds from one product where they decide it, else the
    eigenvalues of `_eigh_frames`.

    Every eigenvalue l of H has |l (l - 1)| <= ||H^2 - H||_2 <= delta =
    ||H^2 - H||_F.  For delta < 1/4 each l therefore lies within
    e = (1 - sqrt(1 - 4 delta))/2 of 0 or 1 (the inner root; the outer
    deviation (sqrt(1 + 4 delta) - 1)/2 is smaller).  If m eigenvalues lie
    near 1, |tr H - m| <= k e, so for k e < 1/4 m = n exactly when
    |tr H - n| < 1/2.  Then l_1 and l_k lie within e of 1 and 0 and the gap
    is at least 1 - 2 e: the bounds (1 - e, 1 - 2 e, e), which pass the
    rule as e < 1/4.  Any other input gets the ``eigh`` split, an
    overflowing product among them (its delta is infinite or NaN).
    """
    k = R.shape[0]
    P = (n / k) * R
    H = (P + P.conj().T) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        delta = _squared_norms(H @ H - H) ** 0.5
    if delta < 0.25:
        e = (1 - math.sqrt(1 - 4 * delta)) / 2
        if k * e < 0.25 and abs(np.trace(H).real - n) < 0.5:
            return 1 - e, 1 - 2 * e, e
    return _eigh_frames(R, n)[1]


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
    the spectrum of P splits into n eigenvalues near 1 and k-n near 0
    (``rank_ok``): the split `_split` reports, which needs no
    eigendecomposition near a projection, passes `_split_refusal`'s rule,
    a gap of at least RANK_GAP and both extremes within 1/4 of 1 and 0.
    """
    M, tol = _as_array(M, square=True), check_positive(tol, "tol")
    n = check_integer(n, "n")
    k = M.shape[0]
    scale = max(1.0, float(abs(M).max()))
    sa = bool(abs(M - M.conj().T).max() <= tol * scale)
    P = (n / k) * M
    idem = bool(abs(P @ P - P).max() <= tol * scale)
    diag = bool(abs(M.diagonal() - 1.0).max() <= tol)
    rank_ok = 0 < n < k and not _split_refusal(_split(M, n))
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

    F = sqrt(k/n) Q* for an orthonormal basis Q of the range of the
    projection P = (n/k) R, found by a certified range finder with no
    eigendecomposition (`_recovered_frames`).  Requires `is_gram_point`'s
    ``eigh`` rule for the spectrum of P: a gap of at least RANK_GAP
    between the n-th and (n+1)-th eigenvalues, and the extreme
    eigenvalues within 1/4 of 1 and 0 (so 2R is refused, while 1.2R
    passes).  The range finder certifies that rule, and an input it
    cannot certify gets the ``eigh`` of P, which reports what it refuses.
    The frame is determined by R up to an orthogonal (unitary) map, and
    the range finder's differs from the ``eigh`` frame's by one.
    """
    F, split = _recovered_frames(R.entries, R.n)
    if refusal := _split_refusal(split):
        raise ValueError(refusal)
    return Frame(R.field, F)


@functools.lru_cache(maxsize=64)
def _probe(k: int, n: int) -> np.ndarray:
    """The range finder's fixed probe: a read-only k-by-n standard Gaussian
    from the standard library's generator seeded by (k, n): no global state."""
    gauss = random.Random(f"{k},{n}").gauss
    omega = np.array([gauss(0.0, 1.0) for _ in range(k * n)]).reshape(k, n)
    omega.flags.writeable = False
    return omega


def _squared_norms(A):
    """||A||_F^2 of one matrix, or of each matrix of a stack; an overflow
    gives inf without a warning."""
    if A.ndim == 2:
        return np.vdot(A, A).real
    return np.einsum("...ij,...ij->...", A.conj(), A).real


def _recovered_frames(R, n: int):
    """sqrt(k/n) times an orthonormal basis (as rows) of the range of the
    rank-n projection P = (n/k) R, and the split of the spectrum of P that
    `_split_refusal` judges, for one Gram matrix or a stack (0 < n < k).

    A range finder (Halko, Martinsson and Tropp, SIAM Review 53, 2011)
    spans range(H Omega), H = (P + P*)/2 and Omega the fixed k-by-n probe
    `_probe`: for a rank-n projection H that is range(H).  Its rows
    X = L^-1 (H Omega)*, L L* the Cholesky factor of (H Omega)*(H Omega),
    are orthonormal up to rounding.  One power step X H, made orthonormal
    by one Newton-Schulz step, gives the frame.  The same products certify
    it.  With rho = ||X H - X||_F, D = (X H)(X H)* - I and d = ||D||_F:
    - X X* = (X H)(X H)* - E X* - X E* - E E* for E = X H - X, so
      e = ||X X* - I||_2 <= (rho + sqrt(1 + d + 2 rho^2))^2 - 1, and the
      orthonormal rows Q* = (X X*)^-1/2 X have ||Q* H - Q*||_F <= r =
      rho / sqrt(1 - e);
    - a unit x = Q y has x* H x >= 1 - r, so H has n eigenvalues >= 1 - r
      (Courant-Fischer); the squares of the other k - n sum to at most
      s^2 = ||H||_F^2 - n (1 - r)^2, so each lies in [-s, s], and the gap
      is at least g = 1 - r - s; by the same sum the largest, l_1, has
      l_1^2 <= (1 - r)^2 + s^2, so |l_1 - 1| <= max(r, s);
    - for the eigenvectors V' of those, V'*(H Q - Q) = (L' - I) V'* Q with
      |1 - l'| >= 1 - s, so the sine of the angle between range(Q) and the
      top-n eigenspace V is at most sigma = r / (1 - s) (Davis-Kahan);
    - the power step scales that angle's tangent by at most s / (1 - r),
      to t = s sigma / ((1 - r) sqrt(1 - sigma^2));
    - the step X H - D X H / 2 keeps the row space and maps each
      eigenvalue 1 + f of (X H)(X H)* to 1 - 3f^2/4 + f^3/4, so its rows
      are orthonormal to within d^2.
    So F*F differs from the Gram matrix of the ``eigh`` frame (the top-n
    eigenvectors of H) by at most b = (k/n) (t + d^2) in any entry.  The
    frame is taken when g >= RANK_GAP and max(r, s) <= 1/4, so the
    ``eigh`` rule of `_split_refusal` holds too, and b <= n eps, the
    rounding error of forming F*F itself: the two frames then agree to
    working precision, up to an orthogonal (unitary) map.  Its split is
    the bounds (1 - r, g, s), which pass that rule.  Every other matrix
    gets the ``eigh`` frame and split of `_eigh_frames`: one far from a
    projection, one whose products overflow, and one whose noise keeps b
    above n eps.  A stack in which H Omega has numerical rank below n
    somewhere takes the ``eigh`` path whole.
    """
    k = R.shape[-1]
    H = (R + R.swapaxes(-1, -2).conj()) * (n / (2 * k))
    with np.errstate(all="ignore"):
        Yt = _probe(k, n).T @ H  # (H Omega)*
        try:
            L = np.linalg.cholesky(Yt @ Yt.swapaxes(-1, -2).conj())
        except np.linalg.LinAlgError:  # H Omega has numerical rank < n somewhere
            ok = np.zeros(R.shape[:-2], bool)
        else:
            X = np.linalg.inv(L) @ Yt
            XH = X @ H
            rho = _squared_norms(XH - X) ** 0.5
            D = XH @ XH.swapaxes(-1, -2).conj()
            diagonal = np.einsum("...ii->...i", D)
            diagonal -= 1
            d2 = _squared_norms(D)
            r = rho / (2 - (rho + (1 + d2 ** 0.5 + 2 * rho * rho) ** 0.5) ** 2) ** 0.5
            s = abs(_squared_norms(H) - n * (1 - r) ** 2) ** 0.5
            sigma = r / (1 - s)
            t = s * sigma / ((1 - r) * (1 - sigma * sigma) ** 0.5)
            gap = 1 - r - s
            ok = (gap >= RANK_GAP) & (np.maximum(r, s) <= 0.25) & ((k / n) * (t + d2) <= n * _EPS)
            D *= -math.sqrt(k / n) / 2  # F = sqrt(k/n) (I - D/2) X H
            diagonal += math.sqrt(k / n)
            F = D @ XH
            split = np.array((1 - r, gap, s)).T
    if R.ndim == 2 or not ok.any():
        return (F, split) if ok.all() else _eigh_frames(R, n)
    if not ok.all():
        F[~ok], split[~ok] = _eigh_frames(R[~ok], n)
    return F, split


def _eigh_frames(R, n: int):
    """The ``eigh`` frame sqrt(k/n) V* of R, V the top-n eigenvectors of
    the self-adjoint part of P = (n/k) R, and the split (l_1, l_n - l_{n+1},
    l_k) of its descending eigenvalues l, for one matrix or a stack."""
    k = R.shape[-1]
    P = (n / k) * R
    ev, V = np.linalg.eigh((P + P.swapaxes(-1, -2).conj()) / 2)
    ev, top = ev[..., ::-1], V[..., ::-1][..., :n]  # descending
    split = np.stack((ev[..., 0], ev[..., n - 1] - ev[..., n], ev[..., -1]), -1)
    return np.sqrt(k / n) * top.swapaxes(-1, -2).conj(), split


def _split_refusal(split) -> str:
    """Why the split (l_1, gap, l_k) of P breaks the library's one split
    rule, gap >= RANK_GAP and l_1, l_k within 1/4 of 1 and 0, or ""."""
    top, gap, bottom = map(float, split)
    if not gap >= RANK_GAP:
        return f"eigenvalues not clustered at 0 and 1 (gap {gap:.3g} < {RANK_GAP})"
    if not (abs(top - 1) <= 0.25 and abs(bottom) <= 0.25):
        return (f"eigenvalues not clustered at 0 and 1 (extreme eigenvalues {top:.3g}"
                f" and {bottom:.3g}, not within 0.25 of 1 and 0)")
    return ""


def same_orbit(F: Frame, G: Frame, tol: float = DEFAULT_TOL):
    """Witness that F and G differ by an orthogonal (unitary) map, or None.

    If the Gram matrices agree entrywise within tol, returns an
    OrbitWitness with U = (n/k) G F*, read-only, which satisfies G = U F.
    """
    if (F.n, F.k, F.field) != (G.n, G.k, G.field):
        raise ValueError("frames have mismatched shape or field")
    RF = F.conj_transpose() @ F.entries
    RG = G.conj_transpose() @ G.entries
    if abs(RF - RG).max() > check_positive(tol, "tol"):
        return None
    U = (F.n / F.k) * (G.entries @ F.conj_transpose())
    U.flags.writeable = False
    residual = float(abs(U @ F.entries - G.entries).max())
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
    if abs(abs(z) - 1.0).max() > 1e-12:
        raise ValueError("phases must be unimodular")
    v = np.concatenate(([1.0 + 0j], z))
    return GramPoint("C", 1, np.outer(v, v.conj()))


class OneRedundantEnumeration(_Record):
    """The finite set of rank-1 real Gram points on n+1 coordinates, as one
    read-only (2^n, n+1, n+1) float64 stack of their entries, with orbit
    counts under vector permutation and sign flips."""

    def __init__(self, points: np.ndarray, permutation_orbits: int, sign_orbits: int):
        vars(self).update(points=points, permutation_orbits=permutation_orbits,
                          sign_orbits=sign_orbits)


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


def lift_gram_path(path, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Frames over a path of real Gram points, each aligned to its predecessor.

    Returns a read-only (m, n, k) float64 array F with F[i]^T F[i] = R_i.
    F[0] is the frame `frame_from_gram` recovers from R_0, and F[i] is the
    frame of R_i turned by the orthogonal Procrustes fit onto F[i-1].  All m
    frames come from one stacked range finder (`_recovered_frames`), and
    the fits W_i between consecutive raw frames from one stacked SVD; the
    turns are the running products W_1 ... W_i.

    Three rules decide each index i, in this order, and the first index
    that breaks one is refused (ValueError naming it): the Gram step
    |R_i - R_{i-1}| is at most DEFAULT_LOOP_STEP = 0.2 in max norm
    (sampling density); the frame of R_i reproduces R_i within ``tol``
    (else R_i is no Gram point); and the Procrustes margin
    (n/k) sigma_min(F[i-1] F[i]^T) = sqrt(1 - ||P_i - P_{i-1}||_2^2),
    P = (n/k) R, read off the fit's SVD, is above ``tol``, so the fit is
    unique (Kato 1966, I 4.6) and the step stays in one local
    trivialization of F -> G.  The margin is at most 1, so a path of two
    or more points refuses ``tol`` >= 1 before any step.
    """
    tol, pts = check_positive(tol, "tol"), list(path)
    if not pts or any(p.field != "R" or (p.k, p.n) != (pts[0].k, pts[0].n) for p in pts):
        raise ValueError("need a nonempty path of real Gram points sharing (k, n)")
    if len(pts) > 1 and tol >= 1:
        raise ValueError(f"tol {tol:g} >= 1 refuses every step: a Procrustes margin is at most 1")
    k, n = pts[0].k, pts[0].n
    R = np.stack([p.entries for p in pts])
    raw = _recovered_frames(R, n)[0]
    fits, smin = _procrustes(raw[:-1], raw[1:])
    steps = np.max(np.abs(np.diff(R, axis=0, prepend=R[:1])), axis=(1, 2))
    misses = np.max(np.abs(raw.swapaxes(-1, -2) @ raw - R), axis=(1, 2))
    margins = np.concatenate(([np.inf], (n / k) * smin))
    bad = (steps > DEFAULT_LOOP_STEP) | (misses > tol) | ~(margins > tol)
    if bad.any():
        i = int(np.argmax(bad))
        if steps[i] > DEFAULT_LOOP_STEP:
            raise ValueError(f"gram step {steps[i]:.3g} at index {i} exceeds {DEFAULT_LOOP_STEP}")
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


def holonomy_sign(loop, tol: float = DEFAULT_TOL) -> int:
    """Sign of the orthogonal transformation picked up around a Gram loop.

    The loop R_0, ..., R_{m-1} (first point == last point within ``tol``)
    is closed by R_0 once more and lifted to aligned frames F by
    `lift_gram_path`, so the closing step, index m, answers to the lift's
    three rules like every other step.  F[m] is the frame of R_0 turned
    by the product of all the fits: returns the sign of det(F[m] F[0]^T).
    The sign belongs to the loop that joins consecutive samples inside
    their Procrustes balls; the fixed step bound holds the samples that
    dense, which no rule checked on them can replace.
    Refuses (ValueError) fewer than two points, an open loop and every
    fault the lift refuses, ``tol`` >= 1 among them.
    """
    pts, tol = list(loop), check_positive(tol, "tol")
    if len(pts) < 2:
        raise ValueError("loop needs at least two points")
    if pts[0].k != pts[-1].k or abs(pts[0].entries - pts[-1].entries).max() > tol:
        raise ValueError("loop is not closed (first != last)")
    F = lift_gram_path(pts + pts[:1], tol)
    return 1 if np.linalg.det(F[-1] @ F[0].T) > 0 else -1
