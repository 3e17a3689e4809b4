"""Commutant partitions, orthodecomposability, and tangent-space regularity.

A Gram point R is stratified by the partition of coordinate indices into
the minimal subsets A whose coordinate projections Q_A commute with R;
equivalently, the connected components of the support graph of R.  At a
point with trivial partition the diagonal-extraction map on the
Grassmannian has full rank k-1 (a regular point), and the stratum through
R is a manifold whose dimension is a sum of closed-form per-block terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cellcomplex import _components
from .defaults import check_integer
from .frames import (DEFAULT_TOL, Frame, _as_array, _check_field, act_orthogonal,
                     act_permutation, act_phases)
from .grassmann import (RANK_GAP, GramPoint, _spectral_split, complement, frame_from_gram,
                        gram, torus_point)
from .planar import from_planar, random_planar_frame

#: relative eigenvalue cutoff for numerical rank decisions
RANK_RTOL = 1e-8


@dataclass(frozen=True)
class Partition:
    """A partition of {1..k}, blocks sorted by minimum element (1-based)."""

    k: int
    blocks: tuple

    def __post_init__(self):
        k = check_integer(self.k, "k")
        blocks = (tuple(sorted(check_integer(i, "block entry") for i in b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        if sorted(i for b in blocks for i in b) != list(range(1, k + 1)):
            raise ValueError("blocks must partition 1..k")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def trivial(self) -> bool:
        return len(self.blocks) == 1


@dataclass(frozen=True)
class TangentReport:
    """Rank of the diagonal-extraction differential at a Gram point."""

    rank: int
    regular: bool
    stratum_dim: int
    ambient_dim: int


def commutant_partition(M, tol: float = DEFAULT_TOL) -> Partition:
    """Minimal index sets A with Q_A M = M Q_A, as a partition of {1..k}.

    Computed as the connected components of the support graph on 1..k with
    an edge (i, j) iff |M_ij| > tol * max|M|.
    """
    M = _as_array(M, square=True)
    k = M.shape[0]
    mag = np.abs(M)
    support = mag > tol * mag.max(initial=0.0)
    # row i of the support as an int whose bit j is set iff i ~ j
    packed = np.packbits(support | support.T, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    comps = _components(k, lambda i: int.from_bytes(buf[i * width:(i + 1) * width], "little"))
    return Partition(k, tuple(tuple(i + 1 for i in c) for c in comps))


def is_orthodecomposable(F: Frame, tol: float = DEFAULT_TOL):
    """Whether F splits into sub-frames tight for orthogonal subspaces.

    Returns ``(decomposable, partition)`` where the partition is the
    commutant partition of the Gram matrix; F is orthodecomposable iff it
    has more than one block.
    """
    p = commutant_partition(gram(F, tol).entries, tol)
    return (not p.trivial), p


def check_block_cardinalities(p: Partition, k: int, n: int) -> bool:
    """True iff every block size is a multiple of k' = k / gcd(k, n)."""
    if p.k != k:
        raise ValueError(f"partition is over {p.k} indices, expected {k}")
    kp = k // math.gcd(k, n)
    return all(len(b) % kp == 0 for b in p.blocks)


def _stratum_block_dim(k_blk: int, n_blk: int, field: str) -> int:
    if field == "R":
        return (k_blk - n_blk - 1) * (n_blk - 1)
    return 2 * n_blk * (k_blk - n_blk) - k_blk + 1


def tangent_report(R: GramPoint, tol: float = DEFAULT_TOL) -> TangentReport:
    """Numerical rank of the diagonal-extraction differential at R.

    With orthonormal bases u_1..u_n of range(P) and u_{n+1}..u_k of ker(P),
    P = (n/k) R, the differential's range is spanned by the real vectors
    Re(u_i * conj(u_j)) (entrywise product), plus Im(...) in the complex
    case, over 1 <= i <= n < j <= k.  Their Gram matrix is the Hadamard
    product Re(P * conj(I - P)), whose eigenvalues give the rank.  The
    point is regular iff the rank is k-1 (always <= k-1: every spanning
    vector sums to zero).  stratum_dim sums the per-block closed-form
    dimensions over the commutant partition of R.
    """
    k, n = R.k, R.n
    _, V, gap = _spectral_split(R.projection(), n)
    if gap < RANK_GAP:
        raise ValueError("not a valid Gram point: eigenvalues of P not split at rank n")
    P = V[:, :n] @ V[:, :n].conj().T
    ev = np.linalg.eigvalsh(np.real(P * (np.eye(k) - P).conj()))
    rank = int(np.sum(ev > ev[-1] * RANK_RTOL)) if ev[-1] > 0 else 0
    sigma = commutant_partition(R.entries, tol)
    dim = 0
    for blk in sigma.blocks:
        kb = len(blk)
        nb_exact = kb * n / k
        nb = round(nb_exact)
        if abs(nb_exact - nb) > 1e-9:
            raise ValueError(f"block of size {kb} has non-integer rank {nb_exact}")
        dim += _stratum_block_dim(kb, nb, R.field)
    ambient = n * (k - n) if R.field == "R" else 2 * n * (k - n)
    return TangentReport(rank, rank == k - 1, dim, ambient)


def expected_dimensions(k: int, n: int, field: str) -> dict:
    """Closed-form dimensions of the Gram space, the frame space, and their
    non-orthodecomposable strata.

    Real: dimG = dimN = (k-n-1)(n-1) and dimF = dimM = (k-n/2-1)(n-1).
    Complex: dimG = dimN = 2n(k-n)-k+1 and dimF = dimM = 2n(k-n)+n^2-k+1.
    """
    if not (k > n >= 1):
        raise ValueError("need k > n >= 1")
    _check_field(field)
    if field == "R":
        dim_g = (k - n - 1) * (n - 1)
        dim_f = (2 * k - n - 2) * (n - 1) // 2
    else:
        dim_g = 2 * n * (k - n) - k + 1
        dim_f = 2 * n * (k - n) + n * n - k + 1
    return {"dimG": dim_g, "dimF": dim_f, "dimN": dim_g, "dimM": dim_f}


def harmonic_frame(k: int, n: int, field: str = "R") -> Frame:
    """An equal-norm tight frame from Fourier rows.

    Complex: the first n rows of the k-point unitary DFT matrix, scaled by
    sqrt(k/n).  Real: rows from the orthonormal cosine/sine basis - the
    frequency pairs (cos 2*pi*j*t/k, sin 2*pi*j*t/k) for j = 1..n//2, plus
    the constant row when n is odd - scaled by sqrt(k/n).  Columns have
    equal (unit) norm automatically.
    """
    if not (k > n >= 1):
        raise ValueError("need k > n >= 1")
    _check_field(field)
    t = np.arange(k)
    if field == "C":
        rows = [np.exp(-2j * np.pi * j * t / k) / np.sqrt(k) for j in range(n)]
        M = np.vstack(rows)
        return Frame("C", np.sqrt(k / n) * M)
    rows = []
    if n % 2 == 1:
        rows.append(np.ones(k) / np.sqrt(k))
    for j in range(1, n // 2 + 1):
        ang = 2 * np.pi * j * t / k
        rows.append(np.cos(ang) * np.sqrt(2 / k))
        rows.append(np.sin(ang) * np.sqrt(2 / k))
    M = np.vstack(rows)
    return Frame("R", np.sqrt(k / n) * M)


def _dct_orthogonal(d: int) -> np.ndarray:
    """Orthogonal d x d matrix whose first column is constant (nowhere zero)."""
    j = np.arange(d)[:, None]
    m = np.arange(d)[None, :]
    M = np.cos(np.pi * j * (2 * m + 1) / (2 * d)) * np.sqrt(2 / d)
    M[0, :] = 1 / np.sqrt(d)
    return M.T  # rows of the DCT-II basis become columns


def construct_regular_point(k: int, n: int) -> GramPoint:
    """A real Gram point with trivial commutant partition (a regular point).

    When gcd(k, n) = 1 every valid Gram point is regular and the harmonic
    frame's Gram matrix is returned.  Otherwise, with d = gcd(k, n) and
    k' = k/d, n' = n/d: seed R' from the harmonic frame on (k', n'), form
    the d-fold block diagonal R, and conjugate by V, the identity with U
    on the rows and columns 0, k', 2k', ... (0-based), where U is the d x d
    orthogonal matrix with nowhere-zero first column.  The result keeps
    unit diagonal and has connected support.
    """
    if not k > n >= 1:
        raise ValueError("need k > n >= 1")
    d = math.gcd(k, n)
    if d == 1:
        return gram(harmonic_frame(k, n, "R"))
    kp, np_ = k // d, n // d
    Rp = gram(harmonic_frame(kp, np_, "R")).entries
    R = np.zeros((k, k))
    for b in range(d):
        R[b * kp:(b + 1) * kp, b * kp:(b + 1) * kp] = Rp
    V = np.eye(k)
    grid = np.arange(d) * kp
    V[np.ix_(grid, grid)] = _dct_orthogonal(d)
    return GramPoint("R", n, V.T @ R @ V)


def random_tight_frame(k: int, n: int, field: str, rng, spread: float = 0.0) -> Frame:
    """A pseudo-random spherical tight frame.

    With spread = 0: the harmonic frame moved by a random orthogonal
    (unitary) map, a random permutation, and random phases (one orbit's
    worth of randomness; the Gram point keeps the harmonic zero pattern).
    With spread > 0 the Gram point itself is randomized: real frames in
    dimension 2 (or codimension 1 or 2, via the Naimark complement and the
    rank-1 enumeration) are sampled exactly through the planar
    parameterization; other shapes kick the synthesis matrix by a Gaussian
    of size ``spread`` and retract onto the spherical tight frames by
    alternating the tightening map F -> sqrt(k/n) (F F*)^{-1/2} F with
    column normalization (retrying with smaller kicks if the alternation
    stalls near a stratum boundary).
    """
    def dress(F):
        if field == "R":
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            zetas = rng.choice([-1.0, 1.0], size=k)
        else:
            Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            zetas = np.exp(2j * np.pi * rng.random(k))
        F = act_orthogonal(F, Q, tol=1e-8)
        F = act_permutation(F, rng.permutation(k))
        return act_phases(F, zetas)

    if spread <= 0:
        return dress(harmonic_frame(k, n, field))

    if field == "R" and n == 2:
        return dress(from_planar(random_planar_frame(k, rng).z))
    if field == "R" and n == k - 2 and k >= 5:
        R = gram(from_planar(random_planar_frame(k, rng).z))
        return dress(frame_from_gram(complement(R)))
    if n == k - 1:
        if field == "C":
            R1 = torus_point(np.exp(2j * np.pi * rng.random(k - 1)))
        else:
            v = np.concatenate(([1.0], rng.choice([-1.0, 1.0], size=k - 1)))
            R1 = GramPoint("R", 1, np.outer(v, v))
        return dress(frame_from_gram(complement(R1)))

    base = dress(harmonic_frame(k, n, field))
    kick = spread
    for _ in range(6):
        M = base.entries + kick * rng.standard_normal((n, k))
        if field == "C":
            M = M + 1j * kick * rng.standard_normal((n, k))
        for _ in range(300):
            w, V = np.linalg.eigh(M @ M.conj().T)
            M = np.sqrt(k / n) * (V @ np.diag(1 / np.sqrt(w)) @ V.conj().T) @ M
            M = M / np.linalg.norm(M, axis=0, keepdims=True)
            tight_err = np.max(np.abs(M @ M.conj().T - (k / n) * np.eye(n)))
            if tight_err < 1e-13:
                return Frame(field, M)
        kick /= 4
    raise ValueError("retraction onto spherical tight frames did not converge")
