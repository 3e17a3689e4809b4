"""Commutant partitions, orthodecomposability, and tangent-space regularity.

A Gram point R is stratified by the partition of coordinate indices into
the minimal subsets A whose coordinate projections Q_A commute with R;
equivalently, the connected components of the support graph of R.  The
diagonal-extraction map on the Grassmannian has rank k - |partition| at R,
full rank k-1 exactly at a point with trivial partition (a regular point),
and the stratum through R is a manifold whose dimension is a sum of
closed-form per-block terms.
"""

from __future__ import annotations

import math

import numpy as np

from .cellcomplex import _components
from .closedform import _check_shape, _stratum_block_dim
from .defaults import _Record, check_field, check_integer, check_positive
from .frames import (DEFAULT_TOL, Frame, _as_array, _retract, act_orthogonal,
                     act_permutation, act_phases)
from .grassmann import GramPoint, _split, _split_refusal, gram


class Partition(_Record):
    """A partition of {1..k}, blocks sorted by minimum element (1-based)."""

    def __init__(self, k: int, blocks: tuple):
        k = check_integer(k, "k")
        blocks = [tuple(sorted(check_integer(i, "block entry") for i in b)) for b in blocks]
        if k < 1 or not all(blocks):
            raise ValueError(f"need k >= 1 and nonempty blocks, got k={k}, blocks={blocks}")
        blocks = tuple(sorted(blocks))
        if sorted(i for b in blocks for i in b) != list(range(1, k + 1)):
            raise ValueError("blocks must partition 1..k")
        vars(self).update(k=k, blocks=blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def trivial(self) -> bool:
        return len(self.blocks) == 1


class TangentReport(_Record):
    """Rank k - |sigma| of the diagonal-extraction differential at a Gram point,
    regular iff sigma is trivial, and the dimension of sigma's stratum, all
    from one commutant partition sigma."""

    def __init__(self, rank: int, regular: bool, stratum_dim: int, ambient_dim: int):
        vars(self).update(rank=rank, regular=regular, stratum_dim=stratum_dim,
                          ambient_dim=ambient_dim)


def commutant_partition(M, tol: float = DEFAULT_TOL) -> Partition:
    """Minimal index sets A with Q_A M = M Q_A, as a partition of {1..k}.

    Computed as the connected components of the support graph on 1..k with
    an edge (i, j) iff |M_ij| > tol * max|M|.
    """
    M, tol = _as_array(M, square=True), check_positive(tol, "tol")
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
    k, n = _check_shape(k, n)
    if p.k != k:
        raise ValueError(f"partition is over {p.k} indices, expected {k}")
    kp = k // math.gcd(k, n)
    return all(len(b) % kp == 0 for b in p.blocks)


def tangent_report(R: GramPoint, tol: float = DEFAULT_TOL) -> TangentReport:
    """Rank of the diagonal-extraction differential at R, from the
    commutant partition sigma of R at tol.

    With P = (n/k) R, the differential sends a tangent vector [A, P]
    (A skew-adjoint) to diag([A, P]).  A real diagonal D is orthogonal to
    all of these iff tr(A [P, D]) = 0 for every A, iff the skew-adjoint
    [P, D] is 0, iff D is constant on each block of sigma; so rank =
    k - |sigma| for real and complex points, and R is regular (rank k-1)
    iff sigma is trivial.
    stratum_dim sums the closed-form dimensions of the blocks, each of
    rank n_b = k_b n / k; a block size that makes n_b fractional is refused.
    R must split into eigenvalues near 1 and 0 by ``frame_from_gram``'s
    rule (`_split_refusal`: the gap, and the extreme eigenvalues within 1/4
    of 1 and 0), judged on `_split`, which needs no eigendecomposition near
    a projection; a refusal reports the gap or the extremes it breaks.
    """
    k, n = R.k, R.n
    if refusal := _split_refusal(_split(R.entries, n)):
        raise ValueError(refusal)
    sigma = commutant_partition(R.entries, tol)
    if not check_block_cardinalities(sigma, k, n):
        raise ValueError(f"block sizes {[len(b) for b in sigma.blocks]} give a "
                         f"non-integer block rank k_b n / k at k={k}, n={n}")
    dim = sum(_stratum_block_dim(len(b), len(b) * n // k, R.field) for b in sigma.blocks)
    ambient = n * (k - n) if R.field == "R" else 2 * n * (k - n)
    return TangentReport(k - len(sigma), sigma.trivial, dim, ambient)


def harmonic_frame(k: int, n: int, field: str = "R") -> Frame:
    """An equal-norm tight frame from Fourier rows.

    Complex: the first n rows of the k-point unitary DFT matrix, scaled by
    sqrt(k/n).  Real: rows from the orthonormal cosine/sine basis - the
    frequency pairs (cos 2*pi*j*t/k, sin 2*pi*j*t/k) for j = 1..n//2, plus
    the constant row when n is odd - scaled by sqrt(k/n).  Columns have
    equal (unit) norm automatically.
    """
    k, n = _check_shape(k, n)
    check_field(field)
    t = np.arange(k)
    if field == "C":
        rows = [np.exp(-2j * np.pi * j * t / k) / np.sqrt(k) for j in range(n)]
        return Frame("C", np.sqrt(k / n) * np.vstack(rows))
    rows = []
    if n % 2 == 1:
        rows.append(np.ones(k) / np.sqrt(k))
    for j in range(1, n // 2 + 1):
        ang = 2 * np.pi * j * t / k
        rows.append(np.cos(ang) * np.sqrt(2 / k))
        rows.append(np.sin(ang) * np.sqrt(2 / k))
    return Frame("R", np.sqrt(k / n) * np.vstack(rows))


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
    k, n = _check_shape(k, n)
    d = math.gcd(k, n)
    if d == 1:
        return gram(harmonic_frame(k, n, "R"))
    kp, np_ = k // d, n // d
    Rp = gram(harmonic_frame(kp, np_, "R")).entries
    R = np.kron(np.eye(d), Rp)
    V = np.eye(k)
    grid = np.arange(d) * kp
    V[np.ix_(grid, grid)] = _dct_orthogonal(d)
    return GramPoint("R", n, V.T @ R @ V)


def random_tight_frame(k: int, n: int, field: str, rng, spread: float = 0.0) -> Frame:
    """A pseudo-random spherical tight frame.

    With spread = 0: the harmonic frame moved by a random orthogonal
    (unitary) map, a random permutation, and random phases (one orbit's
    worth of randomness; the Gram point keeps the harmonic zero pattern).
    Any other spread must be a finite number > 0 (``check_positive``).
    Then, at every shape, that moved frame's synthesis matrix is kicked by
    a Gaussian of size ``spread`` (in real and imaginary parts for "C") and
    retracted onto the spherical tight frames once by `frames._retract`
    (Newton's method on the column weights, stopping once
    max|F F* - (k/n) I| < 1e-13).  Its ValueError, when it does not
    converge within 100 Newton steps and a column-weight spread of
    2 ln(1/eps), reaches the caller; no smaller kick is tried.
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

    if type(spread) is not bool and spread == 0:
        return dress(harmonic_frame(k, n, field))
    spread = check_positive(spread, "spread")
    M = dress(harmonic_frame(k, n, field)).entries + spread * rng.standard_normal((n, k))
    if field == "C":
        M = M + 1j * spread * rng.standard_normal((n, k))
    return Frame(field, _retract(M))
