"""Planar frames as unit complex k-tuples, chains, and connectivity paths.

A tight frame of k unit vectors in the plane is encoded as z in T^k with
sum(z_j^2) = 0; squaring coordinates maps it onto the space of closed unit
chains (w in T^k with sum(w_j) = 0), a 2^k-fold covering.  This module
constructs explicit paths: chains are straightened to a standard form by
collapsing pairs of links into antipodal position while a reserved triple
absorbs the slack, the straightening is lifted through the covering by
continuation, and the finitely many lift endpoints over the standard chain
are connected to a canonical frame by rotations of zero-square-sum
coordinate subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_MAX_STEP, check_positive
from .frames import DEFAULT_TOL, Frame, _as_array, is_spherical, is_tight
from .grassmann import GramPoint, gram

#: most samples one leg may take; a smaller max_step is refused, not sampled
MAX_LEG_SAMPLES = 2 ** 16
#: largest chain step connect_to_standard straightens with; lift_path refuses
#: chain steps of 1 or more, and a step of half that keeps the roots apart
LIFT_SAFE_STEP = 0.5

_OMEGA = np.exp(2j * np.pi / 3)


def _unit_tuple(values, constraint, tol, what):
    z = _as_array(values, "C", ndim=1, copy=True)
    if z.size < 1:
        raise ValueError(f"{what} must be nonempty")
    if not np.max(np.abs(np.abs(z) - 1.0)) <= tol:
        raise ValueError(f"{what} entries must be unimodular")
    if abs(constraint(z)) > tol:
        raise ValueError(f"{what} constraint violated by {abs(constraint(z)):.3g}")
    return z


@dataclass(frozen=True)
class PlanarFrame:
    """k unit complex numbers with sum of squares zero, both within ``tol``,
    the tolerance the frame was checked at."""

    z: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "z", _unit_tuple(
            self.z, lambda v: np.sum(v ** 2), self.tol, "planar frame"))

    @property
    def k(self) -> int:
        return self.z.size


@dataclass(frozen=True)
class Chain:
    """k unit complex numbers summing to zero (a closed unit-link chain),
    both within ``tol``, the tolerance the chain was checked at."""

    w: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "w", _unit_tuple(self.w, np.sum, self.tol, "chain"))

    @property
    def k(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class FramePath:
    """A sampled path of planar frames or chains.

    ``points`` is a read-only (samples x k) complex array whose row i is
    the k-vector at parameter ``ts[i]``; the parameters increase strictly
    from 0 to 1 and consecutive rows stay within ``max_step`` in the max
    norm.  Every sample must be finite.
    """

    kind: str
    ts: np.ndarray
    points: np.ndarray
    max_step: float

    def __post_init__(self):
        if self.kind not in ("planar", "chain"):
            raise ValueError(f"kind must be 'planar' or 'chain', got {self.kind!r}")
        ts = _as_array(self.ts, "R", ndim=1, copy=True)
        pts = _as_array(self.points, "C", copy=True)
        if len(ts) != len(pts) or len(ts) < 2:
            raise ValueError("path needs matching ts/points with at least two samples")
        if pts.shape[1] < 1:
            raise ValueError("path samples must be nonempty")
        if abs(ts[0]) > 1e-15 or abs(ts[-1] - 1.0) > 1e-15:
            raise ValueError("path parameter must run from 0 to 1")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("path parameter must be strictly increasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "max_step", check_positive(self.max_step, "max_step"))

    @property
    def k(self) -> int:
        return self.points.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]


@dataclass(frozen=True)
class PathReport:
    """validate_path outcome with the worst violation and its location."""

    ok: bool
    max_modulus_error: float
    max_constraint_error: float
    max_step_seen: float
    step_bound: float
    start_error: float
    end_error: float
    worst_violation: float
    worst_t: float
    worst_index: int


def to_planar(F: Frame, tol: float = DEFAULT_TOL) -> PlanarFrame:
    """Encode a spherical tight frame in R^2 as z_j = x_j + i y_j."""
    if F.field != "R" or F.n != 2:
        raise ValueError("to_planar needs a real frame in dimension 2")
    if not is_spherical(F, tol):
        raise ValueError("columns are not unit vectors")
    tight, _ = is_tight(F, tol)
    if not tight:
        raise ValueError("frame is not tight")
    return PlanarFrame(F.entries[0] + 1j * F.entries[1], tol)


def from_planar(z) -> Frame:
    """Decode unit complex numbers into a 2-row real synthesis matrix."""
    z = _as_array(z, "C", ndim=1)
    return Frame("R", np.vstack([z.real, z.imag]))


def square_map(pf: PlanarFrame, tol: float = DEFAULT_TOL) -> Chain:
    """The covering map z -> z^2 (coordinatewise); the image sums to zero.

    ``tol`` is the tolerance ``pf`` was accepted at.  Squaring turns a
    modulus error e into 2e + e^2, so the chain is checked at tol(2 + tol).
    """
    return Chain(pf.z ** 2, tol * (2 + tol))


def to_gram_loop(path: FramePath, tol: float = DEFAULT_TOL):
    """Project a planar path to Gram points (loop when endpoints share a Gram)."""
    if path.kind != "planar":
        raise ValueError("need a planar path")
    return [gram(from_planar(p), tol) for p in path.points]


def standard_chain(k: int) -> Chain:
    """The straightening target: (1,-1,1,-1,...) for even k; for odd k the
    zero-sum triple (w, conj(w), 1) with w = exp(2*pi*i/3), followed by
    (1,-1) pairs."""
    if k < 4:
        raise ValueError("need k >= 4")
    if k % 2 == 0:
        w = [1.0, -1.0] * (k // 2)
    else:
        w = [_OMEGA, np.conj(_OMEGA), 1.0, 1.0, -1.0] + [1.0, -1.0] * ((k - 5) // 2)
    return Chain(np.asarray(w, dtype=np.complex128))


def canonical_planar(k: int) -> PlanarFrame:
    """The canonical frame b over the standard chain: (1, i, 1, i, ...) for
    even k; (e^{i pi/3}, e^{-i pi/3}, 1, 1, i, 1, i, ...) for odd k."""
    if k < 4:
        raise ValueError("need k >= 4")
    if k % 2 == 0:
        z = [1.0, 1j] * (k // 2)
    else:
        r = np.exp(1j * np.pi / 3)
        z = [r, np.conj(r), 1.0, 1.0, 1j] + [1.0, 1j] * ((k - 5) // 2)
    return PlanarFrame(np.asarray(z, dtype=np.complex128))


# ---------------------------------------------------------------------------
# path assembly


def _sample_leg(fn, max_step: float, atol: float = 1e-12):
    """Sample fn: [0,1] -> C^k adaptively until consecutive max-norm steps
    are below max_step.  ``fn`` maps a vector of parameters to the
    (len(t) x k) array of points; every interval whose step is too long is
    bisected, all of them at once in each round."""
    ts = np.array([0.0, 0.5, 1.0])
    pts = fn(ts)
    for _ in range(40):
        long = np.flatnonzero(np.max(np.abs(np.diff(pts, axis=0)), axis=1) > max_step - atol)
        if long.size == 0:
            return pts
        if len(ts) + long.size > MAX_LEG_SAMPLES:
            raise ValueError(f"max_step {max_step:g} needs more than "
                             f"{MAX_LEG_SAMPLES} samples on one leg")
        tm = (ts[long] + ts[long + 1]) / 2
        ts = np.insert(ts, long + 1, tm)
        pts = np.insert(pts, long + 1, fn(tm), axis=0)
    raise ValueError("leg sampling did not meet the step bound (discontinuous leg?)")


def _concat_legs(legs, kind: str, max_step: float) -> FramePath:
    for prev, leg in zip(legs, legs[1:]):
        if np.max(np.abs(leg[0] - prev[-1])) > 1e-9:
            raise ValueError("legs are not contiguous")
    pts = np.concatenate([legs[0][:1]] + [leg[1:] for leg in legs])
    # collapse consecutive duplicates so the parameter stays strictly monotone
    pts = pts[np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])]
    if len(pts) == 1:
        pts = np.vstack([pts, pts])
    return FramePath(kind, np.linspace(0.0, 1.0, len(pts)), pts, max_step)


def _rotation_leg(state: np.ndarray, idxs, angle, max_step: float):
    """Rotate coordinates ``idxs`` by a phase growing linearly to ``angle``
    (one angle for all, or one per index), in the fewest equal steps whose
    chords stay within max_step less the 1e-12 margin of _sample_leg.

    On a planar frame this is valid whenever the squares of the rotated
    coordinates sum to zero, which a common rotation then preserves.
    """
    state = np.asarray(state, dtype=np.complex128)
    theta = np.zeros(state.size)
    theta[list(idxs)] = angle
    moving = theta != 0
    # a coordinate of modulus r turning by phi moves by the chord 2 r sin(phi / 2)
    with np.errstate(divide="ignore"):
        reach = np.clip((max_step - 1e-12) / (2 * np.abs(state[moving])), 0.0, 1.0)
        need = np.max(np.abs(theta[moving]) / (2 * np.arcsin(reach)), initial=0.0)
    if not need < MAX_LEG_SAMPLES:
        raise ValueError(f"max_step {max_step:g} needs more than "
                         f"{MAX_LEG_SAMPLES} samples on one leg")
    t = np.linspace(0.0, 1.0, max(1, int(np.ceil(need))) + 1)
    return state * np.exp(1j * np.outer(t, theta))


def _rotation_path(state: np.ndarray, stages, max_step: float):
    """Rotation legs of a planar frame for the (subset, angle) stages,
    applied in turn; each subset must have zero square sum."""
    legs = []
    for idxs, angle in stages:
        idxs = list(idxs)
        if abs(np.sum(state[idxs] ** 2)) > 1e-9:
            raise AssertionError(f"subset {idxs} has nonzero square sum; rotation invalid")
        legs.append(_rotation_leg(state, idxs, angle, max_step))
        state = legs[-1][-1]
    return legs


# ---------------------------------------------------------------------------
# covering-space lifting


def lift_path(cp: FramePath, start: PlanarFrame, tol: float = DEFAULT_TOL) -> FramePath:
    """Lift a chain path through the squaring covering map.

    ``start`` must square to the chain at t = 0; at every step each
    coordinate takes the square root nearest its predecessor, which is the
    half-angle of the unwrapped chain angle once the signs are seeded from
    ``start``.  Raises ValueError naming the coordinate and parameter when
    the two roots are too close to equidistant to choose reliably (step
    too large).
    """
    if cp.kind != "chain":
        raise ValueError("lift_path needs a chain path")
    w = cp.points
    if np.max(np.abs(start.z ** 2 - w[0])) > max(tol, 1e-9):
        raise ValueError("start does not lie over the chain path's first point")
    roots = np.sqrt(np.abs(w)) * np.exp(0.5j * np.unwrap(np.angle(w), axis=0))
    lifted = np.where(np.abs(roots[0] - start.z) <= np.abs(roots[0] + start.z),
                      roots, -roots)
    lifted[0] = start.z
    prev, cur = lifted[:-1], lifted[1:]
    margin = np.abs(np.abs(cur - prev) - np.abs(cur + prev))
    coord = np.argmin(margin, axis=1)
    too_far = np.max(np.abs(np.diff(w, axis=0)), axis=1) >= 1.0
    ambiguous = margin[np.arange(len(coord)), coord] < 1e-6
    if np.any(too_far | ambiguous):
        i = int(np.argmax(too_far | ambiguous))
        if too_far[i]:
            raise ValueError(f"chain step at index {i + 1} moves a coordinate by >= 1")
        raise ValueError(
            f"ambiguous square root for coordinate {coord[i]} at t={cp.ts[i + 1]:.6g}; "
            "refine the chain path")
    return FramePath("planar", cp.ts, lifted, cp.max_step)


# ---------------------------------------------------------------------------
# chain straightening


def _elbow(sigma, normal):
    """The two unit links summing to ``sigma`` (|sigma| <= 2) whose first
    sits on the side of sigma given by ``normal``, a unit perpendicular."""
    h = np.sqrt(np.maximum(0.0, 1.0 - np.abs(sigma) ** 2 / 4))
    wa = sigma / 2 + normal * h
    return wa, sigma - wa


def _pair_track(first, rho0, rho1):
    """Continuous elbows for pairs of links whose sums move along the
    segments rho(t) = (1 - t) rho0 + t rho1, one segment per pair.

    A segment through the origin keeps one normal; any other keeps its side
    of rho(t)/|rho(t)|.  The side is the one the pair's first link ``first``
    is on at t = 0.  Returns track, which maps a vector of t to the
    (len(t) x pairs) arrays of first and second links.

    rho0 is turned onto the square root of the links' product: exact for a
    nearly antipodal pair, whose computed sum points off by 1e-16 / |rho0|.
    """
    mid = np.sqrt(first * (rho0 - first))
    rho0 = np.abs(rho0) * np.where(np.real(np.conj(mid) * rho0) >= 0, mid, -mid)
    d = rho1 - rho0
    dhat = d / np.abs(d)
    t_near = np.clip(-np.real(np.conj(d) * rho0) / np.abs(d) ** 2, 0.0, 1.0)
    through = np.abs(rho0 + t_near * d) < 1e-12

    def along(sigma):
        return np.where(through, dhat, sigma / np.where(through, 1.0, np.abs(sigma)))

    side = np.where(np.real(np.conj(1j * along(rho0)) * (first - rho0 / 2)) >= 0, 1.0, -1.0)

    def track(t):
        sigma = (1 - t)[:, None] * rho0 + t[:, None] * rho1
        return _elbow(sigma, side * 1j * along(sigma))

    return track


def chain_straighten(c: Chain, max_step: float = DEFAULT_MAX_STEP) -> FramePath:
    """A path in chain space from c to the standard chain.

    The links are first scaled onto the unit circle (a step no longer than
    c's modulus error).  Even k: opposite links are paired (1,2), (3,4),
    ...; every pair sum runs straight to zero (the total stays zero because
    the pair sums already summed to zero), then each antipodal pair is
    rotated to (1, -1).  Odd k: links 1-2 are one more pair, whose sum runs
    straight to -w3 while link 3 stays fixed and the pairs (4,5), ... run
    to zero; the zero-sum triple is then rotated to the standard
    orientation, with a bounded elbow-flip cycle when it lands
    mirror-reversed.  One elbow rule places every moving pair: a pair whose
    sum passes through zero keeps one normal to its segment (an antipodal
    pair is first turned onto it), any other pair keeps its side of its
    sum.
    """
    max_step = check_positive(max_step, "max_step")
    k = c.k
    if k < 4:
        raise ValueError("chain straightening needs k >= 4")
    state = c.w / np.abs(c.w)
    legs = [np.vstack([c.w, state])]

    # stage 1: move every pair sum to its target, links 1-2 to -w3 at odd k
    pairs = np.arange(0, k, 2) if k % 2 == 0 else np.arange(3, k, 2)
    p = pairs if k % 2 == 0 else np.concatenate([[0], pairs])
    rho1 = np.zeros(p.size, dtype=np.complex128)
    if k % 2:
        rho1[0] = -state[2]
        if abs(state[0] + state[1]) < 1e-12:
            # antipodal links 1-2: turn them onto the normal their track
            # starts from; their zero sum keeps the chain closed
            wa = _pair_track(state[:1], state[:1] + state[1:2], rho1[:1])(np.zeros(1))[0]
            legs.append(_rotation_leg(state, (0, 1), float(np.angle(wa[0, 0] / state[0])),
                                      max_step))
            state = legs[-1][-1]
    rho0 = state[p] + state[p + 1]
    moving = np.abs(rho1 - rho0) >= 1e-14
    p = p[moving]
    track = _pair_track(state[p], rho0[moving], rho1[moving])
    base = state

    def collapse(t):
        out = np.repeat(base[None, :], len(t), axis=0)
        out[:, p], out[:, p + 1] = track(t)
        return out

    legs.append(_sample_leg(collapse, max_step))
    state = legs[-1][-1]

    # stage 2: rotate every antipodal pair onto (1, -1)
    deltas = -np.angle(state[pairs])
    legs.append(_rotation_leg(state, np.concatenate([pairs, pairs + 1]),
                              np.concatenate([deltas, deltas]), max_step))
    state = legs[-1][-1]

    if k % 2:
        # stage 3: rotate the zero-sum triple so its third link is 1
        legs.append(_rotation_leg(state, (0, 1, 2), -float(np.angle(state[2])), max_step))
        state = legs[-1][-1]

        if abs(state[0] - np.conj(_OMEGA)) < 1e-6:
            legs.extend(_mirror_fix_legs(state, max_step))
            state = legs[-1][-1]
        elif abs(state[0] - _OMEGA) > 1e-6:
            raise ValueError("triple did not land on a third root of unity")

    path = _concat_legs(legs, "chain", max_step)
    if np.max(np.abs(path.end - standard_chain(k).w)) > 1e-9:
        raise ValueError("straightening missed the standard chain")
    return path


def _mirror_fix_legs(state: np.ndarray, max_step: float):
    """Flip a mirror-reversed zero-sum triple (w-bar, w, 1, ...) into
    (w, w-bar, 1, ...) by stretching links 1-2 through collinearity while
    the pair (4, 5) absorbs; needs that pair to sit at (1, -1)."""
    if np.max(np.abs(state[3:5] - np.array([1.0, -1.0]))) > 1e-9:
        raise ValueError("mirror fix expects links 4,5 at (1,-1)")
    # swing the absorber pair perpendicular so it can open along the real axis
    legs = [_rotation_leg(state, (3, 4), np.pi / 2, max_step)]
    base = legs[-1][-1]

    def cycle(t):
        g = 1.0 - np.abs(2.0 * t - 1.0)
        out = np.repeat(base[None, :], len(t), axis=0)
        out[:, 0], out[:, 1] = _elbow(-(1.0 + g), np.where(t < 0.5, -1j, 1j))
        out[:, 3], out[:, 4] = _elbow(g, 1j)
        return out

    legs.append(_sample_leg(cycle, max_step))
    legs.append(_rotation_leg(legs[-1][-1], (3, 4), -np.pi / 2, max_step))
    return legs


# ---------------------------------------------------------------------------
# fiber moves over the standard chain


def _fiber_signs(k: int):
    """Index sets of the coordinates whose square over the standard chain
    is +1 and -1; at odd k the first two (squares w, w-bar) are in neither."""
    if k % 2 == 0:
        return set(range(0, k, 2)), set(range(1, k, 2))
    return {2, 3} | set(range(5, k, 2)), set(range(4, k, 2))


def _special_generators(k: int):
    """Sign flips that balanced pi-rotations cannot make, each a (pattern,
    stages) pair: the stages are (subset, rotation angle) with zero square
    sum at every stage, and pattern is the index set they negate."""
    if k % 2 == 0:
        return [({0, 2, 3}, [((0, 3), np.pi / 2), ((0, 2), np.pi / 2), ((2, 3), np.pi / 2)])]
    return [
        ({0, 1, 2}, [((0, 1, 2), np.pi)]),
        (set(range(k)), [(tuple(range(k)), np.pi)]),
        ({1}, [((2, 4), -np.pi / 3), ((1, 4), np.pi / 2),
               ((1, 2), np.pi / 2), ((2, 4), -np.pi / 6)]),
        ({0, 2, 4}, [((2, 4), np.pi / 3), ((0, 4), np.pi / 2),
                     ((0, 2), np.pi / 2), ((2, 4), np.pi / 6)]),
    ]


def _balanced_flips(v: set, plus: set, minus: set):
    """At most two subsets, each with as many +1 as -1 squares, whose
    symmetric difference is v (which needs |v & plus| = |v & minus| mod 2).

    Rotating such a subset by pi negates exactly it and keeps the square
    sum zero throughout.  With a = |v & plus| >= c = |v & minus| and
    d = (a - c) / 2, d minus-indices Q outside v pad both subsets: the first
    holds c + d of v's plus-indices, all of v's minus-indices and Q, the
    second the other d plus-indices and Q, so Q is negated twice.  The
    mirror case swaps the roles of plus and minus.
    """
    big, small, pad = sorted(v & plus), sorted(v & minus), minus
    if len(big) < len(small):
        big, small, pad = small, big, plus
    d = (len(big) - len(small)) // 2
    q = sorted(pad - v)[:d]
    first = big[:len(small) + d] + small + q
    second = big[len(small) + d:] + q
    return [tuple(sorted(f)) for f in (first, second) if f]


def _flip_moves(k: int, want) -> list:
    """(subset, angle) rotation stages over the standard chain that negate
    exactly the coordinates in ``want``: the fewest special generators that
    leave a pattern balanced pi-rotations can make, then at most two of
    those rotations."""
    plus, minus = _fiber_signs(k)
    specials = _special_generators(k)
    for size in range(len(specials) + 1):
        for chosen in itertools.combinations(specials, size):
            v = set(int(i) for i in want)
            for pattern, _ in chosen:
                v ^= pattern
            if v <= plus | minus and len(v & plus) % 2 == len(v & minus) % 2:
                return ([stage for _, stages in chosen for stage in stages]
                        + [(f, np.pi) for f in _balanced_flips(v, plus, minus)])
    raise AssertionError(f"flip pattern {sorted(want)} is outside the move span")


# ---------------------------------------------------------------------------
# the explicit connecting homotopies for four and five vectors


def case1_explicit_path(max_step: float = DEFAULT_MAX_STEP) -> FramePath:
    """The two-stage homotopy from (1, i, 1, i) to (1, -i, 1, -i).

    First coordinates 1-2 rotate together by pi, then coordinates 1 and 4;
    each stage rotates a pair with cancelling squares.
    """
    max_step = check_positive(max_step, "max_step")
    legs = _rotation_path(canonical_planar(4).z, [((0, 1), np.pi), ((0, 3), np.pi)],
                          max_step)
    return _concat_legs(legs, "planar", max_step)


#: waypoints reached by the two stages of case1_explicit_path
CASE1_WAYPOINTS = (
    np.array([1.0, 1j, 1.0, 1j]),
    np.array([-1.0, -1j, 1.0, 1j]),
    np.array([1.0, -1j, 1.0, -1j]),
)


def case3_explicit_path(max_step: float = DEFAULT_MAX_STEP) -> FramePath:
    """The five-stage homotopy from (e^{i pi/3}, e^{-i pi/3}, 1, 1, i) to
    its coordinatewise conjugate, rotating one cancelling pair per stage."""
    max_step = check_positive(max_step, "max_step")
    p3 = np.pi / 3
    stages = [((2, 4), p3), ((0, 4), 4 * p3), ((1, 4), np.pi / 6),
              ((1, 2), np.pi / 2), ((2, 4), 7 * np.pi / 6)]
    legs = _rotation_path(CASE3_WAYPOINTS[0], stages, max_step)
    return _concat_legs(legs, "planar", max_step)


#: waypoints reached after each stage of case3_explicit_path
CASE3_WAYPOINTS = tuple(np.array(v) for v in (
    [np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3), 1.0, 1.0, 1j],
    [np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3),
     np.exp(1j * np.pi / 3), 1.0, np.exp(5j * np.pi / 6)],
    [np.exp(-1j * np.pi / 3), np.exp(-1j * np.pi / 3),
     np.exp(1j * np.pi / 3), 1.0, np.exp(1j * np.pi / 6)],
    [np.exp(-1j * np.pi / 3), np.exp(-1j * np.pi / 6),
     np.exp(1j * np.pi / 3), 1.0, np.exp(1j * np.pi / 3)],
    [np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3),
     np.exp(5j * np.pi / 6), 1.0, np.exp(1j * np.pi / 3)],
    [np.exp(-1j * np.pi / 3), np.exp(1j * np.pi / 3), 1.0, 1.0, -1j],
))


# ---------------------------------------------------------------------------
# full connectivity


def connect_to_standard(z: PlanarFrame, max_step: float = DEFAULT_MAX_STEP,
                        tol: float = DEFAULT_TOL) -> FramePath:
    """A validated path from z to the canonical frame canonical_planar(k).

    Composes (1) chain straightening of the squared chain, (2) the lift of
    that straightening starting at z, and (3) finitely many subset
    rotations connecting the lift endpoint to the canonical frame inside
    the fiber over the standard chain.  The straightening samples at most
    LIFT_SAFE_STEP apart, so any finite max_step > 0 lifts.  ``tol`` is the
    tolerance z was accepted at.
    """
    max_step = check_positive(max_step, "max_step")
    k = z.k
    if k < 4:
        raise ValueError("need k >= 4")
    zp = lift_path(chain_straighten(square_map(z, tol), min(max_step, LIFT_SAFE_STEP)), z, tol)
    b = canonical_planar(k).z
    ratio = zp.end / b
    signs = np.round(ratio.real)
    if np.max(np.abs(ratio - signs)) > 1e-6 or not np.all(np.abs(signs) == 1):
        raise ValueError("lift endpoint is not a sign pattern over the canonical frame")
    state = signs * b
    legs = [zp.points, np.vstack([zp.end, state])]
    legs += _rotation_path(state, _flip_moves(k, np.flatnonzero(signs < 0)), max_step)
    state = legs[-1][-1]
    if np.max(np.abs(state - b)) > 1e-6:
        raise AssertionError("fiber moves missed the canonical frame")
    legs.append(np.vstack([state, b]))  # snap the tail rounding error
    return _concat_legs(legs, "planar", max_step)


def random_planar_frame(k: int, rng) -> PlanarFrame:
    """Sample a planar frame by drawing k-2 phases and solving the last two
    squares to cancel the partial sum (resampling while its modulus
    exceeds 2)."""
    if k < 3:
        raise ValueError("need k >= 3")
    for _ in range(1000):
        z = np.exp(2j * np.pi * rng.random(k - 2))
        s = np.sum(z ** 2)
        if abs(s) > 2 - 1e-9:
            continue
        if abs(s) < 1e-12:
            u = np.exp(2j * np.pi * rng.random())
            pair = np.array([u, -u])
        else:
            uhat = -s / abs(s)
            h = np.sqrt(max(0.0, 1.0 - abs(s) ** 2 / 4))
            sign = rng.choice([-1.0, 1.0])
            wa = -s / 2 + sign * 1j * uhat * h
            pair = np.array([wa, -s - wa])
        roots = np.exp(0.5j * np.angle(pair)) * rng.choice([-1.0, 1.0], size=2)
        return PlanarFrame(np.concatenate([z, roots]))
    raise ValueError("sampling failed to find a closable configuration")


def validate_path(p: FramePath, tol: float = DEFAULT_TOL,
                  expect_start=None, expect_end=None) -> PathReport:
    """Check unit modulus, the defining constraint, the step bound, and
    (optionally) the declared endpoints; reports the worst violation.

    The worst violation is the first largest value in the sample order,
    each sample's modulus error (worst_index: its coordinate) before its
    constraint error (worst_index: -1).
    """
    pts = p.points
    mod_err = np.abs(np.abs(pts) - 1.0)
    coord = np.argmax(mod_err, axis=1)
    mod = mod_err[np.arange(len(pts)), coord]
    con = np.abs(np.sum(pts ** 2 if p.kind == "planar" else pts, axis=1))
    at = int(np.argmax(np.column_stack([mod, con])))
    i = at // 2
    worst = float(mod[i] if at % 2 == 0 else con[i])
    worst_idx = int(coord[i]) if at % 2 == 0 else -1
    max_mod, max_con = float(np.max(mod)), float(np.max(con))
    max_step_seen = float(np.max(np.abs(np.diff(pts, axis=0))))
    start_err = float(np.max(np.abs(p.start - expect_start))) if expect_start is not None else 0.0
    end_err = float(np.max(np.abs(p.end - expect_end))) if expect_end is not None else 0.0
    ok = (max_mod <= tol and max_con <= tol
          and max_step_seen <= p.max_step + 1e-12
          and start_err <= tol and end_err <= tol)
    return PathReport(ok, max_mod, max_con, max_step_seen, p.max_step,
                      start_err, end_err, worst, float(p.ts[i]), worst_idx)
