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

import math

import numpy as np

from .defaults import DEFAULT_MAX_STEP, _Record, check_integer, check_positive
from .frames import DEFAULT_TOL, Frame, _as_array

#: most samples one leg may take; a smaller max_step is refused, not sampled
MAX_LEG_SAMPLES = 2 ** 16
#: legs are sampled to steps below max_step less this margin
_LEG_ATOL = 1e-12
#: intervals of the probe that measures a leg's arc length before sampling it
_PROBE = 128
#: largest chain step connect_to_standard straightens with; lift_path refuses
#: chain steps of 1 or more, and a step of half that keeps the roots apart.
#: For max_step m it straightens at min(m sqrt(4 - m^2), LIFT_SAFE_STEP):
#: a chain step of m sqrt(4 - m^2) lifts to a planar step of m
LIFT_SAFE_STEP = 0.5


def _closure(v, p: int):
    """|s| and lambda_max = (sum |v|^p + |s|) / 2 per row of v, s = sum v^p: for a planar
    frame (p = 2; p = 1 for its chain) is_tight's rule is |s| <= tol * lambda_max."""
    s = np.abs(np.sum(v ** p, axis=-1))
    return s, (np.sum(np.abs(v) ** p, axis=-1) + s) / 2


def _unit_tuple(values, p: int, tol: float, what: str, ndim: int = 1):
    z = _as_array(values, "C", ndim=ndim, copy=True)
    if z.shape[-1] < 1:
        raise ValueError(f"{what} must be nonempty")
    if not np.max(np.abs(np.abs(z) - 1.0)) <= tol:
        raise ValueError(f"{what} entries must be unimodular")
    s, lam = _closure(z, p)
    if np.any(s > tol * lam):
        raise ValueError(f"{what} constraint violated by {np.max(s):.3g}")
    return z


class PlanarFrame(_Record):
    """k unit complex numbers with sum of squares zero, both within ``tol``
    (the tolerance checked at) by the rules of is_spherical and is_tight."""

    def __init__(self, z: np.ndarray, tol: float = DEFAULT_TOL):
        tol = check_positive(tol, "tol")
        vars(self).update(z=_unit_tuple(z, 2, tol, "planar frame"), tol=tol)

    @property
    def k(self) -> int:
        return self.z.size


class Chain(_Record):
    """k unit complex numbers summing to zero (a closed unit-link chain),
    both within ``tol``, the tolerance the chain was checked at."""

    def __init__(self, w: np.ndarray, tol: float = DEFAULT_TOL):
        tol = check_positive(tol, "tol")
        vars(self).update(w=_unit_tuple(w, 1, tol, "chain"), tol=tol)

    @property
    def k(self) -> int:
        return self.w.size


class FramePath(_Record):
    """A sampled path of planar frames or chains.

    ``points`` is a read-only (samples x k) complex array whose row i is
    the k-vector at parameter ``ts[i]``; the parameters increase strictly
    from 0 to 1 and consecutive rows stay within ``max_step`` in the max
    norm.  Every sample must be finite.
    """

    def __init__(self, kind: str, ts: np.ndarray, points: np.ndarray, max_step: float):
        if kind not in ("planar", "chain"):
            raise ValueError(f"kind must be 'planar' or 'chain', got {kind!r}")
        ts = _as_array(ts, "R", ndim=1, copy=True)
        pts = _as_array(points, "C", copy=True)
        if len(ts) != len(pts) or len(ts) < 2:
            raise ValueError("path needs matching ts/points with at least two samples")
        if pts.shape[1] < 1:
            raise ValueError("path samples must be nonempty")
        if abs(ts[0]) > 1e-15 or abs(ts[-1] - 1.0) > 1e-15:
            raise ValueError("path parameter must run from 0 to 1")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("path parameter must be strictly increasing")
        max_step = check_positive(max_step, "max_step")
        vars(self).update(kind=kind, ts=ts, points=pts, max_step=max_step)

    @property
    def k(self) -> int:
        return self.points.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]


class PathReport(_Record):
    """validate_path outcome with the worst violation and its location."""

    def __init__(self, ok: bool, max_modulus_error: float, max_constraint_error: float,
                 max_step_seen: float, step_bound: float, start_error: float, end_error: float,
                 worst_violation: float, worst_t: float, worst_index: int):
        vars(self).update(ok=ok, max_modulus_error=max_modulus_error,
                          max_constraint_error=max_constraint_error, max_step_seen=max_step_seen,
                          step_bound=step_bound, start_error=start_error, end_error=end_error,
                          worst_violation=worst_violation, worst_t=worst_t,
                          worst_index=worst_index)


def to_planar(F: Frame, tol: float = DEFAULT_TOL) -> PlanarFrame:
    """Encode a spherical tight frame in R^2 as z_j = x_j + i y_j (PlanarFrame checks)."""
    if F.field != "R" or F.n != 2:
        raise ValueError("to_planar needs a real frame in dimension 2")
    return PlanarFrame(F.entries[0] + 1j * F.entries[1], tol)


def from_planar(z) -> Frame:
    """Decode unit complex numbers into a 2-row real synthesis matrix."""
    z = _as_array(z, "C", ndim=1)
    return Frame("R", np.vstack([z.real, z.imag]))


def square_map(pf: PlanarFrame) -> Chain:
    """The covering map z -> z^2 (coordinatewise); the image sums to zero.

    Squaring turns a modulus error e into 2e + e^2, so the chain is checked
    at tol(2 + tol) for the tolerance ``pf.tol`` that pf was accepted at.
    """
    return Chain(pf.z ** 2, pf.tol * (2 + pf.tol))


def to_gram_loop(path: FramePath, tol: float = DEFAULT_TOL):
    """Project a planar path to Gram points (loop when endpoints share a Gram)."""
    from .grassmann import GramPoint

    if path.kind != "planar":
        raise ValueError("need a planar path")
    z = _unit_tuple(path.points, 2, check_positive(tol, "tol"), "planar path", ndim=2)
    F = np.stack([z.real, z.imag], axis=1)
    return [GramPoint("R", 2, R) for R in F.swapaxes(1, 2) @ F]


def standard_chain(k: int) -> Chain:
    """The straightening target, the square of canonical_planar(k):
    (1,-1,1,-1,...) for even k; for odd k the zero-sum triple (w, conj(w), 1)
    with w = exp(2*pi*i/3), followed by (1,-1) pairs."""
    return Chain(canonical_planar(k).z ** 2)


def canonical_planar(k: int) -> PlanarFrame:
    """The canonical frame b over the standard chain: (1, i, 1, i, ...) for
    even k; (e^{i pi/3}, e^{-i pi/3}, 1, 1, i, 1, i, ...) for odd k."""
    k = check_integer(k, "k")
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


def _too_fine(max_step: float) -> ValueError:
    """The refusal of a max_step that one leg cannot meet in MAX_LEG_SAMPLES."""
    return ValueError(f"max_step {max_step:g} needs more than "
                      f"{MAX_LEG_SAMPLES} samples on one leg")


def _sample_leg(fn, max_step: float):
    """Sample fn: [0,1] -> C^k until consecutive max-norm steps are at most
    bound = max_step less _LEG_ATOL.  ``fn`` maps a vector of parameters to
    the (len(t) x k) array of points.  A probe at _PROBE + 1 equally spaced
    parameters measures the leg's max-norm length L as its chord sum, and
    ceil(L / bound) equal spacings of that length place the samples, each
    t interpolated against the probe's running length.  Where the leg turns
    or speeds up between probe points a step can still be too long: every
    such interval is bisected, all of them at once in each round."""
    bound = max_step - _LEG_ATOL
    probe = np.linspace(0.0, 1.0, _PROBE + 1)
    arc = np.concatenate([[0.0], np.cumsum(np.max(np.abs(np.diff(fn(probe), axis=0)), axis=1))])
    if not (bound > 0 and arc[-1] < bound * (MAX_LEG_SAMPLES - 1)):
        raise _too_fine(max_step)
    steps = max(1, math.ceil(arc[-1] / bound))
    ts = np.interp(np.linspace(0.0, arc[-1], steps + 1), arc, probe)
    ts[0], ts[-1] = 0.0, 1.0  # a flat stretch of ``arc`` (a still leg) interpolates to any t on it
    pts = fn(ts)
    for _ in range(np.finfo(float).nmant):  # down to the float resolution of t
        long = np.flatnonzero(np.max(np.abs(np.diff(pts, axis=0)), axis=1) > bound)
        if long.size == 0:
            return pts
        if len(ts) + long.size > MAX_LEG_SAMPLES:
            raise _too_fine(max_step)
        tm = (ts[long] + ts[long + 1]) / 2
        ts = np.insert(ts, long + 1, tm)
        pts = np.insert(pts, long + 1, fn(tm), axis=0)
    raise ValueError("leg sampling did not meet the step bound (discontinuous leg?)")


def _concat_legs(legs, kind: str, max_step: float) -> FramePath:
    # every leg starts at the last row of the leg before it: keep that row once
    pts = np.concatenate([legs[0][:1]] + [leg[1:] for leg in legs])
    # drop a sample within _LEG_ATOL of the one before it (a snap repeats a
    # point up to rounding), but keep the exact end and drop its predecessor
    # instead; no step grows past max_step, since legs keep their steps
    # within max_step - _LEG_ATOL.  Every leg has two points or more.
    if len(pts) > 2:
        moved = np.max(np.abs(np.diff(pts, axis=0)), axis=1) > _LEG_ATOL
        moved[-2] &= moved[-1]
        pts = pts[np.concatenate([[True], moved[:-1], [True]])]
    return FramePath(kind, np.linspace(0.0, 1.0, len(pts)), pts, max_step)


def _rotation_leg(state: np.ndarray, theta: np.ndarray, max_step: float):
    """Rotate coordinate j by a phase growing linearly to theta[j], in the
    fewest equal steps whose chords stay within max_step less _LEG_ATOL,
    as _sample_leg's do.

    On a planar frame this is valid whenever the squares of the rotated
    coordinates sum to zero, which a common rotation then preserves.
    """
    state = np.asarray(state, dtype=np.complex128)
    moving = theta != 0
    # a coordinate of modulus r turning by phi moves by the chord 2 r sin(phi / 2)
    with np.errstate(divide="ignore"):
        reach = np.clip((max_step - _LEG_ATOL) / (2 * np.abs(state[moving])), 0.0, 1.0)
        need = np.max(np.abs(theta[moving]) / (2 * np.arcsin(reach)), initial=0.0)
    if not need < MAX_LEG_SAMPLES:
        raise _too_fine(max_step)
    t = np.linspace(0.0, 1.0, max(1, int(np.ceil(need))) + 1)
    return state * np.exp(1j * np.outer(t, theta))


def _schedule(stages):
    """(start, end) of each (subset, angle) stage turning at unit speed once
    its coordinates are free: stages sharing a coordinate keep their order."""
    free, times = {}, []
    for idxs, angle in stages:
        start = max([free.get(i, 0.0) for i in idxs])
        times.append((start, start + abs(angle)))
        free.update(dict.fromkeys(idxs, start + abs(angle)))
    return times


def _rotation_path(state: np.ndarray, stages, max_step: float):
    """Rotation legs of a planar frame for the (subset, angle) stages, one
    per interval between _schedule's stage starts and ends; each subset must
    have zero square sum at its start, which its common turn keeps."""
    times = _schedule(stages)
    events = sorted(set().union(*times))
    legs = []
    for a, b in zip(events, events[1:]):
        theta = np.zeros(state.size)
        for (sub, angle), (start, end) in zip(stages, times):
            if start == a and abs(np.sum(state[list(sub)] ** 2)) > 1e-9:
                raise AssertionError(f"subset {sub} has nonzero square sum; rotation invalid")
            if start <= a < end:
                # a stage alone in its interval turns by exactly its angle
                theta[list(sub)] = angle if (a, b) == (start, end) else np.sign(angle) * (b - a)
        legs.append(_rotation_leg(state, theta, max_step))
        state = legs[-1][-1]
    return legs


# ---------------------------------------------------------------------------
# covering-space lifting


def lift_path(cp: FramePath, start: PlanarFrame) -> FramePath:
    """Lift a chain path through the squaring covering map.

    ``start`` must square to the chain at t = 0 within max(start.tol, 1e-9);
    at every step each coordinate takes the square root nearest its
    predecessor, which is the half-angle of the unwrapped chain angle once
    the signs are seeded from ``start``.  Raises ValueError naming the
    coordinate and parameter when the two roots are too close to
    equidistant to choose reliably (step too large).
    """
    if cp.kind != "chain":
        raise ValueError("lift_path needs a chain path")
    w = cp.points
    if np.max(np.abs(start.z ** 2 - w[0])) > max(start.tol, 1e-9):
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


def _collapse(state: np.ndarray, p, rho1, max_step: float):
    """Legs moving the sums of the pairs (p, p + 1) straight from their
    values in ``state`` to ``rho1`` on _pair_track's elbows, every other
    link fixed.  A pair more than rounding off its track's start (an
    antipodal pair, or one whose segment passes within 1e-12 of zero) is
    first turned rigidly onto it, which moves its sum by about 1e-12 at
    most; the sampled leg starts at the state itself.  _sample_leg places
    its samples by the leg's arc length, about one per max_step of it."""
    rho0 = state[p] + state[p + 1]
    moving = np.abs(rho1 - rho0) >= 1e-14
    p = p[moving]
    track = _pair_track(state[p], rho0[moving], rho1[moving])
    turn = np.angle(track(np.zeros(1))[0][0] / state[p])
    theta = np.zeros(state.size)
    theta[p] = theta[p + 1] = np.where(np.abs(turn) > 1e-6, turn, 0.0)
    legs = []
    if np.any(theta):
        legs.append(_rotation_leg(state, theta, max_step))
        state = legs[-1][-1]

    def collapse(t):
        out = np.repeat(state[None, :], len(t), axis=0)
        out[:, p], out[:, p + 1] = track(t)
        out[t == 0] = state
        return out

    legs.append(_sample_leg(collapse, max_step))
    return legs


def chain_straighten(c: Chain, max_step: float = DEFAULT_MAX_STEP) -> FramePath:
    """A path in chain space from c to the standard chain.

    The links are first scaled onto the unit circle (a step no longer than
    c's modulus error).  Even k: opposite links are paired (1,2), (3,4),
    ...; every pair sum runs straight to zero (the total stays zero because
    the pair sums already summed to zero), then each antipodal pair is
    rotated to (1, -1).  Odd k: links 1-2 are one more pair, whose sum runs
    straight to -w3 while link 3 stays fixed and the pairs (4,5), ... run
    to zero; the zero-sum triple then turns to the standard orientation in
    the leg that turns the pairs, which share no link with it.  One elbow
    rule places every moving pair: a pair whose sum passes through zero
    keeps one normal to its segment, any other pair keeps its side of its
    sum.  The triple's orientation is chosen where it is free: when links
    1-2 would land it mirrored, (w-bar, w, 1), their sum first runs to zero
    while links 4-5 take up -w3, and the antipodal pair turns onto i w3,
    from which it lands (w, w-bar, 1).
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
        # link 1 where the direct route lands it: w3 w, or w3 w-bar if mirrored
        lands = _pair_track(state[:1], state[:1] + state[1:2], rho1[:1])(np.ones(1))[0][0, 0]
        if np.imag(lands / state[2]) < 0:
            # links 1-2 to zero while links 4-5, pair 1 of p, take up -w3
            legs += _collapse(state, p, np.roll(rho1, 1), max_step)
            state = legs[-1][-1]
            theta = np.zeros(k)
            theta[:2] = np.angle(1j * state[2] / state[0])
            legs.append(_rotation_leg(state, theta, max_step))
            state = legs[-1][-1]
    legs += _collapse(state, p, rho1, max_step)
    state = legs[-1][-1]

    # stages 2 and 3 in one leg: pairs onto (1, -1), at odd k the triple's third link to 1
    theta = np.zeros(k)
    theta[pairs] = theta[pairs + 1] = -np.angle(state[pairs])
    if k % 2:
        theta[:3] = -np.angle(state[2])
    legs.append(_rotation_leg(state, theta, max_step))

    path = _concat_legs(legs, "chain", max_step)
    if np.max(np.abs(path.end - standard_chain(k).w)) > 1e-9:
        raise ValueError("straightening missed the standard chain")
    return path


# ---------------------------------------------------------------------------
# fiber moves over the standard chain


def _fiber_signs(k: int):
    """Index sets of the coordinates whose square over the standard chain
    is +1 and -1; at odd k the first two (squares w, w-bar) are in neither."""
    if k % 2 == 0:
        return set(range(0, k, 2)), set(range(1, k, 2))
    return {2, 3} | set(range(5, k, 2)), set(range(4, k, 2))


#: pi/6 to 46 bits: sums of its small multiples are exact, so fiber-move stages
#: that end together end together in _schedule, not a rounding apart
_SIXTH_PI = math.ldexp(round(math.ldexp(math.pi / 6, 46)), -46)

#: least-makespan plans for the odd-k head, printed by tests/fiber_search.py: per
#: line the head (0: coordinates 0-4; 1 or -1: those and, at position 5, a
#: borrowed coordinate of that square), its negated positions as bits, and stages
#: with zero square sum at each start, one word each: the positions' digits and
#: the signed turn in _SIXTH_PI.  Where bytecode is not cached, every process
#: compiles this module; as nested tuples the table added 6 ms and 2 MB to that.
_HEAD_PLANS = {(int(head), int(bits, 2)): plan for head, bits, plan in (
    line.split(maxsplit=2) for line in """\
0 00001 012+1 34-1 023+1 14-1 04+2 123-2 013+2
0 00010 012+1 34-1 14+2 023-2 123+1 04-1 013+2
0 00011 012+2 34-1 014+2 23-1 013+2 24-1
0 00100 24+2 013-2 023+1 14-1 123+1 04-1 012+2
0 00101 013+2 24-2 04+3 123-3 013+1 24-1
0 00110 013+1 24-1 14+3 023-3 013+2 24-2
0 00111 012+6
0 01000 34+2 012-2 023+1 14-1 123+1 04-1 013+2
0 01001 012+2 34-2 04+3 123-3 012+1 34-1
0 01010 012+1 34-1 14+3 023-3 012+2 34-2
0 01011 013+6
0 01100 24+3 013-3 012+3 34-3
0 01101 012-1 13+3 024-3 34+3 012-2
0 01110 34+2 012-3 03+3 124-3 34+1
0 01111 012+2 023+2 123+2 013+2
0 10000 24+1 013-1 04+1 123-1 14+2 34+2
0 10001 34+2 012-3 124+3 03-3 34+1
0 10010 012-1 024+3 13-3 34+3 012-2
0 10011 013+3 24-3 012+3 34-3
0 10100 24+6
0 10101 012+1 34-1 023+3 14-3 012+2 34-2
0 10110 012+2 34-2 123+3 04-3 012+1 34-1
0 10111 012+4 34-4 023+1 14-1 123+1 04-1 013+2
0 11000 34+6
0 11001 013+1 24-1 023+3 14-3 013+2 24-2
0 11010 013+2 24-2 123+3 04-3 013+1 24-1
0 11011 013+4 24-4 023+1 14-1 123+1 04-1 012+2
0 11100 24+1 013-1 123+1 234+4 03+1 34+1
0 11101 013+3 24-3 34-1 03+3 124-3 34+1
0 11110 24+3 013-3 34+1 024+3 13-3 34-1
0 11111 01234+6
1 100000 24+2 015-2 235-2 013+2 45-2
1 100001 013+2 45-2 04+3 135-3 013+1 45-1
1 100010 013+1 45-1 14+3 035-3 013+2 45-2
1 100011 015+6
1 100100 24+3 015-3 012+3 45-3
1 100101 012-1 15+3 024-3 45+3 012-2
1 100110 45+2 012-3 05+3 124-3 45+1
1 100111 012+2 025+2 125+2 015+2
1 101000 34+3 015-3 013+3 45-3
1 101001 013-1 15+3 034-3 45+3 013-2
1 101010 45+2 013-3 05+3 134-3 45+1
1 101011 013+2 035+2 135+2 015+2
1 101100 012+3 34-3 25+3 013-3 45+3
1 101101 013+2 24-3 035+3 12-3 45+1 01345+1 45+1
1 101110 24+3 013-2 135-3 02+3 45-1 01345-1 45-1
1 101111 012+1 45-1 025+1 14-1 123+1 04-1 01235+3 01345+2 45+1
1 110000 45+6
1 110001 015+1 34-1 035+3 14-3 015+2 34-2
1 110010 015+2 34-2 135+3 04-3 015+1 34-1
1 110011 012+2 34-2 235-2 013+4 45-4
1 110100 013+1 24-1 0245-2 2345-1 1235-1 1245-1 013+1 45-1
1 110101 013+1 0245+6 013-1
1 110110 013-1 1245+6 013+1
1 110111 01245+6
1 111000 012+1 34-1 0345-2 2345-1 1235-1 1345-1 012+1 45-1
1 111001 012+1 0345+6 012-1
1 111010 012-1 1345+6 012+1
1 111011 01345+6
1 111100 012+1 124+1 03-3 245+4 13-3 045+1 015+1
1 111101 01245+2 02345+4 035+1 14-1 34+1 015-1
1 111110 24+1 015-1 125+1 04-1 12345+4 01345+2
1 111111 01234+2 02345+2 12345+2 015+2
-1 100000 013+2 25-2 0145-2 24+2 35-2
-1 100001 35+2 012-3 125+3 03-3 35+1
-1 100010 012-1 025+3 13-3 35+3 012-2
-1 100011 013+3 25-3 012+3 35-3
-1 100100 25+6
-1 100101 012+1 35-1 023+3 15-3 012+2 35-2
-1 100110 012+2 35-2 123+3 05-3 012+1 35-1
-1 100111 012+1 34-2 125+1 0145+1 0125+2 02345+1 01235+1
-1 101000 35+6
-1 101001 013+1 25-1 023+3 15-3 013+2 25-2
-1 101010 013+2 25-2 123+3 05-3 013+1 25-1
-1 101011 013+1 24-2 135+1 0145+1 0135+2 02345+1 01235+1
-1 101100 013-1 12+2 035-2 02+3 145-1 35-3 24+1
-1 101101 34-1 0235+6 34+1
-1 101110 34+1 1235+6 34-1
-1 101111 01235+6
-1 110000 34+3 25-3 24+3 35-3
-1 110001 34+2 012-2 14+2 05-4 24+2 35-2
-1 110010 012+2 34-2 15+4 04-2 24-2 35+2
-1 110011 013+1 25-3 134+2 014+2 35-4 024+2 01235+1
-1 110100 012+1 34-1 235+2 14-2 135+1 04-1 25+3 34-2
-1 110101 35+1 012-1 123+1 05-5 24+6 35-2
-1 110110 012+1 35-1 15+1 023-1 1245+4 2345+2
-1 110111 24+1 013-1 04+5 235-2 125-5 03+2 35+1
-1 111000 013+1 24-1 235+2 14-2 125+1 04-1 35+3 24-2
-1 111001 25+1 013-1 123+1 05-5 34+6 25-2
-1 111010 013+1 25-1 15+1 023-1 1345+4 2345+2
-1 111011 34+1 012-1 04+5 235-2 135-5 02+2 25+1
-1 111100 2345+6
-1 111101 013-1 02345+6 013+1
-1 111110 013+1 12345+6 013-1
-1 111111 01234+2 1245+2 0345+2 01235+2
""".splitlines())}


def _triples(v: set, plus: set, minus: set):
    """Quarter turns (x, u), (x, y), (y, u) with zero square sum at each start,
    negating x, y of the sign class with more indices in v and u of the
    other, each taken from v where possible."""
    def key(i):
        return i not in v, i
    one, other = sorted((plus, minus), key=lambda c: len(v & c), reverse=True)
    (x, y), u = sorted(one, key=key)[:2], min(other, key=key)
    return [((x, u), 3 * _SIXTH_PI), ((x, y), 3 * _SIXTH_PI), ((y, u), 3 * _SIXTH_PI)]


def _balanced_flips(v: set, plus: set, minus: set, busy: set):
    """(subset, angle) stages negating v, |v & plus| = |v & minus| mod 2, that
    all turn at once.  With a = |v & plus| >= c = |v & minus|: c (+1, -1) pairs
    within v turn by pi as one subset, and the other a - c plus-indices go in
    twos x, y with two minus-indices q, q' outside v, busy last, by two-pad
    swaps: (x, q) turns by pi/2 while (y, q') turns by -pi/2, then (x, q') by
    pi/2 while (y, q) turns by -pi/2, negating x and y and returning q and q'.
    Each of the four quarter turns takes every swap's pair as one subset (the
    mirror case swaps plus and minus)."""
    big, small, pad = sorted(v & plus), sorted(v & minus), minus
    if len(big) < len(small):
        big, small, pad = small, big, plus
    q = (sorted(pad - v - busy) + sorted(pad - v & busy))[:len(big) - len(small)]
    x, y = big[len(small)::2], big[len(small) + 1::2]
    pairs, quarter = tuple(i for f in zip(big, small) for i in f), 3 * _SIXTH_PI
    return ([(pairs, 2 * quarter)] if pairs else []) + ([
        ((*x, *q[::2]), quarter), ((*y, *q[1::2]), -quarter),
        ((*x, *q[1::2]), quarter), ((*y, *q[::2]), -quarter)] if x else [])


def _flip_moves(k: int, want) -> list:
    """(subset, angle) rotation stages over the standard chain negating exactly ``want``.
    At odd k coordinates 0-4 take their least-makespan plan from _HEAD_PLANS, and
    when the other flips' sign classes differ in parity, the first flip of the larger
    class joins the head; at even k such flips start with _triples.  _balanced_flips
    negates the rest alongside, so an odd-k plan takes at most 3 pi / 2."""
    plus, minus = _fiber_signs(k)
    want = {int(i) for i in want}
    if k % 2 == 0:
        stages = _triples(want, plus, minus) if len(want) % 2 else []
        turned = {i for idxs, _ in stages for i in idxs}
        return stages + _balanced_flips(want ^ turned, plus, minus, turned)
    head, rest = [0, 1, 2, 3, 4], want - {0, 1, 2, 3, 4}
    if len(rest) % 2:  # the classes differ in parity
        head.append(min(max(rest & plus, rest & minus, key=len)))
        rest.discard(head[5])
    key = (0 if len(head) == 5 else 1 if head[5] in plus else -1,
           sum(1 << p for p, i in enumerate(head) if i in want))
    stages = [(tuple(head[int(p)] for p in stage[:-2]), int(stage[-2:]) * _SIXTH_PI)
              for stage in _HEAD_PLANS.get(key, "").split()]
    return stages + _balanced_flips(rest, plus, minus, set(head))


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


def connect_to_standard(z: PlanarFrame, max_step: float = DEFAULT_MAX_STEP) -> FramePath:
    """A path from z to canonical_planar(k); validate_path checks it, this does not.

    Composes (1) chain straightening of the squared chain, (2) the lift of
    that straightening starting at z, and (3) rotations of zero-square-sum
    subsets, concurrent where they share no coordinate, connecting the lift
    endpoint to the canonical frame in the fiber over the standard chain.
    A planar step a lifts a chain step of a sqrt(4 - a^2), which grows with
    a up to sqrt(2), so the straightening's legs are sampled to their arc
    length in steps of at most min(m sqrt(4 - m^2), LIFT_SAFE_STEP) for
    m = max_step: its lift keeps within m, and any finite max_step > 0
    lifts.  z's chain is checked at z.tol, as square_map does.
    """
    max_step = check_positive(max_step, "max_step")
    k = z.k
    chain_step = LIFT_SAFE_STEP if max_step >= 1 else min(
        max_step * np.sqrt(4 - max_step ** 2), LIFT_SAFE_STEP)
    zp = lift_path(chain_straighten(square_map(z), chain_step), z)
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
    k = check_integer(k, "k")
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
    """Check unit modulus, the defining constraint (by PlanarFrame's rule),
    the step bound, and (optionally) the declared endpoints; reports the
    worst violation: the first largest value in the sample order, each
    sample's modulus error (worst_index: its coordinate) before its
    relative constraint error |s|/lambda_max (worst_index: -1), two
    errors on one scale: each passes up to tol.
    """
    pts, tol, errs = p.points, check_positive(tol, "tol"), []
    for name, end, want in (("expect_start", p.start, expect_start),
                            ("expect_end", p.end, expect_end)):
        want = end if want is None else _as_array(want, "C", ndim=1)
        if want.shape != end.shape:
            raise ValueError(f"{name} needs k = {p.k} entries, got {want.size}")
        errs.append(float(np.max(np.abs(end - want))))
    start_err, end_err = errs
    mod_err = np.abs(np.abs(pts) - 1.0)
    coord = np.argmax(mod_err, axis=1)
    mod = mod_err[np.arange(len(pts)), coord]
    con, lam = _closure(pts, 2 if p.kind == "planar" else 1)
    rel = con / np.where(lam > 0, lam, 1.0)  # lam = 0 only on a zero sample, where con = 0
    at = int(np.argmax(np.column_stack([mod, rel])))
    i = at // 2
    worst = float(mod[i] if at % 2 == 0 else rel[i])
    worst_idx = int(coord[i]) if at % 2 == 0 else -1
    max_mod, max_con = float(np.max(mod)), float(np.max(con))
    max_step_seen = float(np.max(np.abs(np.diff(pts, axis=0))))
    ok = (max_mod <= tol and bool(np.all(con <= tol * lam))
          and max_step_seen <= p.max_step + 1e-12
          and start_err <= tol and end_err <= tol)
    return PathReport(ok, max_mod, max_con, max_step_seen, p.max_step,
                      start_err, end_err, worst, float(p.ts[i]), worst_idx)
