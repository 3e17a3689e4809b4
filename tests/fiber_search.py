"""Least-makespan fiber moves for the odd-k head, by breadth-first search.

    python tests/fiber_search.py

Over the standard chain at odd k the head coordinates 0-4 square to
(w, w-bar, 1, 1, -1), w = exp(2 pi i / 3), and sit at the canonical frame's
(e^{i pi/3}, e^{-i pi/3}, 1, 1, i).  The move family turns disjoint subsets
whose squares sum to zero, each rigidly and at unit speed.  Here a state
holds each head coordinate's phase in steps of pi/6, and one move turns
every subset of a set of disjoint zero-square-sum subsets by +pi/6 or -pi/6.
A search from the canonical phases gives the least number of moves, times
pi/6 the least makespan, from every reachable state.  Among the least plans
of a sign pattern it keeps one with the fewest changes of move, so the
fewest stage starts and ends: each leg of a path rounds its samples up.

Three heads are searched: coordinates 0-4 alone, and with one borrowed
coordinate of square +1 or -1 (canonical phase 0 or pi/2) at position 5,
whose patterns all negate it.  The script prints the table that
``framelab.planar`` commits as ``_HEAD_PLANS``, each plan in ``text``'s
form.  It uses only the standard library and numpy, and no code of
``framelab``.
"""

import itertools
import sys

import numpy as np

#: phases at the canonical frame, in pi/6 steps: 0 for coordinates 0-4,
#: +1 and -1 with a borrowed coordinate of that square at position 5
HEADS = {0: (2, 10, 0, 0, 3), 1: (2, 10, 0, 0, 3, 0), -1: (2, 10, 0, 0, 3, 3)}
#: phases are kept mod 12 steps of pi/6; the square exp(i pi p / 3) of a
#: coordinate at phase p depends on p mod 6 only
TURN = 12


def _zero_sum(residues):
    """Whether the sixth roots exp(i pi r / 3), r in ``residues`` (an array
    whose last axis runs over a subset), sum to zero: with d_r the count of
    r less the count of r + 3, that is d_0 = d_2 = -d_1, as
    exp(2 i pi / 3) = exp(i pi / 3) - 1."""
    d = [np.sum(residues == r, axis=-1) - np.sum(residues == r + 3, axis=-1) for r in range(3)]
    return (d[0] == d[2]) & (d[1] == -d[2])


class Search:
    """Least move counts from the canonical phases of a head of m coordinates."""

    def __init__(self, phases):
        self.start = np.array(phases)
        m = self.m = len(phases)
        self.weights = TURN ** np.arange(m)
        # every state's residues mod 6, coded base 6, and the zero-sum subsets of each
        digits = np.array(list(itertools.product(range(6), repeat=m)))[:, ::-1]
        masks = np.array(list(itertools.product([0, 1], repeat=m)), dtype=bool)[:, ::-1]
        self.zero = np.array([_zero_sum(digits[:, mask]) for mask in masks])
        # a move turns P by +1 and N by -1, each empty or with zero square sum
        moves = [s for s in itertools.product([0, 1, -1], repeat=m)
                 if any(s) and all(np.count_nonzero(np.equal(s, v)) != 1 for v in (1, -1))]
        self.moves = np.array(moves, dtype=np.int8)
        plus, minus = ((self.moves == v) @ (2 ** np.arange(m)) for v in (1, -1))
        # valid[r, i]: move i is valid from the states of residue code r
        self.valid = (self.zero[plus] & self.zero[minus]).T
        self.dist = np.full(TURN ** m, -1, dtype=np.int16)
        self.dist[self.code(self.start)] = 0
        frontier, depth = self.start[None, :].astype(np.int8), 0
        while len(frontier):
            codes = self.code(self.step(frontier)[0])
            codes = np.unique(codes[self.dist[codes] < 0])
            depth += 1
            self.dist[codes] = depth
            frontier = (codes[:, None] // self.weights % TURN).astype(np.int8)

    def code(self, phases):
        return np.asarray(phases) % TURN @ self.weights

    def step(self, states):
        """(next states, their rows in states, the move taken) of every move
        valid from each of states."""
        rc = np.asarray(states) % 6 @ (6 ** np.arange(self.m))
        row, move = np.nonzero(self.valid[rc])
        return (states[row] + self.moves[move]) % TURN, row, move

    def moves_count(self, bits):
        """The least number of pi/6 moves negating the positions in bits."""
        return int(self.dist[self.code(self.start + 6 * self._signs(bits))])

    def _signs(self, bits):
        return np.array([(bits >> j) & 1 for j in range(self.m)])

    def plan(self, bits):
        """A least plan negating the positions in bits, with the fewest
        changes of move: (positions, turn) stages in pi/6 steps, in order of
        their start."""
        state = (self.start + 6 * self._signs(bits)) % TURN
        left = self.dist[self.code(state)]
        # per state on a least route: its changes of move, and each move that
        # arrives with that few changes, mapped to the state it comes from
        layer = {int(self.code(state)): (0, {None: None})}
        states, trail = {int(self.code(state)): state}, []
        while left > 0:
            codes = sorted(layer)
            nxt, row, move = self.step(np.array([states[c] for c in codes]))
            keep = np.flatnonzero(self.dist[self.code(nxt)] == left - 1)
            best = {}
            for i, c, r, mv in zip(keep, self.code(nxt[keep]).tolist(), row[keep].tolist(),
                                   move[keep].tolist()):
                cost, last = layer[codes[r]]
                cost += mv not in last and None not in last
                have = best.get(c)
                if have is None or cost < have[0]:
                    best[c], states[c] = (cost, {mv: codes[r]}), nxt[i]
                elif cost == have[0]:
                    have[1].setdefault(mv, codes[r])
            trail.append(layer)
            layer, left = best, left - 1
        # walk back from the canonical phases, keeping a move while it arrives
        (_, arrive), = layer.values()
        route, mv = [], min(arrive)
        for prev in reversed(trail):
            route.append(mv)
            _, arrive = prev[arrive[mv]]
            if None in arrive:
                break
            mv = mv if mv in arrive else min(arrive)
        return self._stages(route[::-1])

    def _stages(self, route):
        """(positions, turn) stages of a route of moves: a run of steps
        turning one subset one way is one stage."""
        stages, runs = [], {}
        for t, mv in enumerate(route + [None]):
            now = {} if mv is None else {
                sign: tuple(int(j) for j in np.flatnonzero(self.moves[mv] == sign))
                for sign in (1, -1) if np.any(self.moves[mv] == sign)}
            for sign, (sub, start) in list(runs.items()):
                if now.get(sign) != sub:
                    stages.append((start, sign, sub, sign * (t - start)))
                    del runs[sign]
            for sign, sub in now.items():
                runs.setdefault(sign, (sub, t))
        stages.sort(key=lambda s: (s[0], -s[1]))
        return tuple((sub, turn) for _, _, sub, turn in stages)


def table():
    """{head: {bits: plan}} over every pattern each head is used for."""
    out = {}
    for head, phases in HEADS.items():
        search = Search(phases)
        patterns = range(1, 32) if head == 0 else range(32, 64)
        out[head] = {bits: search.plan(bits) for bits in patterns}
    return out


def text(plan) -> str:
    """A plan as planar.py stores it: one word per stage, its positions'
    digits and its signed turn in pi/6, as ``012+1 34-1``."""
    return " ".join(f"{''.join(map(str, sub))}{turn:+d}" for sub, turn in plan)


def main():
    lines = ['_HEAD_PLANS = {(int(head), int(bits, 2)): plan for head, bits, plan in (',
             '    line.split(maxsplit=2) for line in """\\']
    for head, plans in table().items():
        lines += [f"{head} {bits:0{len(HEADS[head])}b} {text(plan)}"
                  for bits, plan in plans.items()]
    lines.append('""".splitlines())}')
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
