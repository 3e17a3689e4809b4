import collections
import functools
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import framelab as fl
from framelab import grassmann, stratification

BLOCK4 = fl.Frame("R", np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float))


def random_stf(k, n, field, seed, spread=0.0):
    return fl.random_tight_frame(k, n, field, np.random.default_rng(seed), spread)


def test_gram_of_all_ones_row():
    R = fl.gram(fl.Frame("R", np.ones((1, 5))))
    assert_allclose(R.entries, np.ones((5, 5)), atol=1e-15)
    assert R.n == 1


def test_gram_of_simplex():
    n = 4
    R = fl.gram(fl.simplex_frame(n))
    assert_allclose(np.diag(R.entries), np.ones(n + 1), atol=1e-12)
    off = R.entries - np.diag(np.diag(R.entries))
    assert_allclose(off[off != 0], -1 / n, atol=1e-12)


def test_gram_of_two_bases():
    R = fl.gram(BLOCK4).entries
    expected = np.eye(4)
    expected[0, 2] = expected[2, 0] = -1
    expected[1, 3] = expected[3, 1] = -1
    assert_allclose(R, expected, atol=1e-15)


def test_gram_rejects_with_diagnostic():
    with pytest.raises(ValueError, match="not unit|unit vectors"):
        fl.gram(fl.Frame("R", 2 * fl.simplex_frame(2).entries))
    with pytest.raises(ValueError, match="not tight"):
        fl.gram(fl.Frame("R", np.array([[1, 0, 1], [0, 1, 0]], dtype=float)))
    with pytest.raises(ValueError,
                       match=r"^not a spherical tight frame: k=2 <= n=2 \(no redundancy\)$"):
        fl.gram(fl.Frame("R", np.eye(2)))


def test_is_gram_point_checks():
    assert fl.is_gram_point(fl.gram(fl.simplex_frame(3)).entries, 3).ok
    chk = fl.is_gram_point(np.eye(5), 2)
    assert not chk.idempotent and not chk.ok
    assert fl.is_gram_point(np.ones((4, 4)), 1).ok


def test_complement_of_ones_is_simplex_gram():
    for n in (1, 2, 5, 12):
        J = fl.gram(fl.Frame("R", np.ones((1, n + 1))))
        C = fl.complement(J)
        S = fl.gram(fl.simplex_frame(n))
        assert np.max(np.abs(C.entries - S.entries)) < 1e-12
        assert C.n == n


def test_complement_involution():
    for seed, (k, n) in enumerate([(4, 2), (5, 2), (7, 3), (6, 4)]):
        R = fl.gram(random_stf(k, n, "R", seed, spread=0.03))
        RR = fl.complement(fl.complement(R))
        assert np.max(np.abs(RR.entries - R.entries)) < 1e-12


def test_complement_of_two_bases():
    R = fl.gram(BLOCK4)
    C = fl.complement(R)
    # direct arithmetic: 2(I - P) with P = R/2
    assert_allclose(C.entries, 2 * np.eye(4) - R.entries, atol=1e-14)
    assert_allclose(np.diag(C.entries), np.ones(4), atol=1e-14)


def test_frame_from_gram_simplex_orbit():
    R = fl.gram(fl.simplex_frame(2))
    F = fl.frame_from_gram(R)
    witness = fl.same_orbit(F, fl.simplex_frame(2))
    assert witness is not None
    assert witness.residual < 1e-9


def test_frame_from_gram_rank_one():
    F = fl.frame_from_gram(fl.GramPoint("R", 1, np.ones((2, 2))))
    assert_allclose(np.abs(F.entries), np.ones((1, 2)), atol=1e-12)
    assert_allclose(F.entries[0, 0], F.entries[0, 1], atol=1e-12)


@pytest.mark.parametrize("k,n,field", [(5, 2, "R"), (5, 3, "C"), (7, 4, "R")])
def test_frame_from_gram_round_trip(k, n, field):
    for seed in range(5):
        R = fl.gram(random_stf(k, n, field, seed, spread=0.02))
        F = fl.frame_from_gram(R)
        assert np.max(np.abs(fl.gram(F).entries - R.entries)) < 1e-9
        S = fl.frame_operator(F)
        assert np.max(np.abs(S - (k / n) * np.eye(n))) < 1e-9


def test_frame_from_gram_rejects_bad_spectrum():
    M = np.eye(4)
    with pytest.raises(ValueError, match="clustered"):
        fl.frame_from_gram(fl.GramPoint("R", 2, M))
    for n in (0, 4, -1):
        with pytest.raises(ValueError, match=f"need 0 < n < k, got n={n}, k=4"):
            fl.GramPoint("R", n, M)


def _eigh_frame(R, n):
    """The frame an ``eigh`` of P = (n/k) R gives, by the same operations
    `_recovered_frames` runs when it defers to ``eigh``."""
    k = R.shape[-1]
    P = (n / k) * R
    V = np.linalg.eigh((P + P.swapaxes(-1, -2).conj()) / 2)[1][..., ::-1]
    return np.sqrt(k / n) * V[..., :n].swapaxes(-1, -2).conj()


def _block_point(seed):
    """Two seeded (6, 3) Gram points on the diagonal: a rank-6 point at k = 12."""
    R = np.zeros((12, 12))
    R[:6, :6], R[6:, 6:] = (fl.gram(random_stf(6, 3, "R", seed + i, spread=0.05)).entries
                            for i in range(2))
    return fl.GramPoint("R", 6, R)


#: name -> the Gram points of one family the range finder must recover
_RECOVERY_CORPUS = {
    "harmonic R": lambda: [fl.gram(fl.harmonic_frame(k, n, "R"))
                           for k, n in ((5, 2), (7, 3), (6, 4), (8, 4), (9, 3), (12, 8))],
    "harmonic C": lambda: [fl.gram(fl.harmonic_frame(k, n, "C"))
                           for k, n in ((5, 2), (7, 3), (6, 3), (8, 6), (12, 4), (16, 7))],
    "regular": lambda: [fl.construct_regular_point(k, n)
                        for k, n in ((4, 2), (6, 3), (9, 4), (12, 8), (48, 24), (64, 24))],
    "block (12,6)": lambda: [_block_point(seed) for seed in (1, 23)],
    "one redundant": lambda: [fl.GramPoint("R", 1, R) for n in range(1, 7)
                              for R in fl.enumerate_one_redundant(n).points],
    "torus": lambda: [fl.torus_point([1j]), fl.torus_point(np.exp(2j * np.pi * np.r_[0.1, 0.37, 0.8])),
                      fl.torus_point(np.exp(2j * np.pi * np.random.default_rng(4).random(11)))],
    "simplex": lambda: [fl.gram(fl.simplex_frame(n)) for n in range(1, 9)],
}


@pytest.mark.parametrize("name", sorted(_RECOVERY_CORPUS))
def test_range_finder_recovers_the_eigh_frame(name, monkeypatch):
    """Every point is certified (no eigen call), its frame is the eigh
    frame turned by an orthogonal map, and its Gram matrix misses R by at
    most the eigh frame's miss plus n eps, the bound `_recovered_frames`
    derives for every frame it takes.  That bound holds in exact
    arithmetic; the two computed misses and the eigh frame carry rounding,
    allowed for by k eps (at most 0.5 k eps is used here)."""
    points = _RECOVERY_CORPUS[name]()
    calls = _count_eigen_calls(monkeypatch)
    for R in points:
        k, n = R.k, R.n
        F = fl.frame_from_gram(R)
        assert calls == []
        E = fl.Frame(R.field, _eigh_frame(R.entries, n))
        calls.clear()
        witness = fl.same_orbit(E, F)
        assert witness is not None and witness.residual <= 1e-12

        def miss(G):
            return np.max(np.abs(G.conj().T @ G - R.entries))
        assert miss(F.entries) <= miss(E.entries) + (n + k) * np.finfo(np.float64).eps


@pytest.mark.parametrize("name", sorted(_RECOVERY_CORPUS))
def test_split_checks_make_no_eigen_call_on_a_gram_point(name, monkeypatch):
    """is_gram_point and tangent_report take the split of every point from
    `_split`'s bounds: no eigendecomposition on a valid Gram point."""
    points = _RECOVERY_CORPUS[name]()
    calls = _count_eigen_calls(monkeypatch)
    for R in points:
        assert fl.is_gram_point(R.entries, R.n).ok
        assert fl.tangent_report(R).rank >= 0
    assert calls == []


def test_range_finder_defers_to_eigh_off_a_projection():
    """A matrix that is no projection gets the eigh frame, bit for bit, and
    a narrow gap the eigh refusal with the eigh gap."""
    Q = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))[0]
    for spectrum in ((1.0, 0.7, 0.4, 0.0), (1.0, 0.9, 0.1, 0.0)):
        R = fl.GramPoint("R", 2, 2 * (Q * spectrum) @ Q.T)
        ev = np.linalg.eigvalsh(R.projection())[::-1]
        gap = ev[1] - ev[2]
        if gap < grassmann.RANK_GAP:
            with pytest.raises(ValueError) as err:
                fl.frame_from_gram(R)
            assert str(err.value) == f"eigenvalues not clustered at 0 and 1 (gap {gap:.3g} < 0.5)"
        else:
            assert np.array_equal(fl.frame_from_gram(R).entries, _eigh_frame(R.entries, 2))


def test_split_rule_refuses_a_scaled_gram_point():
    """2R and (k/n)R split with a wide gap, but their top eigenvalue lies 1
    and 1.5 from 1: frame_from_gram and tangent_report refuse them, naming
    both extremes, as is_gram_point's rank_ok does.  1.2R keeps its
    extremes within 1/4 and passes all three."""
    R = fl.gram(fl.harmonic_frame(5, 2, "R")).entries
    for scale, top in ((2.0, "2"), (5 / 2, "2.5")):
        S = fl.GramPoint("R", 2, scale * R)
        assert not fl.is_gram_point(S.entries, 2).rank_ok
        for f in (fl.frame_from_gram, fl.tangent_report):
            with pytest.raises(ValueError, match=rf"^eigenvalues not clustered at 0 and 1 \(extreme"
                                                 rf" eigenvalues {top} and \S+, not within 0.25"
                                                 r" of 1 and 0\)$"):
                f(S)
    S = fl.GramPoint("R", 2, 1.2 * R)
    assert fl.is_gram_point(S.entries, 2).rank_ok
    assert fl.frame_from_gram(S).k == 5 and fl.tangent_report(S).regular


def test_frame_from_gram_makes_no_eigen_call(monkeypatch):
    points = [fl.construct_regular_point(48, 24), fl.gram(fl.harmonic_frame(9, 4, "C")),
              fl.gram(fl.simplex_frame(2)), fl.gram(random_stf(30, 7, "C", 5, spread=0.05))]
    calls = _count_eigen_calls(monkeypatch)
    for R in points:
        fl.frame_from_gram(R)
    assert calls == []


def test_lift_refuses_a_tol_no_margin_can_pass():
    R = fl.gram(fl.simplex_frame(2))
    for tol in (1.0, 5.0):
        for call in (lambda: fl.holonomy_sign([R] * 4, tol=tol),
                     lambda: fl.lift_gram_path([R, R], tol=tol)):
            with pytest.raises(ValueError, match=f"^tol {tol:g} >= 1 refuses every step: a"
                                                 " Procrustes margin is at most 1$"):
                call()
    assert fl.holonomy_sign([R] * 4, tol=0.99) == 1


def test_same_orbit_witness_accuracy():
    rng = np.random.default_rng(3)
    F = random_stf(6, 3, "R", 1)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    G = fl.act_orthogonal(F, Q)
    w = fl.same_orbit(F, G)
    assert w is not None and np.max(np.abs(w.U - Q)) < 1e-9
    assert fl.same_orbit(F, F).residual < 1e-12
    for other in (random_stf(7, 3, "R", 1), random_stf(6, 2, "R", 1), random_stf(6, 3, "C", 1)):
        with pytest.raises(ValueError, match="mismatched shape or field"):
            fl.same_orbit(F, other)


def test_same_orbit_witness_is_read_only():
    """OrbitWitness.U is a read-only array, as every array a value holds."""
    F = random_stf(6, 3, "C", 1)
    U = fl.same_orbit(F, fl.act_phases(F, [1j] * 6)).U
    assert not U.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        U[0, 0] = 0.0


def test_same_orbit_absent_when_grams_differ():
    F = fl.simplex_frame(2)
    G = fl.act_phases(F, [-1, 1, 1])
    # negating one vector changes the off-diagonal sign pattern
    assert np.max(np.abs(fl.gram(F).entries - fl.gram(G).entries)) > 0.5
    assert fl.same_orbit(F, G) is None


def test_torus_point_values():
    assert_allclose(fl.torus_point([1, 1, 1]).entries, np.ones((4, 4)), atol=1e-15)
    T = fl.torus_point([1j])
    assert_allclose(T.entries, np.array([[1, -1j], [1j, 1]]), atol=1e-15)
    rng = np.random.default_rng(0)
    z = np.exp(2j * np.pi * rng.random(5))
    assert fl.is_gram_point(fl.torus_point(z).entries, 1).ok
    with pytest.raises(ValueError, match="at least one phase"):
        fl.torus_point([])
    for zetas in ([1j, 2.0], [1 + 1e-9]):
        with pytest.raises(ValueError, match="phases must be unimodular"):
            fl.torus_point(zetas)


def _brute_force_orbits(n):
    """Literal group actions on sign patterns (the R = (n+1)vv^T points are
    in bijection with patterns modulo a global flip)."""
    pts = [(1,) + eps for eps in itertools.product((1, -1), repeat=n)]

    def canon(v):
        return max(v, tuple(-x for x in v))

    perm_reps = set()
    for v in pts:
        orbit = {canon(tuple(v[p] for p in perm))
                 for perm in itertools.permutations(range(n + 1))}
        perm_reps.add(min(orbit))
    sign_reps = set()
    for v in pts:
        orbit = {canon(tuple(a * b for a, b in zip(v, sg)))
                 for sg in itertools.product((1, -1), repeat=n + 1)}
        sign_reps.add(min(orbit))
    return len(perm_reps), len(sign_reps)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_one_redundant_matches_brute_force(n):
    res = fl.enumerate_one_redundant(n)
    assert len(res.points) == 2 ** n
    perm, sign = _brute_force_orbits(n)
    assert res.permutation_orbits == perm
    assert res.sign_orbits == sign
    for R in res.points[:4]:
        assert fl.is_gram_point(R, 1).ok


def test_enumerate_one_redundant_counts():
    # ceil(n/2)+1 permutation orbits; a single sign orbit
    for n in range(1, 11):
        res = fl.enumerate_one_redundant(n)
        assert len(res.points) == 2 ** n
        assert res.permutation_orbits == (n + 1) // 2 + 1
        assert res.sign_orbits == 1


def test_points_distinct():
    res = fl.enumerate_one_redundant(3)
    keys = {tuple(np.round(p, 6).ravel()) for p in res.points}
    assert len(keys) == 8


def _per_point_enumeration(n):
    """The per-point loop `enumerate_one_redundant` used before it stacked
    the outer products: (the entries of the points, permutation orbits)."""
    points, perm_canon = [], set()
    for bits in range(2 ** n):
        signs = [1] + [1 - 2 * ((bits >> j) & 1) for j in range(n)]
        v = np.array(signs, dtype=np.float64) / np.sqrt(n + 1)
        points.append((n + 1) * np.outer(v, v))
        flipped = tuple(-s for s in signs)
        perm_canon.add(max(tuple(sorted(signs)), tuple(sorted(flipped))))
    return points, len(perm_canon)


@pytest.mark.parametrize("n", range(1, 13))
def test_enumeration_matches_the_per_point_loop(n):
    points, perm = _per_point_enumeration(n)
    res = fl.enumerate_one_redundant(n)
    assert res.points.dtype == np.float64 and res.points.shape == (2 ** n, n + 1, n + 1)
    # one owned contiguous stack: the block copies leave no writable view behind
    assert res.points.flags.c_contiguous and res.points.base is None
    # R = s s^T for the sign row s of pattern b: every entry exactly +-1
    for b, R in enumerate(res.points):
        s = np.array([1] + [1 - 2 * ((b >> j) & 1) for j in range(n)])
        assert np.array_equal(R, np.outer(s, s))
    # the loop's (n+1) v v^T rounds through 1/sqrt(n+1): the same within a few ulp
    np.testing.assert_array_max_ulp(res.points, np.stack(points), maxulp=2)
    assert not res.points.flags.writeable
    assert (res.permutation_orbits, res.sign_orbits) == (perm, 1)


def test_enumeration_builds_no_gram_point(monkeypatch):
    """The points are one stack of entries: no GramPoint is constructed
    (nor validated) per point."""
    built, real = [], grassmann.GramPoint

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(grassmann, "GramPoint", counting)
    res = grassmann.enumerate_one_redundant(8)
    assert len(res.points) == 256 and built == []


def case1_gram_loop(max_step=0.05):
    return fl.to_gram_loop(fl.case1_explicit_path(max_step))


def test_holonomy_constant_loop():
    R = fl.gram(fl.simplex_frame(2))
    assert fl.holonomy_sign([R] * 4) == 1


def test_holonomy_case1_loop():
    loop = case1_gram_loop()
    assert fl.holonomy_sign(loop) == -1


def test_holonomy_doubled_loop():
    loop = case1_gram_loop()
    assert fl.holonomy_sign(loop + loop[1:]) == 1


def _refined(loop):
    """The loop with a Gram point between each pair of neighbours: F*F for
    the eigh frame F of their mean, columns normalized (tight within 1e-13
    on the case-1 and case-3 loops)."""
    R = np.stack([p.entries for p in loop])
    F = _eigh_frame((R[:-1] + R[1:]) / 2, loop[0].n)
    F = F / np.linalg.norm(F, axis=-2, keepdims=True)
    mids = [fl.GramPoint("R", loop[0].n, m) for m in F.swapaxes(-1, -2) @ F]
    return [p for pair in zip(loop, mids) for p in pair] + loop[-1:]


def test_holonomy_refinement_invariance():
    loop = case1_gram_loop()
    assert fl.holonomy_sign(_refined(loop)) == -1
    assert fl.holonomy_sign(case1_gram_loop(max_step=0.02)) == -1


def test_holonomy_rejects_open_or_coarse_loops():
    loop = case1_gram_loop()
    with pytest.raises(ValueError, match="not closed"):
        fl.holonomy_sign(loop[:-5])
    with pytest.raises(ValueError, match="step"):
        fl.holonomy_sign([loop[0], loop[len(loop) // 2], loop[0]])
    for pts in ([], loop[:1]):
        with pytest.raises(ValueError, match="loop needs at least two points"):
            fl.holonomy_sign(pts)
    # two points one Gram step of 2/11 apart, yet ||P_1 - P_0||_2 = 1: the
    # fit is not unique inside the step bound; the margin is 0 up to rounding
    a, b = _swapped_points()
    with pytest.raises(ValueError, match="Procrustes margin .* at index 1 <= tol") as err:
        fl.holonomy_sign([a, b, a])
    assert _margin_in(str(err.value)) < _ROUNDED_ZERO_MARGIN
    # every fit of this thinned loop is unique (margins 0.797), yet the loop
    # joining its three samples inside their Procrustes balls has sign +1,
    # not the case-1 loop's -1: only the step bound refuses it
    with pytest.raises(ValueError, match="gram step 0.963 at index 1 exceeds 0.2"):
        fl.holonomy_sign([loop[0], loop[100], loop[126]])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 12 - 1))
def test_gram_equivariance_under_phases_and_permutations(bits):
    # diag(conj z) R diag(z) and A^T R A track the frame-level actions
    rng = np.random.default_rng(bits)
    F = fl.harmonic_frame(5, 2, "C")
    z = np.exp(2j * np.pi * rng.random(5))
    perm = rng.permutation(5)
    R = fl.gram(F).entries
    Rz = fl.gram(fl.act_phases(F, z)).entries
    assert np.max(np.abs(Rz - np.diag(z.conj()) @ R @ np.diag(z))) < 1e-12
    A = fl.permutation_matrix(perm)
    Rp = fl.gram(fl.act_permutation(F, perm)).entries
    assert np.max(np.abs(Rp - A.conj().T @ R @ A)) < 1e-12


def test_complement_intertwines_actions():
    rng = np.random.default_rng(11)
    F = random_stf(6, 2, "R", 2)
    R = fl.gram(F)
    perm = rng.permutation(6)
    signs = rng.choice([-1.0, 1.0], size=6)
    A = fl.permutation_matrix(perm)
    D = np.diag(signs)
    lhs = fl.complement(fl.GramPoint("R", 2, A.T @ R.entries @ A)).entries
    rhs = A.T @ fl.complement(R).entries @ A
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    lhs = fl.complement(fl.GramPoint("R", 2, D @ R.entries @ D)).entries
    rhs = D @ fl.complement(R).entries @ D
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gram_constant_on_orbits():
    rng = np.random.default_rng(21)
    F = random_stf(5, 3, "C", 8)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    G = fl.act_orthogonal(F, Q)
    assert np.max(np.abs(fl.gram(F).entries - fl.gram(G).entries)) < 1e-10


#: a Procrustes margin that is 0 in exact arithmetic, as computed for
#: `_swapped_points`: below 4 eps, a rounding error of the recovered frames
_ROUNDED_ZERO_MARGIN = 4 * np.finfo(np.float64).eps


def _margin_in(message):
    return float(re.search(r"margin (\S+) at index", message).group(1))


def _per_step_lift(pts):
    """A step-by-step lift of the loop closed by its first point once more,
    with frames from a plain ``eigh`` and fits from a plain SVD, each frame
    turned onto the one before whatever the rules decide: the Gram step,
    the frame's miss and the Procrustes margin (n/k) sigma_min at each
    index, and the sign of det(F[m] F[0]^T), the first point's frame
    carried round the loop."""
    k, n = pts[0].k, pts[0].n
    frames, trace, closed = [], [], pts + pts[:1]
    for i, R in enumerate(closed):
        step = float(np.max(np.abs(R.entries - closed[i - 1].entries))) if i else 0.0
        G = np.sqrt(k / n) * np.linalg.eigh(n / k * R.entries)[1][:, -n:].T
        miss, margin = float(np.max(np.abs(G.T @ G - R.entries))), np.inf
        if frames:
            U, s, Wt = np.linalg.svd(frames[-1] @ G.T)
            G, margin = U @ Wt @ G, n / k * s[-1]
        frames.append(G)
        trace.append((step, miss, margin))
    return trace, 1 if np.linalg.det(frames[-1] @ frames[0].T) > 0 else -1


def _per_step_holonomy_sign(loop, tol=fl.DEFAULT_TOL, lifted=None):
    """`_per_step_lift` of the loop (or ``lifted``, that lift computed
    before) under the lift's three rules, in order, per index: the first
    index whose Gram step, frame miss or Procrustes margin breaks its rule
    is refused, and a loop that breaks none gets the lift's sign."""
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
    trace, sign = lifted or _per_step_lift(pts)
    for i, (step, miss, margin) in enumerate(trace):
        if step > 0.2:
            raise ValueError(f"gram step {step:.3g} at index {i} exceeds 0.2")
        if miss > tol:
            raise ValueError(f"frame at index {i} misses its Gram point by {miss:.3g}"
                             f" > tol {tol:g}: not a Gram point")
        if not margin > tol:
            raise ValueError(f"Procrustes margin {margin:.3g} at index {i} <= tol {tol:g}:"
                             " the fit onto the previous frame is not unique")
    return sign


@functools.cache
def _conjugation_loop(k, seed):
    """Gram loop from z to the canonical frame and back to conj(z): the
    lift ends at the reflection of its start, holonomy -1."""
    z = fl.random_planar_frame(k, np.random.default_rng(seed))
    there = fl.to_gram_loop(fl.connect_to_standard(z))
    back = fl.to_gram_loop(fl.connect_to_standard(fl.PlanarFrame(np.conj(z.z))))
    return there + back[::-1][1:]


_LOOPS = {
    "case-1": (lambda: case1_gram_loop(), -1),
    "case-3": (lambda: fl.to_gram_loop(fl.case3_explicit_path()), -1),
    "doubled case-1": (lambda: case1_gram_loop() + case1_gram_loop()[1:], 1),
    "refined case-1": (lambda: _refined(case1_gram_loop()), -1),
    "refined case-3": (lambda: _refined(fl.to_gram_loop(fl.case3_explicit_path())), -1),
    **{f"conjugation k={k} seed={seed}": (functools.partial(_conjugation_loop, k, seed), -1)
       for k in range(5, 10) for seed in range(2)},
}


@pytest.mark.parametrize("name", sorted(_LOOPS))
def test_holonomy_matches_the_per_step_loop(name):
    make, sign = _LOOPS[name]
    loop = make()
    assert fl.holonomy_sign(loop) == _per_step_holonomy_sign(loop) == sign


@pytest.mark.parametrize("field,k,n", [("R", 5, 2), ("C", 5, 2), ("C", 9, 4)])
def test_retracted_eigh_frame_projects_onto_the_gram_points(field, k, n):
    """F*F for the retracted eigh frame F of a matrix 1e-3 off a Gram point
    is a Gram point of the same field, near the one it came from."""
    R = fl.gram(random_stf(k, n, field, 9, spread=0.05))
    rng = np.random.default_rng(1)
    noise = rng.standard_normal((k, k))
    if field == "C":
        noise = noise + 1j * rng.standard_normal((k, k))
    F = fl.frames._retract(_eigh_frame(R.entries + 1e-3 * noise, n))
    proj = F.conj().T @ F
    assert proj.dtype == R.entries.dtype
    assert fl.is_gram_point(proj, n, tol=1e-9).ok
    assert np.max(np.abs(proj - R.entries)) < 0.05


@pytest.mark.parametrize("name", sorted(_LOOPS))
def test_holonomy_survives_refinement(name):
    """A Gram point between each pair of neighbours, F*F for the retracted
    eigh frame F of their mean (all midpoints as one stack), leaves the sign
    unchanged, by the library lift and by the per-step one."""
    make, sign = _LOOPS[name]
    loop = make()
    R = np.stack([p.entries for p in loop])
    F = fl.frames._retract(_eigh_frame((R[:-1] + R[1:]) / 2, loop[0].n))
    mids = [fl.GramPoint(loop[0].field, loop[0].n, m) for m in F.conj().swapaxes(-1, -2) @ F]
    refined = [p for pair in zip(loop, mids) for p in pair] + loop[-1:]
    assert len(refined) == 2 * len(loop) - 1
    assert fl.holonomy_sign(refined) == _per_step_holonomy_sign(refined) == sign


def _hadamard(k):
    """The orthogonal k x k Hadamard matrix of Sylvester, k a power of 2."""
    H = np.array([[1.0]])
    while len(H) < k:
        H = np.block([[H, H], [H, -H]])
    return H / np.sqrt(k)


def _swapped_points(k=16, n=11):
    """Two Gram points (k/n) P whose projections P onto n Hadamard columns
    differ by one column swapped for another: ||P_1 - P_0||_2 = 1, so the
    Procrustes fit between their frames is not unique, while the Gram step
    is only 2/n."""
    H = _hadamard(k)
    return [fl.GramPoint("R", n, (k / n) * H[:, cols] @ H[:, cols].T)
            for cols in (slice(0, n), slice(1, n + 1))]


def _spread_points(k=16, n=9, turn=0.02):
    """Two matrices (k/n) P whose top-n spectrum sits just 0.51 above the
    rest; turning one top eigenvector a little moves the frame by about
    three times the Gram step.  P is no projection, so the frame recovered
    from it misses the first point."""
    H = _hadamard(k)
    P = H @ np.diag(np.r_[0.51, np.linspace(0.8, 1.0, n - 1), np.zeros(k - n)]) @ H.T
    turned = P + turn * (np.outer(H[:, 0], H[:, n]) + np.outer(H[:, n], H[:, 0]))
    return [fl.GramPoint("R", n, (k / n) * M) for M in (P, turned)]


def _faulty_loops():
    """name -> (loop, keyword arguments) for loops the lift refuses."""
    c1, c3 = case1_gram_loop(), fl.to_gram_loop(fl.case3_explicit_path())
    eye = fl.GramPoint("R", 2, np.eye(5))
    off = fl.GramPoint("R", 2, c3[40].entries * (1 + 1e-6))
    a, b = _spread_points()
    swapped = _swapped_points()
    return {
        "open": (c1[:-5], {}),
        "coarse": ([c1[0], c1[len(c1) // 2], c1[0]], {}),
        "identity inserted": (c3[:40] + [eye] + c3[40:], {}),
        "off point inserted": (c3[:40] + [off] + c3[40:], {}),
        "identity first": ([eye, eye], {}),
        "identity, then a cut": (c3[:40] + [eye] + c3[40:100] + c3[140:], {}),
        "a cut, then identity": (c3[:60] + c3[100:150] + [eye] + c3[150:], {}),
        "off point, then a cut": (c3[:40] + [off] + c3[40:100] + c3[200:], {}),
        "alignment residual": ([a, b, a], {}),
        "non-unique fit": (swapped + swapped[:1], {}),
        # the closing step, index 32: 0.716 in the max norm and in margin
        "wide closing step": (c1[48:80], {"tol": 0.72}),
        # the closing step, index 7: 0.149 in the max norm, margin 0.989
        "non-unique closing fit": (c1[60:67], {"tol": 0.99}),
    }


def _without_zero_margin_digits(outcome):
    """A refusal whose Procrustes margin is 0 up to rounding, with the
    margin's digits removed: two recoveries round it differently."""
    found = re.search(r"margin (\S+) at index", str(outcome))
    if found and float(found.group(1)) < _ROUNDED_ZERO_MARGIN:
        return outcome.replace(found.group(0), "margin at index")
    return outcome


def _holonomy_outcome(f, loop, **kwargs):
    try:
        return f(loop, **kwargs)
    except ValueError as exc:
        return _without_zero_margin_digits(str(exc))


@pytest.mark.parametrize("name", sorted(_faulty_loops()))
def test_holonomy_refusals_match_the_per_step_loop(name):
    loop, kwargs = _faulty_loops()[name]
    refusal = _holonomy_outcome(fl.holonomy_sign, loop, **kwargs)
    assert isinstance(refusal, str)
    assert refusal == _holonomy_outcome(_per_step_holonomy_sign, loop, **kwargs)


def test_holonomy_closing_step_answers_to_the_lift_rules():
    """The closing step of a loop of m points is the lift's step m, refused
    by the step rule or the margin rule like any other: each loop below
    closes within its tol, and only its closing step breaks a rule."""
    c1 = case1_gram_loop()
    with pytest.raises(ValueError, match="^gram step 0.716 at index 32 exceeds 0.2$"):
        fl.holonomy_sign(c1[48:80], tol=0.72)
    with pytest.raises(ValueError, match="^Procrustes margin 0.989 at index 7 <= tol 0.99: the"
                                         " fit onto the previous frame is not unique$"):
        fl.holonomy_sign(c1[60:67], tol=0.99)


def test_holonomy_grid_matches_the_per_step_loop():
    """Every _LOOPS loop thinned to every stride-th point (closed by its
    last), at tols 1e-9, 1e-6 and 0.5: the lift's sign or refusal is the
    per-step reference's.  The reference lifts each thinned loop once for
    all its tols."""
    outcomes = collections.Counter()
    for full in (make() for make, _ in _LOOPS.values()):
        for stride in (1, 2, 4, 8, 16, 32):
            loop = full[:-1:stride] + full[-1:]
            lifted = _per_step_lift(loop)
            for tol in (1e-9, 1e-6, 0.5):
                got = _holonomy_outcome(fl.holonomy_sign, loop, tol=tol)
                assert got == _holonomy_outcome(_per_step_holonomy_sign, loop, tol=tol,
                                                lifted=lifted)
                outcomes[type(got)] += 1
    assert outcomes == {int: 111, str: 159}


@pytest.mark.parametrize("name", ["case-1", "case-3", "doubled case-1",
                                  "conjugation k=5 seed=0", "conjugation k=9 seed=1"])
def test_lift_gram_path_invariants(name):
    make, _ = _LOOPS[name]
    loop = make()
    k, n = loop[0].k, loop[0].n
    F = fl.lift_gram_path(loop)
    assert F.shape == (len(loop), n, k) and F.dtype == np.float64
    assert not F.flags.writeable
    assert max(np.max(np.abs(f.T @ f - R.entries)) for f, R in zip(F, loop)) <= fl.DEFAULT_TOL
    assert np.max(np.abs(np.diff(F, axis=0))) <= 2.5 * grassmann.DEFAULT_LOOP_STEP + 1e-6
    assert np.array_equal(F[0], fl.frame_from_gram(loop[0]).entries)
    det = np.linalg.det((n / k) * F[-1] @ F[0].T)
    assert np.sign(det) == fl.holonomy_sign(loop)
    # an open piece of the path lifts to the same frames
    assert np.max(np.abs(fl.lift_gram_path(loop[:50]) - F[:50])) < 1e-12


def test_lift_gram_path_refuses_what_is_no_gram_path():
    R = fl.gram(fl.simplex_frame(2))
    off = fl.GramPoint("R", R.n, R.entries * (1 + 1e-6))
    with pytest.raises(ValueError, match="index 1 misses its Gram point by 1e-06 > tol 1e-09"):
        fl.holonomy_sign([R, off, R])
    assert fl.lift_gram_path([R, off, R], tol=1e-5).shape == (3, 2, 3)
    assert fl.holonomy_sign([R, off, R], tol=1e-5) == 1
    # one point has no fit to hold to the margin rule, at any tol
    assert fl.lift_gram_path([R], tol=2.0).shape == (1, 2, 3)
    for path in ([], [fl.torus_point([1j])], [R, fl.gram(fl.simplex_frame(3))]):
        with pytest.raises(ValueError, match="nonempty path of real Gram points"):
            fl.lift_gram_path(path)


def test_holonomy_tol_reaches_the_closing_fit():
    """The case-1 loop closed by a point 5e-3 from its start, so closed only
    within tol = 1e-2: its end frame is no exact turn of its first, and tol
    alone decides whether its closing step holds."""
    e = np.exp(5e-3j)
    loop = case1_gram_loop() + [fl.gram(fl.from_planar(np.array([e, 1j * e, 1, 1j])))]
    assert fl.holonomy_sign(loop, tol=1e-2) == _per_step_holonomy_sign(loop, tol=1e-2) == -1
    with pytest.raises(ValueError, match="not closed"):
        fl.holonomy_sign(loop)


@pytest.mark.parametrize("k, n, field", [(7, 3, "R"), (9, 4, "C")])
def test_procrustes_section_trivializes_the_bundle(k, n, field):
    """Over the ball ||P - P_0||_2 < 1, s(R) = V(R) raw(R) with V(R) the
    Procrustes fit of the recovered frame raw(R) onto F_0 is a section of
    F -> G through F_0, and F = U s(F*F) with U = (n/k) F s(R)* unitary:
    the local trivialization the lift's margin rule rests on.  The margin
    (n/k) sigma_min(F_0 raw(R)*) is sqrt(1 - ||P - P_0||_2^2)."""
    rng = np.random.default_rng(k)

    def noise(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if field == "C" else z

    def H(A):
        return A.conj().swapaxes(-1, -2)

    F0 = random_stf(k, n, field, k, spread=0.3).entries
    F = np.linalg.qr(noise(16, n, n))[0] @ fl.frames._retract(
        F0 + np.linspace(0.01, 0.25, 16)[:, None, None] * noise(16, n, k))
    R = H(F) @ F
    raw = grassmann._recovered_frames(np.concatenate((R, H(F0)[None] @ F0)), n)[0]
    V, smin = grassmann._procrustes(F0, raw)
    s = V @ raw
    assert np.max(np.abs(s[-1] - F0)) < 1e-12
    s, smin = s[:-1], smin[:-1]
    U = (n / k) * F @ H(s)
    dP = np.linalg.norm((n / k) * (R - H(F0) @ F0), 2, axis=(1, 2))
    assert 0 < dP.min() and dP.max() < 0.9
    assert np.max(np.abs(U @ H(U) - np.eye(n))) < 1e-12
    assert np.max(np.abs(U @ s - F)) < 1e-12
    assert np.max(np.abs((n / k) * smin - np.sqrt(1 - dP ** 2))) < 1e-12


def test_holonomy_lift_is_stacked(monkeypatch):
    """The lift makes one recovery and one Procrustes call however long
    the loop, the closing step included: a return to one call per point,
    or to a closing fit of its own, fails here."""
    calls = collections.Counter()
    for name in ("_recovered_frames", "_procrustes"):
        def counted(*args, _name=name, _real=getattr(grassmann, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(grassmann, name, counted)
    loop = case1_gram_loop()
    seen = []
    for pts in (loop, loop + loop[1:]):
        calls.clear()
        assert fl.holonomy_sign(pts) in (-1, 1)
        seen.append(dict(calls))
    assert (len(loop), len(loop + loop[1:])) == (127, 253)
    assert seen[0] == seen[1] == {"_recovered_frames": 1, "_procrustes": 1}


def _count_eigen_calls(monkeypatch):
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _f=getattr(np.linalg, name),
                            **kw: calls.append(_name) or _f(*a, **kw))
    return calls


def test_is_gram_point_eigen_calls(monkeypatch):
    # ||H^2 - H||_F and tr H decide the split of a Gram point; an eigh runs
    # only on an input they cannot decide, here P = I/2 with delta = 1/2;
    # one norm decides that a tight frame is tight, in gram and is_tight
    R = fl.construct_regular_point(48, 24)
    frames = [random_stf(k, n, field, 1, spread=0.05)
              for field, k, n in ((f, k, n) for f, shapes in (("R", ((6, 3), (12, 5), (64, 24))),
                                                             ("C", ((9, 4), (40, 13))))
                                  for k, n in shapes)]
    calls = _count_eigen_calls(monkeypatch)
    assert fl.is_gram_point(R.entries, 24).ok
    assert all(fl.is_tight(F)[0] and fl.gram(F).n == F.n for F in frames)
    assert calls == []
    assert not fl.is_gram_point(np.eye(4), 2).rank_ok
    assert calls == ["eigh"]


@pytest.mark.parametrize("k,n", [(4, 2), (9, 4), (48, 24)])
def test_split_bound_decides_only_within_its_proof(k, n, monkeypatch):
    # one eigenvalue x near 0 and n at 1: delta = x (1 - x), whose inner root
    # e = x is the deviation itself, so the bounds decide exactly when k x < 1/4;
    # otherwise the split is the eigh split (1, 1 - x, 0)
    calls = _count_eigen_calls(monkeypatch)
    for x, decided in ((0.99 / (4 * k), True), (1.01 / (4 * k), False)):
        R = (k / n) * np.diag(np.r_[np.ones(n), x, np.zeros(k - n - 1)])
        calls.clear()
        split = grassmann._split(R, n)
        assert calls == ([] if decided else ["eigh"])
        expected = (1 - x, 1 - 2 * x, x) if decided else (1, 1 - x, 0)
        assert_allclose(split, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("n", [2, 3, 7, 24])
def test_tight_bound_decides_only_within_its_proof(n, field, monkeypatch):
    # F = diag(sqrt(lam)) V, V with orthonormal rows, so F F* = diag(lam):
    # lam = 1 + a u for a zero-mean unit u puts 2 ||F F* - c I||_F at 2a,
    # so the bound decides when 2a is below tol c and leaves the eigvalsh
    # otherwise; either way the verdict is the definition on frame_bounds
    rng = np.random.default_rng(n)
    A = _noise(n + 3, field, rng)
    V = np.linalg.qr(A)[0][:n]
    u = rng.standard_normal(n)
    u -= u.mean()
    u /= np.linalg.norm(u)
    calls, seen = _count_eigen_calls(monkeypatch), set()
    for tol in (1e-9, 1e-3):
        for ratio, decided in ((0.99, True), (1.01, False), (1.5, False), (3.0, False)):
            F = fl.Frame(field, np.sqrt(1 + ratio * tol / 2 * u)[:, None] * V)
            b = fl.frame_bounds(F)
            calls.clear()
            tight, bound = fl.is_tight(F, tol)
            assert calls == ([] if decided else ["eigvalsh"])
            assert tight == ((b.upper - b.lower) <= tol * b.upper)
            assert bound == float(np.trace(F.entries @ F.entries.conj().T).real) / n
            assert tight or not decided
            seen.add((decided, tight))
    assert seen == {(True, True), (False, True), (False, False)}  # the bound is one-sided
    calls.clear()
    fl.frame_bounds(F)
    assert calls == ["eigvalsh"]


def _eigh_split(P, n):
    """The spectral-split rule by definition, sharing no code with the
    library: gap >= 1/2 at the n-th eigenvalue, the extremes within 1/4
    of 1 and 0."""
    ev = np.linalg.eigvalsh((P + P.conj().T) / 2)[::-1]
    return bool(ev[n - 1] - ev[n] >= 0.5 and abs(ev[0] - 1) <= 0.25 and abs(ev[-1]) <= 0.25)


def _noise(k, field, rng):
    A = rng.standard_normal((k, k))
    return A + 1j * rng.standard_normal((k, k)) if field == "C" else A


_SHAPES = ((6, 3, "R"), (12, 5, "R"), (9, 4, "C"), (16, 7, "C"))


@functools.cache
def _split_corpus():
    """(field, n, M) inputs near and far from the Gram points, by family;
    M is (k/n) P for the candidate projection P."""
    rng = np.random.default_rng(23)
    corpus = collections.defaultdict(list)
    for k, n, field in _SHAPES:
        R = fl.gram(random_stf(k, n, field, 23 + k, spread=0.05)).entries
        for eps in 10.0 ** np.linspace(-14, 0, 15):
            corpus["perturbed"].append((field, n, R + eps * _noise(k, field, rng)))
        for rank in (n - 1, n + 1):
            V = np.linalg.qr(_noise(k, field, rng))[0][:, :rank]
            for eps in (0.0, 1e-12, 1e-6, 1e-3, 1e-1):
                P = V @ V.conj().T + eps * _noise(k, field, rng)
                corpus["rank n +- 1"].append((field, n, (k / n) * P))
        for scale in (0.1, 0.5, 1.0, 2.0, 5.0):
            for _ in range(2):
                A = _noise(k, field, rng)
                corpus["self-adjoint"].append((field, n, scale * (A + A.conj().T) / 2))
        for at in (0.25, 0.5, 0.75):
            for moved in ((n - 1,), (n,), (n - 1, n), (0, k - 1)):
                spec = np.r_[np.ones(n), np.zeros(k - n)]
                spec[list(moved)] = at
                for eps in (0.0, 1e-9):
                    U = np.linalg.qr(_noise(k, field, rng))[0]
                    P = (U * spec) @ U.conj().T + eps * _noise(k, field, rng)
                    corpus["spectrum at 1/4, 1/2, 3/4"].append((field, n, (k / n) * P))
    return dict(corpus)


@pytest.mark.parametrize("family", sorted(_split_corpus()))
def test_split_bound_agrees_with_eigh(family, monkeypatch):
    calls = _count_eigen_calls(monkeypatch)
    producer = collections.Counter()
    for field, n, M in _split_corpus()[family]:
        calls.clear()
        split = grassmann._split(M, n)
        producer["eigh" if calls else "bounds"] += 1
        if not calls:  # the bounds hold the rule, and bound the eigenvalues they stand for
            assert grassmann._split_refusal(split) == ""
            P = (n / M.shape[0]) * M
            assert _eigh_split(P, n)
            top, gap, bottom = split
            ev = np.linalg.eigvalsh((P + P.conj().T) / 2)[::-1]
            slack = 1e-12
            assert abs(ev[0] - 1) <= 1 - top + slack and abs(ev[-1]) <= bottom + slack
            assert ev[n - 1] - ev[n] >= gap - slack
    # what the bounds decide and what they leave to the eigh: Gram points
    # perturbed up to 1e-2 (k = 6) or 1e-3, and no rank n +- 1 projection
    # nor spectrum with an eigenvalue in [1/4, 3/4]; a weaker bound shows here
    expected = {"perturbed": {"bounds": 49, "eigh": 11}, "rank n +- 1": {"eigh": 40},
                "self-adjoint": {"eigh": 40}, "spectrum at 1/4, 1/2, 3/4": {"eigh": 96}}
    assert dict(producer) == expected[family]


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("family", sorted(_split_corpus()))
def test_split_bound_keeps_every_verdict_and_message(family, monkeypatch):
    # is_gram_point's fields and tangent_report's answer or refusal, with
    # the bound and with every split left to the eigh, as before the bound
    inputs = [(M, fl.GramPoint(field, n, M)) for field, n, M in _split_corpus()[family]]
    runs = []
    for _ in range(2):
        runs.append([(_outcome(fl.is_gram_point, M, R.n), _outcome(fl.tangent_report, R))
                     for M, R in inputs])
        for module in (grassmann, stratification):
            monkeypatch.setattr(module, "_split", lambda R, n: grassmann._eigh_frames(R, n)[1])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("family", sorted(_split_corpus()))
def test_frame_from_gram_refuses_what_the_split_rule_refuses(family):
    """One rule for the split, whether the range finder certifies it or an
    eigh decides it: frame_from_gram refuses exactly the inputs whose gap
    or extreme eigenvalues break it.  The eigenvalues come from the eigh
    the library runs, as the corpus holds gaps of exactly 1/2, where
    eigvalsh and eigh may round to different sides."""
    for field, n, M in _split_corpus()[family]:
        P = (n / M.shape[0]) * M
        ev = np.linalg.eigh((P + P.conj().T) / 2)[0][::-1]
        holds = ev[n - 1] - ev[n] >= 0.5 and abs(ev[0] - 1) <= 0.25 and abs(ev[-1]) <= 0.25
        refusal = _outcome(fl.frame_from_gram, fl.GramPoint(field, n, M))
        assert refusal.startswith("ValueError") != holds
