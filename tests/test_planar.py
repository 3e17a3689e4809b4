from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import framelab as fl
from framelab import planar
from framelab.planar import CASE1_WAYPOINTS, CASE3_WAYPOINTS, FramePath

import fiber_search


def test_to_planar_two_bases():
    F = fl.Frame("R", np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float))
    z = fl.to_planar(F)
    assert_allclose(z.z, [1, 1j, -1, -1j], atol=1e-15)


def test_to_planar_simplex():
    z = fl.to_planar(fl.simplex_frame(2))
    expected = [np.sqrt(3) / 2 + 0.5j, -np.sqrt(3) / 2 + 0.5j, -1j]
    assert_allclose(z.z, expected, atol=1e-15)
    assert abs(np.sum(z.z ** 2)) < 1e-15


def test_planar_round_trip():
    z = fl.random_planar_frame(6, np.random.default_rng(0))
    back = fl.to_planar(fl.from_planar(z.z))
    assert np.max(np.abs(back.z - z.z)) < 1e-15


def test_to_planar_requires_dimension_two():
    with pytest.raises(ValueError):
        fl.to_planar(fl.simplex_frame(3))


def _accepts(call):
    try:
        call()
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([4, 5, 6, 7, 8, 9, 17]), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 16), st.floats(-11, -7), st.floats(-3e-9, 3e-9),
       st.sampled_from([1e-9, 1e-8]))
def test_to_planar_accepts_what_gram_accepts(k, seed, j, log_eps, delta, tol):
    """One coordinate turned by eps = 10^log_eps, so |sum z^2| = 2 eps, and
    every modulus scaled by 1 + delta: PlanarFrame's closed form decides
    tightness and sphericity as gram's eigenvalues and norms do."""
    z = fl.random_planar_frame(k, np.random.default_rng(seed)).z * (1 + delta)
    z[j % k] *= np.exp(1j * 10.0 ** log_eps)
    F = fl.from_planar(z)
    assert _accepts(lambda: fl.to_planar(F, tol)) == _accepts(lambda: fl.gram(F, tol))


def test_square_map_values():
    assert_allclose(fl.square_map(fl.PlanarFrame([1, 1j, 1, 1j])).w,
                    [1, -1, 1, -1], atol=1e-15)
    assert_allclose(fl.square_map(fl.PlanarFrame([1, 1j, -1, -1j])).w,
                    [1, -1, 1, -1], atol=1e-15)
    w = np.exp(2j * np.pi / 3)
    b5 = fl.canonical_planar(5)
    assert_allclose(fl.square_map(b5).w, [w, np.conj(w), 1, 1, -1], atol=1e-15)
    # standard_chain, the square of canonical_planar, against the literal table
    for k in range(4, 10):
        table = ([w, np.conj(w), 1, 1, -1] + [1, -1] * ((k - 5) // 2) if k % 2
                 else [1, -1] * (k // 2))
        assert_allclose(fl.standard_chain(k).w, table, rtol=0, atol=2.3e-16)


def test_lift_constant_chain():
    z = fl.random_planar_frame(5, np.random.default_rng(1))
    c = fl.square_map(z)
    cp = FramePath("chain", (0.0, 0.5, 1.0), (c.w, c.w, c.w), 0.05)
    lifted = fl.lift_path(cp, z)
    for p in lifted.points:
        assert np.max(np.abs(p - z.z)) < 1e-12


def test_lift_full_rotation_negates():
    z = fl.random_planar_frame(4, np.random.default_rng(2))
    c = fl.square_map(z)
    ts = np.linspace(0, 1, 201)
    pts = tuple(c.w * np.exp(2j * np.pi * t) for t in ts)
    cp = FramePath("chain", tuple(ts), pts, 0.05)
    lifted = fl.lift_path(cp, z)
    assert np.max(np.abs(lifted.end + z.z)) < 1e-10


def test_lift_rejects_coarse_path():
    z = fl.random_planar_frame(4, np.random.default_rng(3))
    c = fl.square_map(z)
    ts = (0.0, 0.5, 1.0)
    pts = (c.w, c.w * np.exp(1j * np.pi), c.w)
    cp = FramePath("chain", ts, pts, 2.5)
    with pytest.raises(ValueError):
        fl.lift_path(cp, z)


def test_square_of_lift_reproduces_chain():
    rng = np.random.default_rng(4)
    for k in (4, 5, 7):
        z = fl.random_planar_frame(k, rng)
        cp = fl.chain_straighten(fl.square_map(z))
        lifted = fl.lift_path(cp, z)
        for lp, wp in zip(lifted.points, cp.points):
            assert np.max(np.abs(lp ** 2 - wp)) < 2e-9


def test_chain_straighten_already_standard():
    c = fl.standard_chain(6)
    path = fl.chain_straighten(c)
    rep = fl.validate_path(path, 1e-9, expect_start=c.w, expect_end=c.w)
    assert rep.ok


def test_chain_straighten_small_example():
    c = fl.Chain([1j, -1j, 1, -1])
    path = fl.chain_straighten(c)
    rep = fl.validate_path(path, 1e-9, expect_start=c.w,
                           expect_end=fl.standard_chain(4).w)
    assert rep.ok


@pytest.mark.parametrize("k", range(4, 11))
def test_chain_straighten_random(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(100):
        c = fl.square_map(fl.random_planar_frame(k, rng))
        path = fl.chain_straighten(c)
        rep = fl.validate_path(path, 1e-9, expect_start=c.w,
                               expect_end=fl.standard_chain(k).w)
        assert rep.ok, rep


def test_connect_to_standard_identity():
    b = fl.canonical_planar(6)
    path = fl.connect_to_standard(b)
    rep = fl.validate_path(path, 1e-9, expect_start=b.z, expect_end=b.z)
    assert rep.ok


def test_connect_to_standard_case1_partner():
    z = fl.PlanarFrame([1, -1j, 1, -1j])
    path = fl.connect_to_standard(z)
    rep = fl.validate_path(path, 1e-9, expect_start=z.z,
                           expect_end=fl.canonical_planar(4).z)
    assert rep.ok


def test_connect_to_standard_random_k6():
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = fl.random_planar_frame(6, rng)
        path = fl.connect_to_standard(z)
        rep = fl.validate_path(path, 1e-6, expect_start=z.z,
                               expect_end=fl.canonical_planar(6).z)
        assert rep.ok


@pytest.mark.parametrize("k", [5, 7])
@pytest.mark.parametrize("eps", [0, 1e-12, 1e-9, 1e-8, 1e-6, 4e-5, 1e-2, np.pi / 2, 2, np.pi])
def test_connect_with_antipodal_links_1_2(k, eps):
    """Links 1-2 of the chain start antipodal at w0 = -i e^{i eps}; from
    near -i = -i w3 their segment to -w3 = -1 would land the triple
    mirrored, so the straightening turns them onto i w3 first, from which
    it lands (w, w-bar, 1)."""
    w0 = -1j * np.exp(1j * eps)
    r = np.exp(1j * np.pi / 3)
    z = fl.PlanarFrame([np.sqrt(w0), np.sqrt(-w0), 1, r, np.conj(r)]
                       + [1, 1j] * ((k - 5) // 2))
    path = fl.connect_to_standard(z)
    rep = fl.validate_path(path, expect_start=z.z, expect_end=fl.canonical_planar(k).z)
    assert rep.ok, rep


@pytest.mark.parametrize("k", [4, 5, 6, 9])
@pytest.mark.parametrize("eps", [1e-13, 1e-11, 1e-9, 1e-7])
def test_connect_near_the_canonical_frame(k, eps):
    """Frames within about eps of the canonical frame: each pair their
    chain collapses starts nearly antipodal, where the computed pair sum
    points off by about 1e-16 / |sum|."""
    rng = np.random.default_rng(0)
    b = fl.canonical_planar(k).z
    for _ in range(5):
        z = b * np.exp(1j * eps * rng.standard_normal(k))
        # close the frame: the last two squares cancel the rest, near b's
        s = np.sum(z[:-2] ** 2)
        wa = -s / 2 + 1j * s / abs(s) * np.sqrt(1 - abs(s) ** 2 / 4) * np.array([1, -1])
        wa = wa[np.argmin(np.abs(wa - b[-2] ** 2))]
        roots = np.sqrt([wa, -s - wa])
        z[-2:] = np.where(np.abs(roots - b[-2:]) < np.abs(roots + b[-2:]), roots, -roots)
        pf = fl.PlanarFrame(z)
        rep = fl.validate_path(fl.connect_to_standard(pf), expect_start=pf.z, expect_end=b)
        assert rep.ok, rep


def _closed_frame(head, k, rng, near=None):
    """A planar frame whose chain starts with the links ``head``, goes on
    with random links up to k - 2 and ends with an elbow that closes it.
    Its coordinates are the square roots nearest ``near``, and its elbow
    the one nearest near's squares; random ones when near is None."""
    while True:
        w = np.concatenate([head, np.exp(2j * np.pi * rng.random(k - 2 - len(head)))])
        s = -np.sum(w)
        if abs(s) < 2 - 1e-9:
            break
    side = rng.choice([-1.0, 1.0]) if near is None else np.sign(np.real(
        np.conj(1j * s) * near[-2] ** 2)) or 1.0
    z = np.sqrt(np.concatenate([w, planar._elbow(s, side * 1j * s / abs(s))]))
    near = z * rng.choice([-1.0, 1.0], size=k) if near is None else near
    return fl.PlanarFrame(np.where(np.abs(z - near) <= np.abs(z + near), z, -z))


#: connect_to_standard's paths on the frames below take fewer samples than
#: this times k / max_step
SAMPLES_PER_K_STEP = 30


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["antipodal", "graze", "canonical", "conjugate", "repeated"]),
       st.sampled_from([4, 5, 6, 7, 8, 9, 17]), st.floats(-15, -6),
       st.floats(np.log10(0.02), np.log10(2)), st.integers(0, 2 ** 32 - 1))
def test_connect_adversarial_frames(kind, k, log_eps, log_step, seed):
    """Frames at the edges of the straightening's rules connect, validate
    with both ends and keep within SAMPLES_PER_K_STEP * k / max_step
    samples, eps = 10^log_eps: links 1-2 of the chain summing to eps
    (nearly antipodal), or nearly along link 3, so that their segment to
    -w3 passes about eps from zero; frames about eps from the canonical
    frame, or from its conjugate with signs flipped; repeated links, from
    the pairs (c, ic) and, at odd k, the triple c e^{i pi j / 3}."""
    rng = np.random.default_rng(seed)
    eps, max_step = 10.0 ** log_eps, 10.0 ** log_step
    b = fl.canonical_planar(k).z
    a = np.exp(2j * np.pi * rng.random())
    side = rng.choice([-1.0, 1.0])
    if kind == "antipodal":
        z = _closed_frame(planar._elbow(eps * a, side * 1j * a), k, rng)
    elif kind == "graze":
        sigma = rng.uniform(0.1, 0.9) * a * np.exp(1j * eps * rng.choice([-1.0, 1.0]))
        z = _closed_frame([*planar._elbow(sigma, side * 1j * sigma / abs(sigma)), a][:k - 2],
                          k, rng)
    elif kind in ("canonical", "conjugate"):
        near = b if kind == "canonical" else np.conj(b) * rng.choice([-1.0, 1.0], size=k)
        z = _closed_frame((near[:k - 2] * np.exp(1j * eps * rng.standard_normal(k - 2))) ** 2,
                          k, rng, near)
    else:
        c = rng.choice([a, np.exp(2j * np.pi * rng.random())], size=k // 2)
        z = np.concatenate([np.outer(c[:k // 2 - k % 2], [1, 1j]).ravel(),
                            c[-1] * np.exp(1j * np.pi / 3 * np.arange(3 * (k % 2)))])
        z = fl.PlanarFrame(rng.permutation(z) * rng.choice([-1.0, 1.0], size=k))
    path = fl.connect_to_standard(z, max_step)
    assert fl.validate_path(path, expect_start=z.z, expect_end=b).ok
    assert len(path.ts) < SAMPLES_PER_K_STEP * k / max_step


@pytest.mark.parametrize("max_step", [0.05, 0.5])
@pytest.mark.parametrize("z", [[1, 1, 1j, 1j], [1, 1, 1, 1j, 1j, 1j], [1, 1, 1j, 1j, 1, 1j]])
def test_connect_repeated_orthonormal_basis(z, max_step):
    """The rotated basis (u, iu) repeated: links 1-2 of the chain are equal,
    so their computed sum has modulus 2 less rounding and their elbow a
    height of about 2e-8, not 0; the straightening starts at the chain."""
    pf = fl.PlanarFrame(np.exp(0.7j) * np.array(z))
    path = fl.connect_to_standard(pf, max_step)
    rep = fl.validate_path(path, expect_start=pf.z, expect_end=fl.canonical_planar(pf.k).z)
    assert rep.ok, rep


def test_paths_hold_no_repeated_sample():
    """A snapped join repeats a point up to rounding; the repeat is dropped
    (before the exact end, its predecessor is), so every step moves by more
    than _LEG_ATOL and the path still meets the step bound and its ends."""
    for k in (5, 9, 17):
        for seed in range(3):
            z = fl.random_planar_frame(k, np.random.default_rng(seed))
            path = fl.connect_to_standard(z)
            steps = np.max(np.abs(np.diff(path.points, axis=0)), axis=1)
            assert steps.min() > planar._LEG_ATOL and steps.max() <= path.max_step
            assert np.array_equal(path.points[-1], fl.canonical_planar(k).z)
            rep = fl.validate_path(path, expect_start=z.z, expect_end=fl.canonical_planar(k).z)
            assert rep.ok, rep


def test_straightening_sample_counts():
    """The shape of the seeded paths: any change to how chains straighten
    or lift shows here first."""
    frames = {k: fl.random_planar_frame(k, np.random.default_rng(0))
              for k in (4, 5, 6, 7, 9, 17, 33)}
    counts = {k: len(fl.connect_to_standard(z).ts) for k, z in frames.items()}
    assert counts == {4: 127, 5: 130, 6: 106, 7: 106, 9: 115, 17: 131, 33: 149}
    # the counts before legs were sampled to their arc length, and before the
    # odd-k head took its least plan: none grew
    for old in ({4: 129, 5: 132, 6: 111, 7: 108, 9: 117, 17: 133, 33: 157},
                {4: 132, 5: 178, 6: 114, 7: 185, 9: 194, 17: 178, 33: 256}):
        assert all(counts[k] <= old[k] for k in counts)
    step = 0.05 * np.sqrt(4 - 0.05 ** 2)
    chain = {k: len(fl.chain_straighten(fl.square_map(z), step).ts) for k, z in frames.items()}
    assert chain == {4: 31, 5: 45, 6: 43, 7: 21, 9: 30, 17: 45, 33: 85}
    # the straightenings before legs were sampled to their arc length, and
    # before links 1-2 chose the triple's side: none grew
    for before in ({4: 33, 5: 47, 6: 48, 7: 23, 9: 32, 17: 47, 33: 93},
                   {4: 34, 5: 48, 6: 49, 7: 24, 9: 33, 17: 48, 33: 121}):
        assert all(chain[k] <= before[k] for k in chain)
    assert len(planar.case1_explicit_path().ts) == 127
    assert len(planar.case3_explicit_path().ts) == 223


def test_squaring_scales_a_unit_step():
    """|z'^2 - z^2| = |z' - z| |z' + z| = a sqrt(4 - a^2) for unit z, z' a
    apart, z' the root of z'^2 nearest z (so a <= sqrt(2)): the chain step
    a planar step of a lifts."""
    rng = np.random.default_rng(0)
    z, zp = np.exp(2j * np.pi * rng.random((2, 1000)))
    zp = np.where(np.abs(zp - z) <= np.abs(zp + z), zp, -zp)
    a = np.abs(zp - z)
    assert np.max(a) <= np.sqrt(2)
    assert_allclose(np.abs(zp ** 2 - z ** 2), a * np.sqrt(4 - a ** 2), rtol=0, atol=1e-14)


@pytest.mark.parametrize("k", [5, 8, 17])
@pytest.mark.parametrize("m", [0.02, 0.05, 0.2])
def test_lifted_straightening_uses_the_step_bound(k, m):
    """Straightened at m sqrt(4 - m^2), the chain lifts to planar steps of
    at most m and of more than m/2, and connect_to_standard's path starts
    with that lift."""
    z = fl.random_planar_frame(k, np.random.default_rng(k))
    chain = planar.chain_straighten(planar.square_map(z), m * np.sqrt(4 - m ** 2))
    lift = planar.lift_path(chain, z)
    largest = np.max(np.abs(np.diff(lift.points, axis=0)))
    assert m / 2 < largest <= m + 1e-12
    path = fl.connect_to_standard(z, m)
    assert np.array_equal(path.points[:len(lift.ts)], lift.points)


def test_rotation_path_refuses_nonzero_square_sum():
    with pytest.raises(AssertionError, match="nonzero square sum"):
        planar._rotation_path(fl.canonical_planar(4).z, [((0, 2), np.pi)], 0.05)


def test_rotation_path_overlaps_disjoint_stages():
    """A stage starts once the stages listed before it free its coordinates:
    the pair (0, 1) turns by pi while (2, 3) and then (2, 4) turn by pi/2."""
    b = fl.canonical_planar(6).z
    stages = [((0, 1), np.pi), ((2, 3), np.pi / 2), ((2, 4), np.pi / 2)]
    legs = planar._rotation_path(b, stages, 0.05)
    assert len(legs) == 2
    assert_allclose(legs[0][-1], b * np.exp(0.5j * np.pi * np.array([1, 1, 1, 1, 0, 0])),
                    rtol=0, atol=1e-15)
    assert_allclose(legs[1][-1], b * np.exp(0.5j * np.pi * np.array([2, 2, 2, 1, 1, 0])),
                    rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 9, 17, 33, 65])
def test_all_sign_patterns_connect(k):
    # every point of the fiber over the standard chain reaches the canonical
    # frame, including odd sign patterns: all of them up to k = 9, then 50
    # seeded ones
    b = fl.canonical_planar(k).z
    if k <= 9:
        patterns = [[(bits >> j) & 1 for j in range(k)] for bits in range(2 ** k)]
    else:
        patterns = np.random.default_rng(k).integers(0, 2, size=(50, k))
    for bits in patterns:
        z = fl.PlanarFrame((1 - 2 * np.asarray(bits)) * b)
        path = fl.connect_to_standard(z)
        rep = fl.validate_path(path, 1e-9, expect_start=z.z, expect_end=b)
        assert rep.ok, (k, bits)


def test_case1_waypoints():
    path = fl.case1_explicit_path()
    for wp in CASE1_WAYPOINTS:
        d = min(np.max(np.abs(p - wp)) for p in path.points)
        assert d < 1e-12
    assert fl.validate_path(path, 1e-9,
                            expect_start=CASE1_WAYPOINTS[0],
                            expect_end=CASE1_WAYPOINTS[-1]).ok


def test_case3_waypoints():
    path = fl.case3_explicit_path()
    for wp in CASE3_WAYPOINTS:
        d = min(np.max(np.abs(p - wp)) for p in path.points)
        assert d < 1e-12
    assert fl.validate_path(path, 1e-9,
                            expect_start=CASE3_WAYPOINTS[0],
                            expect_end=CASE3_WAYPOINTS[-1]).ok


def test_validate_path_catches_modulus():
    path = fl.case1_explicit_path()
    pts = list(path.points)
    pts[3] = pts[3] * 1.01
    bad = FramePath("planar", path.ts, tuple(pts), path.max_step)
    rep = fl.validate_path(bad, 1e-9)
    assert not rep.ok
    assert rep.max_modulus_error > 0.009


def test_validate_path_catches_endpoint():
    path = fl.case1_explicit_path()
    rep = fl.validate_path(path, 1e-9, expect_end=fl.canonical_planar(4).z)
    assert not rep.ok and rep.end_error > 1.0


def test_validate_path_refuses_an_endpoint_of_the_wrong_length():
    path = fl.case1_explicit_path()
    for name in ("expect_start", "expect_end"):
        with pytest.raises(ValueError, match=f"{name} needs k = 4 entries, got 3"):
            fl.validate_path(path, **{name: path.start[:3]})


def test_global_rotation_stays_valid():
    z = fl.random_planar_frame(5, np.random.default_rng(9))
    for theta in np.linspace(0, 2 * np.pi, 17):
        fl.PlanarFrame(np.exp(1j * theta) * z.z)  # constructor validates


def test_random_planar_frame_validity():
    rng = np.random.default_rng(10)
    for k in range(3, 9):
        for _ in range(20):
            z = fl.random_planar_frame(k, rng)
            assert abs(np.sum(z.z ** 2)) < 1e-12
            assert np.max(np.abs(np.abs(z.z) - 1)) < 1e-12
    # phases 0 and a quarter turn square to a partial sum of 0: the last two
    # squares are then the antipodal pair (u, -u) for u = exp(2 pi i / 8)
    draws = iter([np.array([0.0, 0.25]), 0.125])
    rng = SimpleNamespace(random=lambda size=None: next(draws),
                          choice=lambda options, size: np.ones(size))
    assert_allclose(fl.random_planar_frame(4, rng).z,
                    [1, 1j, np.exp(1j * np.pi / 8), np.exp(-3j * np.pi / 8)], atol=1e-15)


def test_frame_path_validation():
    with pytest.raises(ValueError):
        FramePath("planar", (0.0, 0.4), (np.ones(3), np.ones(3)), 0.05)  # t_last != 1
    with pytest.raises(ValueError):
        FramePath("planar", (0.0, 0.5, 0.5, 1.0),
                  tuple(np.ones(3) for _ in range(4)), 0.05)
    ts = (0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        FramePath("planar", ts, (np.ones(3), np.array([1, np.nan, 1]), np.ones(3)), 0.05)
    with pytest.raises(ValueError):
        FramePath("planar", ts, (np.ones(3), np.ones(4), np.ones(3)), 0.05)
    with pytest.raises(ValueError):
        FramePath("planar", (0.0, np.inf, 1.0), tuple(np.ones(3) for _ in ts), 0.05)
    path = FramePath("chain", ts, tuple(np.ones(3) for _ in ts), 0.05)
    assert path.points.shape == (3, 3) and not path.points.flags.writeable
    assert not path.ts.flags.writeable
    z4, w4 = fl.canonical_planar(4), fl.standard_chain(4).w
    # link 0 passes within 1e-14 of 0, where its two square roots are as near
    chain_through_0 = FramePath("chain", np.linspace(0, 1, 5),
                                [w4 * [s, 1, 1, 1] for s in (1, 0.5, 1e-14, 0.5, 1)], 0.5)
    refusals = {
        "planar frame must be nonempty": lambda: fl.PlanarFrame([]),
        "kind must be 'planar' or 'chain', got 'loop'":
            lambda: FramePath("loop", ts, tuple(np.ones(3) for _ in ts), 0.05),
        "path needs matching ts/points with at least two samples":
            lambda: FramePath("planar", ts, (np.ones(3), np.ones(3)), 0.05),
        "path samples must be nonempty": lambda: FramePath("planar", ts, np.ones((3, 0)), 0.05),
        "need a planar path": lambda: fl.to_gram_loop(path),
        "need k >= 4": lambda: fl.canonical_planar(3),
        "lift_path needs a chain path": lambda: fl.lift_path(fl.case1_explicit_path(), z4),
        "start does not lie over the chain path's first point":
            lambda: fl.lift_path(FramePath("chain", (0, 1), (-w4, -w4), 0.05), z4),
        "ambiguous square root for coordinate 0 at t=0.5; refine the chain path":
            lambda: fl.lift_path(chain_through_0, z4),
        "chain straightening needs k >= 4": lambda: fl.chain_straighten(fl.Chain([1, -1])),
        "need k >= 3": lambda: fl.random_planar_frame(2, np.random.default_rng(0)),
        # every draw puts both phases at 0, a partial sum of modulus 2
        "sampling failed to find a closable configuration":
            lambda: fl.random_planar_frame(4, SimpleNamespace(random=np.zeros)),
    }
    for message, call in refusals.items():
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_planar_types_take_a_tolerance():
    z = fl.canonical_planar(6).z * (1 + 1e-7)
    with pytest.raises(ValueError):
        fl.PlanarFrame(z)
    pf = fl.PlanarFrame(z, 1e-6)
    assert np.array_equal(fl.square_map(pf).w, z ** 2)
    with pytest.raises(ValueError):
        fl.Chain(z ** 2)
    fl.Chain(z ** 2, tol=1e-6)


def test_planar_types_keep_their_tolerance():
    """tol is the tolerance the value was checked at, not the class default."""
    z = fl.canonical_planar(6).z * (1 + 1e-7)
    assert fl.PlanarFrame(z, tol=1e-6).tol == 1e-6
    assert fl.canonical_planar(6).tol == fl.DEFAULT_TOL
    assert fl.to_planar(fl.from_planar(z), 1e-6).tol == 1e-6
    assert fl.Chain(z ** 2, tol=1e-6).tol == 1e-6
    assert fl.square_map(fl.PlanarFrame(z, 1e-6)).tol == 1e-6 * (2 + 1e-6)
    assert fl.standard_chain(6).tol == fl.DEFAULT_TOL
    # the stored tol is the float the positive-number rule checked
    assert type(fl.PlanarFrame(z, np.float64(1e-6)).tol) is type(fl.Chain(z ** 2, 1).tol) is float


def test_connect_to_standard_with_modulus_error():
    """A frame accepted at a looser tol squares, lifts and connects at that
    tol without being told it again."""
    rng = np.random.default_rng(11)
    for err, tol in ((1e-11, 1e-9), (1e-7, 1e-6)):
        z = fl.PlanarFrame(fl.random_planar_frame(6, rng).z * (1 + err), tol)
        chain = fl.square_map(z)
        assert chain.tol == tol * (2 + tol)
        assert np.array_equal(fl.lift_path(fl.chain_straighten(chain), z).start, z.z)
        path = fl.connect_to_standard(z)
        rep = fl.validate_path(path, tol, expect_start=z.z,
                               expect_end=fl.canonical_planar(6).z)
        assert rep.ok, rep
        assert np.array_equal(path.start, z.z)


def test_gram_loop_is_one_product(monkeypatch):
    """to_gram_loop checks the samples by the closed form and calls no
    eigensolver; each entry is the Gram matrix gram() takes of the sample."""
    path = fl.case3_explicit_path()
    reference = [fl.gram(fl.from_planar(z)).entries for z in path.points]
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, None)
    loop = fl.to_gram_loop(path)
    assert len(loop) == len(reference) == 223
    assert all(R.field == "R" and R.n == 2 for R in loop)
    assert max(np.max(np.abs(R.entries - G)) for R, G in zip(loop, reference)) <= 1e-15


@pytest.mark.parametrize("step", [0.0, -0.05, np.nan, np.inf])
def test_max_step_must_be_finite_positive(step):
    z = fl.random_planar_frame(6, np.random.default_rng(12))
    loop = fl.to_gram_loop(fl.case1_explicit_path())
    for call in (lambda: fl.connect_to_standard(z, step),
                 lambda: fl.chain_straighten(fl.square_map(z), step),
                 lambda: fl.case1_explicit_path(step),
                 lambda: fl.case3_explicit_path(step),
                 lambda: fl.holonomy_sign(loop, max_step=step),
                 lambda: FramePath("chain", (0.0, 1.0), (np.ones(3), np.ones(3)), step)):
        with pytest.raises(ValueError, match="max_step"):
            call()


@pytest.mark.parametrize("k", [4, 5, 6, 9, 17])
@pytest.mark.parametrize("max_step", [0.05, 1.0, 1.5, 2.0, 3.0])
def test_connect_to_standard_any_max_step(k, max_step):
    """The straightening step is capped at LIFT_SAFE_STEP, so a coarse
    max_step still lifts; every path validates at the step asked for."""
    end = fl.canonical_planar(k).z
    for seed in range(20):
        z = fl.random_planar_frame(k, np.random.default_rng(seed))
        path = fl.connect_to_standard(z, max_step)
        assert path.max_step == max_step
        assert fl.validate_path(path, expect_start=z.z, expect_end=end).ok, seed


def test_tiny_max_step_is_refused_not_sampled():
    z = fl.random_planar_frame(7, np.random.default_rng(13))
    with pytest.raises(ValueError, match="samples on one leg"):
        fl.connect_to_standard(z, 1e-300)
    with pytest.raises(ValueError, match="samples on one leg"):
        fl.case1_explicit_path(1e-9)


def test_sample_leg_repairs_what_its_probe_misses():
    """A leg that turns by 1 rad within 1e-4 of the middle of one probe
    interval: the probe sees that turn as one chord, the samples placed by
    arc length spread over the whole interval, and bisection repairs the
    steps they leave too long.  A max_step needing more than MAX_LEG_SAMPLES
    samples is refused after the probe alone when the probe's length shows
    it, and by the bisection when only the repairs do."""
    t0 = (planar._PROBE // 2 + 0.5) / planar._PROBE
    sizes = []

    def leg(t):
        sizes.append(len(t))
        phase = 0.5 * t + (1 + np.tanh((t - t0) / 1e-5)) / 2
        return np.exp(1j * np.outer(phase, [1.0, -2.0]))

    pts = planar._sample_leg(leg, 0.05)
    steps = np.max(np.abs(np.diff(pts, axis=0)), axis=1)
    assert sizes[0] == planar._PROBE + 1 and len(sizes) > 3  # probe, placement, repairs
    assert steps.max() <= 0.05 - planar._LEG_ATOL
    assert np.array_equal(pts[[0, -1]], leg(np.array([0.0, 1.0])))
    # the second coordinate turns by 3 rad in all, the leg's max-norm arc length
    assert 3 / 0.05 < len(pts) < 2 * 3 / 0.05
    for max_step in (2 / planar.MAX_LEG_SAMPLES, planar._LEG_ATOL):
        sizes.clear()
        with pytest.raises(ValueError, match=f"more than {planar.MAX_LEG_SAMPLES} samples"):
            planar._sample_leg(leg, max_step)
        assert sizes == [planar._PROBE + 1]
    # the probe measures 2.68 of the 3: placed by it the samples fit, repaired they do not
    sizes.clear()
    with pytest.raises(ValueError, match=f"more than {planar.MAX_LEG_SAMPLES} samples"):
        planar._sample_leg(leg, 3 / planar.MAX_LEG_SAMPLES)
    assert len(sizes) == 2


def _apply_stages(state, stages):
    state = np.array(state)
    for idxs, angle in stages:
        idxs = list(idxs)
        assert abs(np.sum(state[idxs] ** 2)) < 1e-12, (idxs, angle)
        state[idxs] = state[idxs] * np.exp(1j * angle)
    return state


def _makespan(stages):
    """How long the stages take when each turns at unit speed as soon as
    every coordinate it moves is done with the stages listed before it."""
    free = {}
    for idxs, angle in stages:
        start = max(free.get(i, 0.0) for i in idxs)
        free.update((i, start + abs(angle)) for i in idxs)
    return max(free.values(), default=0.0)


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 9, 10, 11])
def test_flip_moves_reach_every_pattern(k):
    """Applied in order, with zero square sum at each stage's start, the
    moves reach the canonical frame, within 3 pi when run concurrently
    (3 pi / 2 at odd k, whose head takes a least plan)."""
    b = fl.canonical_planar(k).z
    bound = 3 * np.pi if k % 2 == 0 else 1.5 * np.pi
    for bits in range(2 ** k):
        want = [j for j in range(k) if (bits >> j) & 1]
        signs = np.ones(k)
        signs[want] = -1
        moves = planar._flip_moves(k, want)
        assert np.max(np.abs(_apply_stages(signs * b, moves) - b)) < 1e-12, want
        assert _makespan(moves) <= bound + 1e-9, (want, moves)


@pytest.mark.parametrize("head", [0, 1, -1])
def test_head_plans_meet_the_search_floor(head):
    """Each odd-k head plan negates its pattern with zero square sum at each
    stage start, in the least makespan over concurrent turns of disjoint
    zero-square-sum subsets, and is the plan fiber_search prints.  Coordinates
    0-4 reach 21 patterns in pi, 4 in 7 pi / 6 and 6 in 4 pi / 3; with a
    borrowed coordinate (of k = 7: 5 squares to 1, 6 to -1), the 32 patterns
    that negate it take at most 3 pi / 2."""
    search = fiber_search.Search(fiber_search.HEADS[head])
    b = fl.canonical_planar(7).z[[0, 1, 2, 3, 4, 5 if head == 1 else 6][:search.m]]
    assert_allclose(np.exp(1j * np.pi / 6 * search.start), b, rtol=0, atol=1e-15)
    plans = {bits: plan for (h, bits), plan in planar._HEAD_PLANS.items() if h == head}
    assert sorted(plans) == list(range(1, 32) if head == 0 else range(32, 64))
    floors = Counter()
    for bits, plan in plans.items():
        signs = np.array([1 - 2 * ((bits >> j) & 1) for j in range(search.m)])
        stages = [([int(p) for p in word[:-2]], int(word[-2:]) * np.pi / 6)
                  for word in plan.split()]
        assert np.max(np.abs(_apply_stages(signs * b, stages) - b)) < 1e-12, bits
        floor = search.moves_count(bits)
        assert abs(_makespan(stages) - floor * np.pi / 6) < 1e-9, bits
        assert plan == fiber_search.text(search.plan(bits)), bits
        floors[floor] += 1
    if head == 0:
        assert floors == {6: 21, 7: 4, 8: 6}
    else:
        assert max(floors) <= 9


def _validate_path_loop(p, tol, expect_start=None, expect_end=None):
    """The per-sample validate_path loop that the array reductions replaced,
    with each sample's constraint judged by is_tight on the frame in R^2 it
    encodes (for a chain, the frame of the square roots of its links) and
    ranked as |s| / lambda_max, lambda_max = (sum |v|^p + |s|) / 2."""
    power = 2 if p.kind == "planar" else 1
    worst = -1.0
    worst_t, worst_idx = 0.0, 0
    max_mod = 0.0
    max_con = 0.0
    tight = True
    for t, pt in zip(p.ts, p.points):
        z = pt if p.kind == "planar" else np.sqrt(pt)
        tight = tight and fl.is_tight(fl.from_planar(z), tol)[0]
        mod_err = np.abs(np.abs(pt) - 1.0)
        j = int(np.argmax(mod_err))
        if mod_err[j] > worst:
            worst, worst_t, worst_idx = float(mod_err[j]), t, j
        max_mod = max(max_mod, float(mod_err[j]))
        con = np.abs(np.sum(pt ** power))
        rel = con / ((np.sum(np.abs(pt) ** power) + con) / 2)
        if rel > worst:
            worst, worst_t, worst_idx = float(rel), t, -1
        max_con = max(max_con, float(con))
    steps = [float(np.max(np.abs(b - a))) for a, b in zip(p.points, p.points[1:])]
    start_err = float(np.max(np.abs(p.start - expect_start))) if expect_start is not None else 0.0
    end_err = float(np.max(np.abs(p.end - expect_end))) if expect_end is not None else 0.0
    ok = (max_mod <= tol and tight and max(steps) <= p.max_step + 1e-12
          and start_err <= tol and end_err <= tol)
    return ok, worst_idx, worst_t, (max_mod, max_con, max(steps), start_err, end_err, worst)


def test_validate_path_matches_loop():
    rng = np.random.default_rng(14)
    z = fl.random_planar_frame(7, rng)
    path = fl.connect_to_standard(z)
    b = fl.canonical_planar(7).z
    pts = np.array(path.points)
    pts[17] *= 1.001
    corrupted = FramePath("planar", path.ts, pts, path.max_step)
    chain = fl.chain_straighten(fl.square_map(z))
    # sample 17 with z_1 turned by 1e-9 and 1e-8: |sum z^2| = 2e-9 lies
    # between tol and tol * lambda_max = 3.5e-9, and 2e-8 above both
    turned = []
    for eps in (1e-9, 1e-8):
        pts = np.array(path.points)
        pts[17, 0] *= np.exp(1j * eps)
        turned.append(FramePath("planar", path.ts, pts, path.max_step))
    # sample 17 turned by 1.5e-9 (|s| = 3e-9 passes) and sample 40 scaled by
    # 1 + 1.5e-9 (fails): the worst violation is sample 40's, not the larger |s|
    pts = np.array(path.points)
    pts[17, 0] *= np.exp(1.5j * 1e-9)
    pts[40] *= 1 + 1.5e-9
    mixed = FramePath("planar", path.ts, pts, path.max_step)
    nan_end = np.array(b)
    nan_end[2] = np.nan
    cases = [(path, z.z, b), (corrupted, z.z, b), (path, z.z, b + 1e-3),
             (path, z.z + 1e-3, None), (chain, None, None),
             (turned[0], z.z, b), (turned[1], z.z, b), (mixed, z.z, b)]
    for p, start, end in cases:
        rep = fl.validate_path(p, 1e-9, expect_start=start, expect_end=end)
        ok, idx, t, residuals = _validate_path_loop(p, 1e-9, start, end)
        assert (rep.ok, rep.worst_index, rep.worst_t) == (ok, idx, t)
        got = (rep.max_modulus_error, rep.max_constraint_error, rep.max_step_seen,
               rep.start_error, rep.end_error, rep.worst_violation)
        for a, r in zip(got, residuals):
            assert (np.isnan(a) and np.isnan(r)) or abs(a - r) <= np.spacing(max(a, r))
    assert fl.validate_path(turned[0], 1e-9).ok and not fl.validate_path(turned[1], 1e-9).ok
    rep = fl.validate_path(mixed, 1e-9)
    assert not rep.ok and rep.worst_t == path.ts[40] and rep.worst_index >= 0
    assert rep.max_constraint_error > rep.max_modulus_error > 1e-9
    # a NaN endpoint is refused like every non-finite array (the loop reported NaN)
    with pytest.raises(ValueError, match="non-finite"):
        fl.validate_path(path, 1e-9, expect_end=nan_end)
