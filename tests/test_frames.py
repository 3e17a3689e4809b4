import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl


def test_simplex_bounds_equal():
    b = fl.frame_bounds(fl.simplex_frame(3))
    assert_allclose([b.lower, b.upper], [4 / 3, 4 / 3], atol=1e-12)


def test_simplex_frame_matches_the_array_formula():
    """simplex_frame wraps closedform.simplex_rows, which takes the same IEEE
    operations in the same order as the numpy formula it replaced, so the
    entries agree bit for bit."""
    for n in range(1, 41):
        j, p = np.arange(1, n + 1)[:, None], np.arange(1, n + 2)
        M = np.where(p <= j, 1.0, np.where(p == j + 1, -j, 0)) / np.sqrt(j * (j + 1))
        want = np.sqrt((n + 1) / n) * M
        assert fl.simplex_frame(n).entries.tobytes() == want.tobytes(), n


def test_identity_basis_bounds():
    b = fl.frame_bounds(fl.Frame("R", np.eye(4)))
    assert_allclose([b.lower, b.upper], [1, 1], atol=1e-14)


def test_repeated_vector_bounds():
    F = fl.Frame("R", np.array([[1, 1, 0], [0, 0, 1]], dtype=float))
    b = fl.frame_bounds(F)
    assert_allclose([b.lower, b.upper], [1, 2], atol=1e-14)
    for lower, upper in ((2.0, 1.0), (-0.5, 1.0)):
        with pytest.raises(ValueError, match="invalid bounds"):
            fl.FrameBounds(lower, upper)


def test_zero_frame_rejected():
    with pytest.raises(ValueError):
        fl.frame_bounds(fl.Frame("R", np.zeros((2, 3))))


def test_is_tight_simplex2():
    tight, bound = fl.is_tight(fl.simplex_frame(2))
    assert tight
    assert_allclose(bound, 1.5, atol=1e-14)


def test_is_tight_rejects_unbalanced():
    F = fl.Frame("R", np.array([[1, 0, 1], [0, 1, 0]], dtype=float))
    tight, _ = fl.is_tight(F)
    assert not tight


def test_is_tight_orthonormal_basis():
    tight, bound = fl.is_tight(fl.Frame("R", np.eye(3)))
    assert tight
    assert_allclose(bound, 1.0)


def test_is_tight_forms_the_frame_operator_once(monkeypatch):
    """(tight, B) are bit for bit what frame_bounds and trace(F F*)/n
    give, from one F F*; a frame whose F F* is 0 is refused by both."""
    rng = np.random.default_rng(7)
    frames = [fl.simplex_frame(3), fl.Frame("R", np.array([[1, 0, 1], [0, 1, 0]], dtype=float)),
              fl.Frame("C", rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))),
              fl.harmonic_frame(9, 4, "C")]
    expected = []
    for F in frames:
        b = fl.frame_bounds(F)
        bound = float(np.trace(F.entries @ F.entries.conj().T).real) / F.n
        expected.append(((b.upper - b.lower) <= 1e-9 * b.upper, bound))
    calls = []
    monkeypatch.setattr(fl.frames, "frame_operator",
                        lambda F, _real=fl.frames.frame_operator: calls.append(1) or _real(F))
    assert [fl.is_tight(F) for F in frames] == expected
    assert len(calls) == len(frames)
    # nonzero frames whose every square underflows have F F* = 0 exactly
    for entries in [np.zeros((2, 3)), np.full((2, 3), 1e-200),
                    [[1e-200, 0, 0], [0, 1e-170, 1e-170]]]:
        for decide in (fl.is_tight, fl.frame_bounds):
            with pytest.raises(ValueError, match="nonzero frame"):
                decide(fl.Frame("R", entries))


def test_on_ellipsoid_sphere_case():
    assert fl.is_on_ellipsoid(fl.simplex_frame(4), fl.EllipsoidSpec((1, 1, 1, 1)))


def test_on_ellipsoid_scaled_columns_fail():
    F = fl.Frame("R", 2 * fl.simplex_frame(3).entries)
    assert not fl.is_on_ellipsoid(F, fl.EllipsoidSpec((1, 1, 1)))
    with pytest.raises(ValueError, match="axis count 2 != ambient dimension 3"):
        fl.is_on_ellipsoid(F, fl.EllipsoidSpec((1, 1)))


def test_on_ellipsoid_mixed_axes():
    F = fl.Frame("R", np.eye(2))
    # (0,1) satisfies 2x^2 + y^2 = 1 but (1,0) gives 2
    assert not fl.is_on_ellipsoid(F, fl.EllipsoidSpec((2, 1)))


def test_expected_tight_bound():
    assert fl.expected_tight_bound(fl.EllipsoidSpec((1, 1)), 5) == pytest.approx(2.5)
    assert fl.expected_tight_bound(fl.EllipsoidSpec((1,) * 4), 9) == pytest.approx(9 / 4)
    assert fl.expected_tight_bound(fl.EllipsoidSpec((2, 1, 1)), 8) == pytest.approx(2.0)
    for k in (3, 2):
        with pytest.raises(ValueError, match=f"need k > n, got k={k}, n=3"):
            fl.expected_tight_bound(fl.EllipsoidSpec((1, 1, 1)), k)


def test_simplex_small_cases_explicit():
    F = fl.simplex_frame(2)
    expected = np.array([[np.sqrt(3) / 2, -np.sqrt(3) / 2, 0.0],
                         [0.5, 0.5, -1.0]])
    assert_allclose(F.entries, expected, atol=1e-15)
    F1 = fl.simplex_frame(1)
    assert_allclose(F1.entries, [[1.0, -1.0]], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 24])
def test_simplex_pairwise_angles(n):
    G = fl.simplex_frame(n).entries.T @ fl.simplex_frame(n).entries
    off = G - np.diag(np.diag(G))
    assert_allclose(np.diag(G), np.ones(n + 1), atol=1e-12)
    assert_allclose(off, -(1 / n) * (np.ones((n + 1, n + 1)) - np.eye(n + 1)),
                    atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_simplex_gram_closed_form(n):
    G = fl.simplex_frame(n).entries.T @ fl.simplex_frame(n).entries
    J = np.ones((n + 1, n + 1))
    assert np.max(np.abs(G - (n + 1) / n * (np.eye(n + 1) - J / (n + 1)))) < 1e-12


def test_act_orthogonal_identity_and_negation():
    F = fl.simplex_frame(2)
    assert_allclose(fl.act_orthogonal(F, np.eye(2)).entries, F.entries)
    assert_allclose(fl.act_orthogonal(F, -np.eye(2)).entries, -F.entries)


def test_act_orthogonal_rotation():
    F = fl.Frame("R", np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float))
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation by pi/2
    out = fl.act_orthogonal(F, rot).entries
    expected = np.array([[0, -1, 0, 1], [1, 0, -1, 0]], dtype=float)
    assert_allclose(out, expected, atol=1e-15)


def test_act_orthogonal_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        fl.act_orthogonal(fl.simplex_frame(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_act_permutation():
    F = fl.simplex_frame(2)
    assert_allclose(fl.act_permutation(F, [0, 1, 2]).entries, F.entries)
    swapped = fl.act_permutation(F, [1, 0, 2])
    assert_allclose(swapped.entries[:, 0], F.entries[:, 1])
    assert_allclose(swapped.entries[:, 1], F.entries[:, 0])
    b0, b1 = fl.frame_bounds(F), fl.frame_bounds(swapped)
    assert_allclose([b0.lower, b0.upper], [b1.lower, b1.upper], atol=1e-10)


def test_permutation_matrix():
    perm = [2, 0, 3, 1]
    A = fl.permutation_matrix(perm)
    assert A.dtype == np.float64
    assert np.array_equal(A, np.eye(4)[:, perm])
    F = fl.harmonic_frame(4, 2)
    assert np.array_equal(F.entries @ A, fl.act_permutation(F, perm).entries)
    for bad in ([0, 0], [1, 2], [0, 1, 1]):
        with pytest.raises(ValueError, match="not a permutation"):
            fl.permutation_matrix(bad)


def test_act_phases():
    F = fl.simplex_frame(2)
    assert_allclose(fl.act_phases(F, [1, 1, 1]).entries, F.entries)
    flipped = fl.act_phases(F, [-1, 1, 1])
    assert_allclose(flipped.entries[:, 0], -F.entries[:, 0])
    tight, _ = fl.is_tight(flipped)
    assert tight
    with pytest.raises(ValueError, match="only \\+-1 phases"):
        fl.act_phases(F, [1j, 1, 1])
    for zetas in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(ValueError, match="need 3 phases"):
            fl.act_phases(F, zetas)
    with pytest.raises(ValueError, match="phases must be unimodular"):
        fl.act_phases(F, [2, 1, 1])
    C = fl.harmonic_frame(4, 2, "C")
    rotated = fl.act_phases(C, [1j] * 4)
    G = rotated.conj_transpose() @ rotated.entries
    assert_allclose(np.diag(G).real, np.ones(4), atol=1e-12)


def test_tightness_matches_operator_identity():
    # tight <=> F F* equals (trace F F*/n) I entrywise
    for F in (fl.simplex_frame(3), fl.harmonic_frame(5, 2, "R"),
              fl.Frame("R", np.array([[1, 0, 1], [0, 1, 0]], dtype=float))):
        tight, bound = fl.is_tight(F)
        S = fl.frame_operator(F)
        matches = np.max(np.abs(S - bound * np.eye(F.n))) <= 1e-9 * bound
        assert tight == matches


def test_bounds_invariant_under_actions():
    rng = np.random.default_rng(5)
    F = fl.harmonic_frame(6, 3, "R")
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    transformed = fl.act_phases(
        fl.act_permutation(fl.act_orthogonal(F, Q), rng.permutation(6)),
        rng.choice([-1.0, 1.0], size=6))
    b0, b1 = fl.frame_bounds(F), fl.frame_bounds(transformed)
    assert abs(b0.lower - b1.lower) < 1e-10
    assert abs(b0.upper - b1.upper) < 1e-10


def test_ellipsoid_spec_validation():
    with pytest.raises(ValueError):
        fl.EllipsoidSpec((1, 2))  # not descending
    with pytest.raises(ValueError):
        fl.EllipsoidSpec((1, 0))
    with pytest.raises(ValueError):
        fl.EllipsoidSpec(())
    with pytest.raises(ValueError, match="finite"):
        fl.EllipsoidSpec((1, float("nan")))
    with pytest.raises(ValueError, match="finite"):
        fl.EllipsoidSpec((float("inf"), 1))


def test_frame_validation():
    with pytest.raises(ValueError):
        fl.Frame("R", np.array([[1, 1j]]))
    with pytest.raises(ValueError):
        fl.Frame("R", np.array([[np.inf, 1.0]]))
    with pytest.raises(ValueError):
        fl.Frame("Q", np.eye(2))
    with pytest.raises(ValueError, match=r"^U is 3x3, frame has n=2$"):
        fl.act_orthogonal(fl.simplex_frame(2), np.eye(3))
    for field in ("Q", ["R"], None):  # one field rule, an unhashable field included
        for call in (lambda: fl.Frame(field, np.eye(2)),
                     lambda: fl.expected_dimensions(5, 2, field),
                     lambda: fl.harmonic_frame(5, 2, field)):
            with pytest.raises(ValueError, match="field must be 'R' or 'C'"):
                call()


_PATH_TS = np.array([0.0, 1.0])
_PATH_POINTS = np.array([[1, 1j, 1, 1j], [1j, 1, 1j, 1]])

#: every entry point that takes an array from its caller:
#: name -> (call taking the array, a valid array, whether it must be square)
_ENTRY_POINTS = {
    "Frame": (lambda a: fl.Frame("R", a), fl.simplex_frame(2).entries, False),
    "GramPoint": (lambda a: fl.GramPoint("R", 1, a), np.ones((3, 3)), True),
    "EllipsoidSpec": (fl.EllipsoidSpec, np.array([2.0, 1.0]), False),
    "act_orthogonal": (lambda a: fl.act_orthogonal(fl.simplex_frame(2), a), np.eye(2), True),
    "act_phases": (lambda a: fl.act_phases(fl.simplex_frame(2), a),
                   np.array([1.0, -1.0, 1.0]), False),
    "is_gram_point": (lambda a: fl.is_gram_point(a, 1), np.ones((3, 3)), True),
    "commutant_partition": (fl.commutant_partition, np.eye(3), True),
    "torus_point": (fl.torus_point, np.array([1j, -1.0]), False),
    "PlanarFrame": (fl.PlanarFrame, np.array([1, 1j, 1, 1j]), False),
    "Chain": (fl.Chain, np.array([1.0, -1.0, 1.0, -1.0]), False),
    "from_planar": (fl.from_planar, np.array([1, 1j, 1, 1j]), False),
    "FramePath points": (lambda a: fl.FramePath("chain", _PATH_TS, a, 1.0),
                         _PATH_POINTS, False),
    "FramePath ts": (lambda a: fl.FramePath("chain", a, _PATH_POINTS, 1.0), _PATH_TS, False),
    "validate_path expect_start": (
        lambda a: fl.validate_path(fl.FramePath("chain", _PATH_TS, _PATH_POINTS, 1.0),
                                   expect_start=a), _PATH_POINTS[0], False),
    "validate_path expect_end": (
        lambda a: fl.validate_path(fl.FramePath("chain", _PATH_TS, _PATH_POINTS, 1.0),
                                   expect_end=a), _PATH_POINTS[-1], False),
}


def _with_last(a, value):
    bad = a.astype(np.result_type(a, float))
    bad.flat[-1] = value
    return bad


#: bad input -> (the valid array broken that way, the refusal it must get)
_BREAKS = {
    "nan": (lambda a: _with_last(a, np.nan), "non-finite"),
    "inf": (lambda a: _with_last(a, -np.inf), "non-finite"),
    "bool": (lambda a: a != 0, "must be numbers"),
    "string": (lambda a: a.astype(str), "must be numbers"),
    "extra axis": (lambda a: np.stack([a, a]), "expected a"),
    "one axis less": (lambda a: a[0], "expected a"),
}


@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry, (_, _, square) in sorted(_ENTRY_POINTS.items())
    for bad in sorted(_BREAKS) + ["non-square"] * square])
def test_every_entry_point_refuses_bad_arrays(entry, bad):
    call, good, _ = _ENTRY_POINTS[entry]
    call(good)
    if bad == "non-square":
        broken, message = good[:, :-1], "expected a square"
    else:
        breaker, message = _BREAKS[bad]
        broken = breaker(good)
    with pytest.raises(ValueError, match=message):
        call(broken)


def test_stored_types_own_their_arrays():
    """Writing to the caller's array after construction changes no stored
    value, and the caller's array stays writable."""
    z = fl.canonical_planar(4).z
    made = [
        (lambda a: fl.Frame("R", a).entries, fl.simplex_frame(2).entries),
        (lambda a: fl.GramPoint("C", 1, a).entries, fl.torus_point([1j, -1.0]).entries),
        (lambda a: fl.PlanarFrame(a).z, z),
        (lambda a: fl.Chain(a).w, z ** 2),
        (lambda a: fl.FramePath("planar", _PATH_TS, a, 1.0).points, _PATH_POINTS),
        (lambda a: fl.FramePath("planar", a, _PATH_POINTS, 1.0).ts, _PATH_TS),
    ]
    for read, values in made:
        caller = np.array(values)
        stored = read(caller)
        assert caller.flags.writeable and not stored.flags.writeable
        caller.flat[0] = 7
        assert np.array_equal(stored, values)


def test_as_array_copies_only_when_asked():
    from framelab.frames import _as_array

    a = np.eye(3)
    view = _as_array(a, square=True)
    assert np.shares_memory(view, a) and not view.flags.writeable and a.flags.writeable
    own = _as_array(a, "R", copy=True)
    assert not np.shares_memory(own, a) and not own.flags.writeable
    assert _as_array(a.astype(int)).dtype == np.float64
    assert _as_array(a + 0j).dtype == np.complex128
    assert _as_array(a + 0j, "R").dtype == np.float64
    with pytest.raises(ValueError, match="imaginary"):
        _as_array(a + 1e-300j, "R")


@pytest.mark.parametrize("n", [1.5, 1.0, True, "1", np.float64(1.0), np.True_, None], ids=repr)
def test_gram_point_takes_an_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        fl.GramPoint("R", n, np.ones((3, 3)))


def test_integer_rule_accepts_numpy_integers():
    R = fl.GramPoint("R", np.int64(1), np.ones((3, 3)))
    assert R.n == 1 and type(R.n) is int
    p = fl.Partition(np.int32(2), ((np.int64(2), 1),))
    assert p.blocks == ((1, 2),) and type(p.k) is int and type(p.blocks[0][0]) is int
    for bad in (((1.9, "2"),), ((1, 2.0),), ((True, 2),)):
        with pytest.raises(ValueError, match="block entry must be an integer"):
            fl.Partition(2, bad)
    with pytest.raises(ValueError, match="k must be an integer"):
        fl.Partition(2.0, ((1, 2),))
    assert fl.harmonic_frame(np.int64(5), np.int32(2)).entries.shape == (2, 5)
    assert fl.simplex_frame(np.int64(2)).k == 3
    assert len(fl.enumerate_one_redundant(np.int8(3)).points) == 8
    assert fl.construct_regular_point(np.int64(6), np.int64(3)).k == 6
    F = fl.simplex_frame(2)
    for perm in (np.array([1, 0, 2]), np.array([1, 0, 2], np.uint8), [np.int64(1), np.int32(0), 2]):
        assert np.array_equal(fl.act_permutation(F, perm).entries, F.entries[:, [1, 0, 2]])
        assert np.array_equal(fl.permutation_matrix(perm), np.eye(3)[:, [1, 0, 2]])
    assert fl.expected_tight_bound(fl.EllipsoidSpec((1, 1)), np.int64(5)) == 2.5
    dims = fl.expected_dimensions(np.int64(5), np.int64(2), "R")
    assert dims == {"dimG": 2, "dimF": 3, "dimN": 2, "dimM": 3}
    assert all(type(d) is int for d in dims.values())
    R = fl.gram(fl.simplex_frame(2))
    assert fl.is_gram_point(R.entries, np.int64(2)).ok
    assert fl.random_planar_frame(np.int64(5), np.random.default_rng(0)).k == 5
    assert fl.canonical_planar(np.int64(5)).k == fl.standard_chain(np.int64(5)).k == 5
    for name, call in [("k", lambda: fl.harmonic_frame(5.0, 2)),
                       ("n", lambda: fl.harmonic_frame(5, True)),
                       ("n", lambda: fl.simplex_frame(2.5)),
                       ("n", lambda: fl.enumerate_one_redundant(3.0)),
                       ("k", lambda: fl.construct_regular_point(6.0, 3)),
                       ("k", lambda: fl.expected_dimensions(5.0, 2, "R")),
                       ("n", lambda: fl.expected_dimensions(5, "2", "R")),
                       ("n", lambda: fl.is_gram_point(R.entries, 2.0)),
                       ("n", lambda: fl.is_gram_point(R.entries, True)),
                       ("k", lambda: fl.random_planar_frame(5.0, np.random.default_rng(0))),
                       ("k", lambda: fl.canonical_planar(5.0)),
                       ("k", lambda: fl.standard_chain(5.0)),
                       ("k", lambda: fl.expected_tight_bound(fl.EllipsoidSpec((1, 1)), 5.5)),
                       ("k", lambda: fl.expected_tight_bound(fl.EllipsoidSpec((1, 1)), "5"))]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call()
    for perm in ([1.0, 0.0, 2.0], [True, False, 2], np.array([1.0, 0.0, 2.0]),
                 np.array([True, False, True])):
        for call in (lambda: fl.act_permutation(F, perm), lambda: fl.permutation_matrix(perm)):
            with pytest.raises(ValueError, match="perm entry must be an integer"):
                call()


@pytest.mark.parametrize("tol", ["1e-9", np.float32(1e-9)], ids=repr)
def test_positive_number_rule_compares_the_checked_tol(tol):
    # a tol the rule accepts is compared as the float it checked, never raw
    F = fl.simplex_frame(2)
    assert np.array_equal(fl.act_phases(F, [1, -1, 1], tol).entries, F.entries * [1, -1, 1])
    with pytest.raises(ValueError, match="real frames admit only"):
        fl.act_phases(F, [1j, 1, 1], tol)
    with pytest.raises(ValueError, match="phases must be unimodular"):
        fl.act_phases(F, [1.1, 1, 1], tol)
    assert fl.is_spherical(F, tol) and fl.is_tight(F, tol)[0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0, -1e-9, "abc", None, True])
def test_one_positive_number_rule(value):
    F = fl.simplex_frame(2)
    for call in (lambda: fl.is_tight(F, value), lambda: fl.gram(F, value)):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            call()
    R = fl.gram(F)
    path = fl.case1_explicit_path()
    loop = fl.to_gram_loop(path)
    b = fl.canonical_planar(4)
    cp = fl.chain_straighten(fl.square_map(b))
    for call in (lambda: fl.PlanarFrame(b.z, value),
                 lambda: fl.Chain(b.z ** 2, value),
                 lambda: fl.to_planar(fl.from_planar(b.z), value),
                 lambda: fl.to_gram_loop(path, value),
                 lambda: fl.is_spherical(F, value),
                 lambda: fl.is_on_ellipsoid(F, fl.EllipsoidSpec((1.0, 1.0)), value),
                 lambda: fl.is_gram_point(R.entries, 2, value),
                 lambda: fl.commutant_partition(np.eye(3), value),
                 lambda: fl.validate_path(cp, value),
                 lambda: fl.lift_gram_path([R, R], value),
                 lambda: fl.holonomy_sign(loop, value),
                 lambda: fl.same_orbit(F, F, value),
                 lambda: fl.act_orthogonal(F, np.eye(2), value),
                 lambda: fl.act_phases(F, np.ones(3), value)):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            call()
    for call in (lambda: fl.FramePath("chain", _PATH_TS, _PATH_POINTS, value),
                 lambda: fl.case1_explicit_path(value)):
        with pytest.raises(ValueError, match="max_step must be a finite number > 0"):
            call()
    # spread = 0 asks for the harmonic orbit; every other spread follows the rule
    if value != 0:
        with pytest.raises(ValueError, match="spread must be a finite number > 0"):
            fl.random_tight_frame(12, 5, "R", np.random.default_rng(0), spread=value)
