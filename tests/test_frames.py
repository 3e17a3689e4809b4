import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl


def test_simplex_bounds_equal():
    b = fl.frame_bounds(fl.simplex_frame(3))
    assert_allclose([b.lower, b.upper], [4 / 3, 4 / 3], atol=1e-12)


def test_identity_basis_bounds():
    b = fl.frame_bounds(fl.Frame("R", np.eye(4)))
    assert_allclose([b.lower, b.upper], [1, 1], atol=1e-14)


def test_repeated_vector_bounds():
    F = fl.Frame("R", np.array([[1, 1, 0], [0, 0, 1]], dtype=float))
    b = fl.frame_bounds(F)
    assert_allclose([b.lower, b.upper], [1, 2], atol=1e-14)


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


def test_on_ellipsoid_sphere_case():
    assert fl.is_on_ellipsoid(fl.simplex_frame(4), fl.EllipsoidSpec((1, 1, 1, 1)))


def test_on_ellipsoid_scaled_columns_fail():
    F = fl.Frame("R", 2 * fl.simplex_frame(3).entries)
    assert not fl.is_on_ellipsoid(F, fl.EllipsoidSpec((1, 1, 1)))


def test_on_ellipsoid_mixed_axes():
    F = fl.Frame("R", np.eye(2))
    # (0,1) satisfies 2x^2 + y^2 = 1 but (1,0) gives 2
    assert not fl.is_on_ellipsoid(F, fl.EllipsoidSpec((2, 1)))


def test_expected_tight_bound():
    assert fl.expected_tight_bound(fl.EllipsoidSpec((1, 1)), 5) == pytest.approx(2.5)
    assert fl.expected_tight_bound(fl.EllipsoidSpec((1,) * 4), 9) == pytest.approx(9 / 4)
    assert fl.expected_tight_bound(fl.EllipsoidSpec((2, 1, 1)), 8) == pytest.approx(2.0)


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
    with pytest.raises(ValueError):
        fl.act_phases(F, [1j, 1, 1])
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
