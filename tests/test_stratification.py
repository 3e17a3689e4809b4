import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import framelab as fl
from framelab import stratification

BLOCK4 = fl.Frame("R", np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float))


def test_commutant_partition_block_matrix():
    M = np.zeros((5, 5))
    M[:2, :2] = [[1, 0.5], [0.5, 1]]
    M[2:, 2:] = [[1, 0.2, 0.0], [0.2, 1, 0.3], [0.0, 0.3, 1]]
    p = fl.commutant_partition(M)
    assert p.blocks == ((1, 2), (3, 4, 5))
    # a path graph: one block, reached only through a chain of neighbours
    T = np.eye(6) + np.diag(np.full(5, 0.4), 1) + np.diag(np.full(5, 0.4), -1)
    assert fl.commutant_partition(T).blocks == ((1, 2, 3, 4, 5, 6),)


def test_commutant_partition_simplex_is_trivial():
    p = fl.commutant_partition(fl.gram(fl.simplex_frame(4)).entries)
    assert p.trivial


def test_commutant_partition_two_bases():
    p = fl.commutant_partition(fl.gram(BLOCK4).entries)
    assert p.blocks == ((1, 3), (2, 4))


def test_commutant_partition_permutation_invariance():
    rng = np.random.default_rng(2)
    M = fl.gram(BLOCK4).entries
    perm = rng.permutation(4)
    A = fl.permutation_matrix(perm)
    p1 = fl.commutant_partition(M)
    p2 = fl.commutant_partition(A.T @ M @ A)
    # blocks relabel through the permutation
    inv = np.argsort(perm)
    relabeled = sorted(tuple(sorted(int(inv[i - 1]) + 1 for i in b)) for b in p1.blocks)
    assert sorted(p2.blocks) == relabeled


def test_is_orthodecomposable():
    dec, p = fl.is_orthodecomposable(BLOCK4)
    assert dec and p.blocks == ((1, 3), (2, 4))
    dec, p = fl.is_orthodecomposable(fl.simplex_frame(3))
    assert not dec and p.trivial
    dec, p = fl.is_orthodecomposable(fl.harmonic_frame(4, 2, "R"))
    assert dec and p.blocks == ((1, 3), (2, 4))


def test_check_block_cardinalities():
    assert fl.check_block_cardinalities(fl.Partition(4, ((1, 3), (2, 4))), 4, 2)
    assert not fl.check_block_cardinalities(fl.Partition(5, ((1, 2), (3, 4, 5))), 5, 2)
    assert fl.check_block_cardinalities(fl.Partition(6, ((1, 2, 3), (4, 5, 6))), 6, 4)
    for k, n, match in [(4.0, 2, "k must be an integer"), (4, 2.0, "n must be an integer"),
                        (4, 0, "k > n >= 1"), (4, -2, "k > n >= 1"), (4, 4, "k > n >= 1")]:
        with pytest.raises(ValueError, match=match):
            fl.check_block_cardinalities(fl.Partition(4, ((1, 3), (2, 4))), k, n)


def test_block_cardinalities_hold_for_frames():
    for (k, n, field, seed) in [(4, 2, "R", 0), (6, 3, "C", 1), (6, 4, "R", 2)]:
        F = fl.random_tight_frame(k, n, field, np.random.default_rng(seed))
        _, p = fl.is_orthodecomposable(F)
        assert fl.check_block_cardinalities(p, k, n)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_tangent_report_simplex(n):
    rep = fl.tangent_report(fl.gram(fl.simplex_frame(n)))
    assert rep.rank == n and rep.regular
    assert rep.stratum_dim == 0


def test_tangent_report_generic_5_2():
    F = fl.random_tight_frame(5, 2, "R", np.random.default_rng(4), spread=0.05)
    rep = fl.tangent_report(fl.gram(F))
    assert rep.rank == 4 and rep.regular and rep.stratum_dim == 2
    assert rep.ambient_dim == 2 * 3


def test_tangent_report_two_bases():
    rep = fl.tangent_report(fl.gram(BLOCK4))
    assert not rep.regular
    assert rep.rank == 2
    assert rep.stratum_dim == 0


def test_tangent_report_names_the_gap():
    # unit diagonal but P = I/2 has no rank-2 split: refused as frame_from_gram refuses it
    with pytest.raises(ValueError, match=r"not clustered at 0 and 1 \(gap 0 < 0.5\)"):
        fl.tangent_report(fl.GramPoint("R", 2, np.eye(4)))


def test_tangent_report_refuses_a_fractional_block_rank():
    # at tol 0.6 every entry -1/2 of the (3, 2) simplex is cut: three blocks of rank 2/3
    S = fl.gram(fl.simplex_frame(2))
    with pytest.raises(ValueError, match=r"block sizes \[1, 1, 1\] give a non-integer block rank"):
        fl.tangent_report(S, tol=0.6)


def test_tangent_report_eigen_calls(monkeypatch):
    # ||H^2 - H||_F and tr H pass a Gram point's split; an eigh runs only on
    # an input they cannot decide, and reports the gap it refuses
    R = _random_point(48, 24, "R", 2)
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _f=getattr(np.linalg, name),
                            **kw: calls.append(_name) or _f(*a, **kw))
    assert fl.tangent_report(R).rank == 47
    assert calls == []
    with pytest.raises(ValueError, match=r"not clustered at 0 and 1 \(gap 0 < 0.5\)"):
        fl.tangent_report(fl.GramPoint("R", 2, np.eye(4)))
    assert calls == ["eigh"]


def test_block_count_equals_corank():
    # the library's rank is k - |sigma| by construction; the column rank shares no code with it
    cases = [fl.gram(BLOCK4), fl.gram(fl.simplex_frame(3)),
             fl.gram(fl.harmonic_frame(6, 2, "R")),
             fl.construct_regular_point(6, 3)]
    for R in cases:
        sigma = fl.commutant_partition(R.entries)
        assert len(sigma) == R.k - _column_rank(R)


def _column_rank(R):
    """The tangent rank by definition: the numerical rank of the n(k-n)
    columns Re(u_i * conj(u_j)), plus Im(...) in the complex case, over
    eigenvectors u_i of range(P) and u_j of ker(P)."""
    k, n = R.k, R.n
    P = R.projection()
    _, V = np.linalg.eigh((P + P.conj().T) / 2)
    V = V[:, ::-1]
    cols = []
    for i in range(n):
        for j in range(n, k):
            prod = V[:, i] * V[:, j].conj()
            cols.append(prod.real)
            if R.field == "C":
                cols.append(prod.imag)
    sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(sv > sv[0] * 1e-8))


def _random_point(k, n, field, seed):
    F = fl.random_tight_frame(k, n, field, np.random.default_rng(seed), spread=0.05)
    return fl.gram(F)


def _block_point():
    block = np.zeros((12, 12))
    block[:6, :6] = _random_point(6, 3, "R", 8).entries
    block[6:, 6:] = _random_point(6, 3, "R", 9).entries
    return fl.GramPoint("R", 6, block)


def givens_point(field, theta):
    """Two seeded (6, 3) frames on the diagonal of a 6 x 12 frame, with
    columns 0 and 6 turned by a Givens angle theta (a phase e^{0.7i} on the
    sine when complex).  The turn keeps the frame spherical and tight; the
    Gram entries between the halves are about 0.71 theta."""
    rng = np.random.default_rng(0)
    M = np.zeros((6, 12), dtype=complex if field == "C" else float)
    for b in (0, 1):
        M[3 * b:3 * b + 3, 6 * b:6 * b + 6] = fl.random_tight_frame(
            6, 3, field, rng, spread=0.05).entries
    c, s = math.cos(theta), math.sin(theta) * (np.exp(0.7j) if field == "C" else 1)
    a, b = M[:, 0].copy(), M[:, 6].copy()
    M[:, 0], M[:, 6] = c * a + s * b, -np.conj(s) * a + c * b
    return fl.gram(fl.Frame(field, M))


GIVENS = [(field, theta) for field in "RC" for theta in (1e-3, 1e-5, 1e-7)]


@pytest.mark.parametrize("make,rank", [
    (lambda: _random_point(6, 3, "R", 1), 5),
    (lambda: _random_point(48, 24, "R", 2), 47),
    (lambda: fl.construct_regular_point(64, 24), 63),
    (lambda: _random_point(9, 4, "C", 3), 8),
    (_block_point, 10),
] + [(lambda f=f, t=t: givens_point(f, t), 11) for f, t in GIVENS],
    ids=["R(6,3)", "R(48,24)", "regular(64,24)", "C(9,4)", "block(12,6)"]
    + [f"givens-{f}-{t:g}" for f, t in GIVENS])
def test_tangent_rank_matches_column_definition(make, rank):
    R = make()
    assert fl.tangent_report(R).rank == _column_rank(R) == rank


@pytest.mark.parametrize("field,theta", GIVENS)
def test_one_tolerance_decides_rank_regularity_and_stratum(field, theta):
    R = givens_point(field, theta)
    for tol, blocks in [(1e-9, 1), (1e-2, 2)]:
        rep = fl.tangent_report(R, tol)
        assert len(fl.commutant_partition(R.entries, tol)) == blocks
        assert rep.rank == 12 - blocks and rep.regular == (blocks == 1)
        want = fl.expected_dimensions(12 // blocks, 6 // blocks, field)["dimG"]
        assert rep.stratum_dim == blocks * want


def test_expected_dimensions_values():
    d = fl.expected_dimensions(5, 2, "R")
    assert d == {"dimG": 2, "dimF": 3, "dimN": 2, "dimM": 3}
    for n in (2, 3, 6):
        assert fl.expected_dimensions(n + 1, n, "R")["dimG"] == 0
    d = fl.expected_dimensions(3, 2, "C")
    assert d["dimG"] == 2 and d["dimF"] == 6


def test_expected_dimensions_cross_checked_by_tangent_rank():
    # ambient tangent rank k-1 pins dimG = ambient_dim - (k-1)
    for (k, n, field, seed) in [(5, 2, "R", 0), (5, 3, "C", 1), (7, 4, "R", 2)]:
        F = fl.random_tight_frame(k, n, field, np.random.default_rng(seed), spread=0.04)
        rep = fl.tangent_report(fl.gram(F))
        assert rep.regular
        assert rep.ambient_dim - rep.rank == fl.expected_dimensions(k, n, field)["dimG"]


def test_construct_regular_point_4_2():
    S = fl.construct_regular_point(4, 2)
    assert fl.is_gram_point(S.entries, 2).ok
    assert fl.commutant_partition(S.entries).trivial
    assert fl.tangent_report(S).regular


def _block_loop_regular_point(k, n):
    """construct_regular_point's matrix with its d-fold block diagonal
    filled one block at a time, as the library did before np.kron."""
    d = math.gcd(k, n)
    kp = k // d
    Rp = fl.gram(fl.harmonic_frame(kp, n // d, "R")).entries
    R = np.zeros((k, k))
    for b in range(d):
        R[b * kp:(b + 1) * kp, b * kp:(b + 1) * kp] = Rp
    V = np.eye(k)
    grid = np.arange(d) * kp
    V[np.ix_(grid, grid)] = stratification._dct_orthogonal(d)
    return V.T @ R @ V


def test_construct_regular_point_6_3():
    S = fl.construct_regular_point(6, 3)
    assert fl.is_gram_point(S.entries, 3).ok
    assert fl.commutant_partition(S.entries).trivial
    assert fl.tangent_report(S).regular
    for k in range(3, 41):
        for n in range(1, k):
            assert np.array_equal(fl.construct_regular_point(k, n).entries,
                                  _block_loop_regular_point(k, n)), (k, n)


def test_construct_regular_point_coprime():
    S = fl.construct_regular_point(5, 2)
    assert fl.is_gram_point(S.entries, 2).ok
    assert fl.tangent_report(S).regular


@pytest.mark.parametrize("k,n", [(4, 2), (6, 3), (6, 2), (8, 4), (9, 6), (10, 4)])
def test_construct_regular_point_general(k, n):
    S = fl.construct_regular_point(k, n)
    assert fl.is_gram_point(S.entries, n).ok
    assert fl.commutant_partition(S.entries).trivial


def test_harmonic_frame_mercedes():
    F = fl.harmonic_frame(3, 2, "R")
    G = F.entries.T @ F.entries
    assert_allclose(G, fl.gram(fl.simplex_frame(2)).entries, atol=1e-12)
    angles = np.angle(F.entries[0] + 1j * F.entries[1])
    assert_allclose(np.sort(np.mod(angles, 2 * np.pi)),
                    [0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-12)


def test_harmonic_frame_4_2_pattern():
    F = fl.harmonic_frame(4, 2, "R")
    assert_allclose(np.abs(F.entries), np.array([[1, 0, 1, 0], [0, 1, 0, 1]]),
                    atol=1e-12)
    dec, _ = fl.is_orthodecomposable(F)
    assert dec


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("k,n", [(5, 2), (7, 3), (6, 5), (9, 4)])
def test_harmonic_frame_tight_unit(k, n, field):
    F = fl.harmonic_frame(k, n, field)
    assert fl.is_spherical(F, 1e-10)
    tight, bound = fl.is_tight(F, 1e-10)
    assert tight and abs(bound - k / n) < 1e-10


def test_coprime_points_all_regular():
    # with gcd(k, n) = 1, every valid Gram point is a regular point
    for seed in range(20):
        k, n = (5, 3)
        F = fl.random_tight_frame(k, n, "R", np.random.default_rng(seed), spread=0.05)
        assert fl.tangent_report(fl.gram(F)).regular


def test_tangent_rank_permutation_invariant():
    rng = np.random.default_rng(6)
    R = fl.gram(fl.random_tight_frame(6, 2, "R", rng, spread=0.03))
    rep = fl.tangent_report(R)
    for _ in range(3):
        perm = rng.permutation(6)
        A = fl.permutation_matrix(perm)
        Rp = fl.GramPoint("R", 2, A.T @ R.entries @ A)
        assert fl.tangent_report(Rp).rank == rep.rank


def test_stratum_dim_matches_expected_at_regular_points():
    for (k, n, field, seed) in [(5, 2, "R", 0), (7, 3, "C", 1)]:
        F = fl.random_tight_frame(k, n, field, np.random.default_rng(seed), spread=0.04)
        rep = fl.tangent_report(fl.gram(F))
        assert rep.stratum_dim == fl.expected_dimensions(k, n, field)["dimG"]


def test_partition_validation():
    from framelab import jsonio

    with pytest.raises(ValueError):
        fl.Partition(4, ((1, 2), (2, 3, 4)))
    with pytest.raises(ValueError):
        fl.Partition(4, ((1, 2),))
    p = fl.Partition(4, ((4, 2), (3, 1)))
    assert p.blocks == ((1, 3), (2, 4))
    for k, blocks in [(-1, ()), (0, ()), (2, ((1,), (2,), ())), (2, ((), (1, 2)))]:
        with pytest.raises(ValueError, match="need k >= 1 and nonempty blocks"):
            fl.Partition(k, blocks)
    with pytest.raises(ValueError, match="need k >= 1 and nonempty blocks"):
        jsonio.partition_from_dict({"k": 2, "blocks": [[1], [2], []]})
    with pytest.raises(ValueError, match="^partition is over 3 indices, expected 4$"):
        fl.check_block_cardinalities(fl.Partition(3, ((1, 2, 3),)), 4, 2)


GRID_SHAPES = [("R", 6, 3), ("R", 12, 5), ("R", 24, 12), ("R", 48, 24), ("R", 64, 24),
               ("C", 9, 4), ("C", 16, 7), ("C", 30, 7), ("C", 40, 13)]


@pytest.mark.parametrize("field,k,n", GRID_SHAPES)
def test_retraction_takes_few_newton_steps_and_one_eigh(field, k, n, monkeypatch):
    # Newton on the column weights, 3-4 steps from a kicked grid frame: one
    # Cholesky factor per step and one for the last check, one eigh for the
    # frame
    calls, eigh, cholesky = [], np.linalg.eigh, np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or eigh(a))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append("chol") or cholesky(a))
    fl.random_tight_frame(k, n, field, np.random.default_rng(3), spread=0.05)
    assert calls.count("eigh") == 1 and 4 <= calls.count("chol") <= 5


def _alternation(M):
    """The retraction `frames._retract` ran before it took Newton steps on
    the column weights: tighten by sqrt(k/n) (M M*)^{-1/2} M (by the
    second-order expansion once near tight) and normalize the columns,
    until max|M M* - (k/n) I| < 1e-13."""
    n, k = M.shape[-2:]
    c, eye = k / n, np.eye(n)
    D = M @ M.conj().swapaxes(-1, -2) - c * eye
    err = np.max(np.abs(D))
    for _ in range(300):
        if n * err < 0.05 * c:
            T = eye - D / (2 * c) + (3 / (8 * c * c)) * (D @ D)
        else:
            w, V = np.linalg.eigh(D)
            T = np.sqrt(c) * (V / np.sqrt(w + c)[..., None, :]) @ V.conj().swapaxes(-1, -2)
        M = T @ M
        M = M / np.linalg.norm(M, axis=-2, keepdims=True)
        D = M @ M.conj().swapaxes(-1, -2) - c * eye
        err = np.max(np.abs(D))
        if err < 1e-13:
            return M
    raise AssertionError("the alternation did not converge")


def _complex_loop_midpoints():
    """The eigh frames of the midpoints `refine_loop` retracts on the
    harmonic C(5,2) point conjugated by diag(exp(i t (0, ..., 4))), t once
    round the circle."""
    from framelab import grassmann

    R = fl.gram(fl.harmonic_frame(5, 2, "C")).entries
    loop = np.stack([np.diag(np.exp(-1j * t * np.arange(5))) @ R @ np.diag(np.exp(1j * t * np.arange(5)))
                     for t in np.linspace(0, 2 * np.pi, 13)])
    return grassmann._eigh_frames((loop[:-1] + loop[1:]) / 2, 2)[0]


_INVARIANCE_CASES = ([(f, k, n, spread) for spread in (0.05, 0.3) for f, k, n in GRID_SHAPES]
                     + [("R", 12, 5, 0.5), "refine_loop midpoints"])


@pytest.mark.parametrize("case", _INVARIANCE_CASES, ids=str)
def test_newton_retraction_lands_on_the_alternations_gram_point(case, monkeypatch):
    """Both rules map M to A M D, A an n x n matrix and D a positive
    diagonal, and the weights D^2 of a tight position are unique up to
    scale: the Gram points agree, the frames differ by a unitary map."""
    from framelab import frames, stratification

    if case == "refine_loop midpoints":
        inputs = [_complex_loop_midpoints()]
    else:
        field, k, n, spread = case
        inputs = []
        monkeypatch.setattr(stratification, "_retract",
                            lambda M: inputs.append(M) or frames._retract(M))
        fl.random_tight_frame(k, n, field, np.random.default_rng(5), spread)
    assert len(inputs) == 1
    M = inputs[0]
    new, old = frames._retract(M), _alternation(M)

    def H(A):
        return A.conj().swapaxes(-1, -2)

    assert np.max(np.abs(H(new) @ new - H(old) @ old)) < 1e-12


@pytest.mark.parametrize("M", [
    [[1.0, 1, 1], [0, 0, 1]],       # two parallel columns of three in R^2
    [[1.0, -1, 0.3], [0, 0, 1]],    # antiparallel ones
    [[1.0, 1, 0], [0, 0, 1]],       # and orthogonal to the third: two blocks
    [[1.0, 1, 1, 1], [0, 0, 0, 0]],  # all on one line: M M* is singular
], ids=["parallel", "antiparallel", "blocks", "one line"])
def test_retraction_refuses_a_frame_with_no_tight_position(M, monkeypatch):
    # a tight position would give the columns on one line leverage above 1:
    # the weights part without bound until the spread cap ends it (on one
    # line, M M* is singular and has no Cholesky factor), warning-free
    from framelab import frames

    calls, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
    with pytest.raises(ValueError, match="retraction onto spherical tight frames"):
        frames._retract(np.array(M))
    assert 0 < len(calls) <= frames._RETRACT_STEPS


def test_a_failed_retraction_reaches_the_caller_after_one_call(monkeypatch):
    """random_tight_frame retracts one kick and retries nothing: a stall
    and a zero column alike reach its caller as they were raised."""
    from framelab import stratification

    for message in ["retraction onto spherical tight frames did not converge",
                    "cannot retract: a frame column is zero or NaN"]:
        calls = []

        def failing(M, _message=message):
            calls.append(M)
            raise ValueError(_message)

        monkeypatch.setattr(stratification, "_retract", failing)
        with pytest.raises(ValueError) as err:
            fl.random_tight_frame(12, 5, "R", np.random.default_rng(0), spread=0.5)
        assert str(err.value) == message
        assert len(calls) == 1


@pytest.mark.parametrize("field,k,n,spread", [(f, k, n, 0.05) for f, k, n in GRID_SHAPES]
                         + [("C", 9, 4, 0.3), ("R", 12, 5, 0.5)])
def test_retraction_lands_on_the_manifold(field, k, n, spread):
    F, G = (fl.random_tight_frame(k, n, field, np.random.default_rng(11), spread)
            for _ in range(2))
    M = F.entries
    assert np.max(np.abs(M @ M.conj().T - (k / n) * np.eye(n))) < 1e-13
    assert np.max(np.abs(np.linalg.norm(M, axis=0) - 1)) < 1e-15
    assert M.tobytes() == G.entries.tobytes()


def _chart_rank(F, rng, blocks=()):
    """Rank of the chart E -> gram(_retract(F + eps E)) at F, eps = 1e-6,
    counted from 3kn Gaussian directions E in one stacked `_retract` call:
    the singular values of the Gram differences (F_eps* F_eps - F* F)/eps,
    as real vectors, above the absolute cut 1e-2.  For each block (of
    1-based column indices) in ``blocks``, E moves those columns only within
    the span of theirs, so the chart stays on F's stratum.  Returns (rank,
    smallest value kept, largest value dropped), with inf and 0 for an
    empty side."""
    from framelab import frames

    n, k = F.n, F.k
    E = rng.standard_normal((3 * k * n, n, k))
    if F.field == "C":
        E = E + 1j * rng.standard_normal(E.shape)
    for block in blocks:
        cols = np.asarray(block) - 1
        span = F.entries[:, cols] @ np.linalg.pinv(F.entries[:, cols])
        E[:, :, cols] = span @ E[:, :, cols]
    G = frames._retract(F.entries + 1e-6 * E)
    D = (G.conj().swapaxes(-1, -2) @ G - F.conj_transpose() @ F.entries) / 1e-6
    D = D.reshape(len(E), -1)
    s = np.linalg.svd(np.hstack([D.real, D.imag]), compute_uv=False)
    kept, dropped = s[s > 1e-2], s[s <= 1e-2]
    return len(kept), kept.min(initial=np.inf), dropped.max(initial=0.0)


def test_chart_rank_is_the_gram_dimension_at_every_small_shape():
    """The retraction is a chart onto the frames near F, so the rank of its
    Gram differences is dim G at a generic F: the closed form, and dim Gr
    less the rank of the diagonal-extraction differential.  Every shape
    3 <= k <= 10, 1 <= n < k of both fields, the one sampler's n = 2,
    k - 2 and k - 1 included; the cut sits in a wide gap of the spectrum."""
    rng = np.random.default_rng(33)
    shapes = [(field, k, n) for field in "RC" for k in range(3, 11) for n in range(1, k)]
    assert len(shapes) == 88
    for field, k, n in shapes:
        F = fl.random_tight_frame(k, n, field, rng, spread=0.05)
        rank, kept, dropped = _chart_rank(F, rng)
        T = fl.tangent_report(fl.gram(F))
        expected = fl.expected_dimensions(k, n, field)["dimG"]
        assert rank == expected == T.ambient_dim - T.rank, (field, k, n, rank)
        assert kept >= 1 and dropped <= 1e-2, (field, k, n, kept, dropped)


def _direct_sum(*parts):
    """The frame whose columns are each part's, in its own coordinates."""
    M = np.zeros((sum(F.n for F in parts), sum(F.k for F in parts)), dtype=parts[0].entries.dtype)
    i = j = 0
    for F in parts:
        M[i:i + F.n, j:j + F.k] = F.entries
        i, j = i + F.n, j + F.k
    return fl.Frame(parts[0].field, M)


@pytest.mark.parametrize("field,parts", [
    ("R", [(3, 1), (3, 1)]), ("R", [(2, 1), (2, 1)]), ("R", [(3, 2), (3, 2)]),
    ("R", [(4, 2), (4, 2)]), ("C", [(3, 1), (3, 1)]), ("R", [(6, 3), (6, 3)]),
    ("R", [(5, 2), (5, 2)]), ("C", [(5, 2), (10, 4)]), ("R", [(7, 3), (7, 3)])],
    ids=["R(3,1)^2", "R(2,1)^2", "R(3,2)^2", "R(4,2)^2", "C(3,1)^2", "R(6,3)^2",
         "R(5,2)^2", "C(5,2)+C(10,4)", "R(7,3)^2"])
def test_chart_rank_at_singular_block_points(field, parts):
    """At the direct sum of two generic frames of one frame bound, the
    commutant partition has the two summands as blocks, and the chart sees
    what the closed forms say of it: its rank is dim Gr less the
    diagonal-extraction rank, which is dim G + 1, so the manifold condition
    fails without the partition being asked; held to the blocks it is
    stratum_dim; and it is the same at the frame_from_gram frame of the
    Naimark complement.  The cut sits in a wide gap."""
    rng = np.random.default_rng(34)
    F = _direct_sum(*(fl.random_tight_frame(k, n, field, rng, spread=0.05) for k, n in parts))
    R = fl.gram(F)
    T = fl.tangent_report(R)
    blocks = fl.commutant_partition(R.entries).blocks
    dimG = fl.expected_dimensions(F.k, F.n, field)["dimG"]
    full = _chart_rank(F, rng)
    held = _chart_rank(F, rng, blocks)
    naimark = _chart_rank(fl.frame_from_gram(fl.complement(R)), rng)
    assert len(blocks) == 2
    assert full[0] == T.ambient_dim - T.rank == dimG + 1
    assert held[0] == T.stratum_dim
    assert naimark[0] == full[0]
    for rank, kept, dropped in (full, held, naimark):
        assert kept >= 1 and dropped <= 1e-2, (rank, kept, dropped)
