import numpy as np
import pytest

from cnext.data import (build_locals, covtype_split_counts, generate_ridge_synthetic,
                        load_covtype, partition_homogeneous)
from cnext.objective import ridge_closed_form_optimum, ridge_objective
from conftest import covtype_fixture_csv


def test_synthetic_determinism():
    a = generate_ridge_synthetic(500, 20, 42)
    b = generate_ridge_synthetic(500, 20, 42)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.v, b.v)
    c = generate_ridge_synthetic(500, 20, 43)
    assert not np.array_equal(a.U, c.U)


def test_noiseless_model_recovered_as_lambda_vanishes():
    ds = generate_ridge_synthetic(300, 6, 5, noise_std=0.0)
    x_hidden = ds.extras["x_hidden"]
    part = partition_homogeneous(ds, 3, 5)
    errs = []
    for lam in (1e-3, 1e-6):
        obj = ridge_objective(build_locals(ds, part), lam)
        errs.append(np.linalg.norm(ridge_closed_form_optimum(obj) - x_hidden))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-6


def test_partition_block_sizes():
    ds = generate_ridge_synthetic(500, 20, 42)
    part = partition_homogeneous(ds, 10, 42)
    assert part.m_i == 50 and part.dropped == 0
    assert part.assignments.shape == (10, 50)

    ds2 = generate_ridge_synthetic(505, 20, 42)
    part2 = partition_homogeneous(ds2, 10, 42)
    assert part2.m_i == 50 and part2.dropped == 5

    used = np.concatenate(part.assignments)
    assert len(np.unique(used)) == len(used)
    assert set(used).issubset(set(ds.train_idx.tolist()))


def test_partition_rows_are_contiguous_blocks_of_the_shuffle():
    # row i is the i-th block of floor(|train| / n) of the seeded shuffle; the tail is dropped
    ds = generate_ridge_synthetic(103, 4, 2)
    part = partition_homogeneous(ds, 5, 8)
    shuffled = ds.train_idx[np.random.default_rng(8).permutation(103)]
    assert part.assignments.shape == (5, 20) and part.dropped == 3
    for i in range(5):
        assert np.array_equal(part.assignments[i], shuffled[20 * i:20 * (i + 1)])


def test_build_locals_rows_are_each_agents_samples():
    ds = generate_ridge_synthetic(103, 4, 2)
    part = partition_homogeneous(ds, 5, 8)
    A, b = build_locals(ds, part)
    assert A.shape == (5, 20, 4) and b.shape == (5, 20)
    for i, idx in enumerate(part.assignments):
        assert np.array_equal(A[i], ds.U[idx])
        assert np.array_equal(b[i], ds.v[idx])


def test_partition_determinism_and_validation():
    ds = generate_ridge_synthetic(100, 5, 1)
    a = partition_homogeneous(ds, 4, 9)
    b = partition_homogeneous(ds, 4, 9)
    for ia, ib in zip(a.assignments, b.assignments):
        assert np.array_equal(ia, ib)
    with pytest.raises(ValueError):
        partition_homogeneous(ds, 0, 9)
    with pytest.raises(ValueError):
        partition_homogeneous(ds, 101, 9)
    for N, p in ((0, 5), (100, 0)):
        with pytest.raises(ValueError, match="need N, p >= 1"):
            generate_ridge_synthetic(N, p, 1)


def test_covtype_split_counts_match_published_table():
    assert covtype_split_counts(566602, 10) == (400000, 166602)
    assert covtype_split_counts(566602, 14) == (400008, 166594)
    # proportional fallback for other sample counts
    train, test = covtype_split_counts(1000, 10)
    assert train + test == 1000
    assert train == round(1000 * 400000 / 566602)


def test_covtype_loader_on_fixture(tmp_path):
    path = tmp_path / "covtype_sample.csv"
    X, labels = covtype_fixture_csv(path)
    ds = load_covtype(str(path), p=5, seed=3, n_agents=4)
    assert ds.U.shape == (80, 5)
    assert set(np.unique(ds.v)).issubset({-1.0, 1.0})
    assert ds.train_idx.size + ds.test_idx.size == 80
    # principal-component variances are non-increasing
    variances = ds.U.var(axis=0)
    assert all(a >= b - 1e-12 for a, b in zip(variances, variances[1:]))
    assert 0 < ds.extras["explained_variance_ratio"] <= 1.0
    pv = ds.extras["pca_variances"]
    assert all(a >= b - 1e-12 for a, b in zip(pv, pv[1:]))


def test_covtype_pca_against_eigen_oracle(tmp_path):
    path = tmp_path / "covtype_sample.csv"
    X, labels = covtype_fixture_csv(path, n_rows=60, seed=4)
    k = 6
    ds = load_covtype(str(path), p=k, seed=3, n_agents=4)
    # independent oracle: standardize, eigendecompose, project
    mean, std = X.mean(axis=0), X.std(axis=0)
    std[std == 0.0] = 1.0
    Xs = (X - mean) / std
    evals, evecs = np.linalg.eigh(Xs.T @ Xs / Xs.shape[0])
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    proj = Xs @ evecs[:, :k]
    # reconstruction loses exactly the tail eigenvalue mass
    recon = proj @ evecs[:, :k].T
    tail = float(np.sum((Xs - recon) ** 2) / Xs.shape[0])
    assert tail == pytest.approx(float(evals[k:].sum()), rel=1e-8)
    # the loader kept the same leading mass
    assert ds.extras["explained_variance_ratio"] == pytest.approx(
        float(evals[:k].sum() / evals.sum()), rel=1e-10)


def test_covtype_projection_matches_oracle_up_to_sign(tmp_path):
    path = tmp_path / "covtype_sample.csv"
    X, labels = covtype_fixture_csv(path, n_rows=60, seed=4)
    k = 6
    ds = load_covtype(str(path), p=k, seed=3, n_agents=4)
    mean, std = X.mean(axis=0), X.std(axis=0)
    std[std == 0.0] = 1.0
    Xs = (X - mean) / std
    evals, evecs = np.linalg.eigh(Xs.T @ Xs / Xs.shape[0])
    order = np.argsort(evals)[::-1]
    proj = Xs @ evecs[:, order[:k]]
    perm = np.random.default_rng(3).permutation(60)
    assert np.allclose(np.abs(ds.U), np.abs(proj[perm]), atol=1e-10)
    assert np.array_equal(ds.v, np.where(labels[perm] == 2, 1.0, -1.0))


def test_covtype_loader_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_covtype(str(tmp_path / "missing.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\nnot,a,row\n")
    with pytest.raises(ValueError):
        load_covtype(str(bad))
    nan_path = tmp_path / "nans.csv"
    rows = np.zeros((3, 55))
    rows[1, 5] = np.nan
    np.savetxt(nan_path, rows, delimiter=",")
    with pytest.raises(ValueError, match="rows"):
        load_covtype(str(nan_path))
