"""Dataset generation and ingestion: synthetic ridge data, CovType with PCA, agent partitioning."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SYNTHETIC_RIDGE = "synthetic_ridge"
COVTYPE = "covtype"

# reference benchmark: ~400000 training samples, rounded up to a multiple of n
_COVTYPE_REFERENCE_N = 566602
_COVTYPE_TRAIN_TARGET = 400000


@dataclass
class Dataset:
    U: np.ndarray  # N x p features
    v: np.ndarray  # N targets (real) or labels (+-1)
    train_idx: np.ndarray
    test_idx: np.ndarray
    provenance: str
    extras: dict = field(default_factory=dict)

    @property
    def N(self) -> int:
        return self.U.shape[0]

    def test(self) -> tuple[np.ndarray, np.ndarray]:
        return self.U[self.test_idx], self.v[self.test_idx]


@dataclass(frozen=True)
class Partition:
    assignments: np.ndarray  # (n, m_i): row i indexes agent i's samples in the dataset
    m_i: int
    dropped: int


def generate_ridge_synthetic(N: int, p: int, seed: int, noise_std: float = 0.1) -> Dataset:
    """Gaussian features, Gaussian hidden model, additive noise; seeded shuffle.

    b_j = a_j . x_hidden + noise, a_j ~ N(0, I_p), x_hidden ~ N(0, I_p).
    All N samples are training data (the ridge experiments have no test split).
    """
    if N < 1 or p < 1:
        raise ValueError(f"need N, p >= 1, got N={N}, p={p}")
    if not np.isfinite(noise_std):
        raise ValueError(f"noise_std must be finite, got {noise_std}")
    rng = np.random.default_rng(seed)
    x_hidden = rng.standard_normal(p)
    U = rng.standard_normal((N, p))
    v = U @ x_hidden + noise_std * rng.standard_normal(N)
    perm = rng.permutation(N)
    U, v = U.take(perm, axis=0), v.take(perm)
    return Dataset(U=U, v=v, train_idx=np.arange(N), test_idx=np.arange(0),
                   provenance=SYNTHETIC_RIDGE,
                   extras={"x_hidden": x_hidden, "noise_std": noise_std, "seed": seed})


def covtype_split_counts(N: int, n_agents: int) -> tuple[int, int]:
    """Train/test sizes: the reference benchmark counts at its exact N, proportional otherwise."""
    if N == _COVTYPE_REFERENCE_N:
        train = n_agents * int(np.ceil(_COVTYPE_TRAIN_TARGET / n_agents))
    else:
        train = int(round(N * _COVTYPE_TRAIN_TARGET / _COVTYPE_REFERENCE_N))
    train = min(train, N)
    return train, N - train


def load_covtype(path: str, p: int = 10, seed: int = 42, n_agents: int = 10) -> Dataset:
    """UCI CovType CSV (54 features + class column) -> standardized PCA features, +-1 labels.

    Features are standardized to zero mean / unit variance, reduced to `p` principal
    components (1 <= p <= 54) by eigendecomposition of the covariance, labels binarized
    class-2 -> +1 (the most balanced split), rows shuffled with `seed`, and split
    into train/test per covtype_split_counts.
    """
    if not 1 <= p <= 54:
        raise ValueError(f"CovType has 54 features, so needs 1 <= p <= 54, got p={p}")
    try:
        raw = np.loadtxt(path, delimiter=",")
    except OSError as exc:
        raise FileNotFoundError(f"CovType file not found: {path}") from exc
    except ValueError as exc:
        raise ValueError(f"CovType parse failure in {path}: {exc}") from exc
    if raw.ndim != 2 or raw.shape[1] != 55:
        raise ValueError(f"expected 55 columns (54 features + class), got shape {raw.shape}")
    bad = ~np.all(np.isfinite(raw), axis=1)
    if bad.any():
        rows = np.flatnonzero(bad)
        raise ValueError(f"non-finite values at rows {rows[:10].tolist()}")

    X, labels = raw[:, :54], raw[:, 54]
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0  # constant columns carry no information
    Xs = (X - mean) / std

    cov = (Xs.T @ Xs) / Xs.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    U = Xs @ evecs[:, :p]
    explained = float(evals[:p].sum() / evals.sum())

    v = np.where(labels == 2, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(U.shape[0])
    U, v = U.take(perm, axis=0), v.take(perm)
    n_train, n_test = covtype_split_counts(U.shape[0], n_agents)
    return Dataset(U=U, v=v, train_idx=np.arange(n_train),
                   test_idx=np.arange(n_train, n_train + n_test),
                   provenance=COVTYPE,
                   extras={"explained_variance_ratio": explained,
                           "pca_variances": evals[:p].tolist(),
                           "label_map": "class 2 -> +1, rest -> -1",
                           "n_rows": int(U.shape[0]), "seed": seed, "path": str(path)})


def partition_homogeneous(ds: Dataset, n: int, seed: int) -> Partition:
    """Seeded shuffle of the train split, then contiguous blocks of floor(|train|/n), one row each."""
    if n < 1:
        raise ValueError(f"need n >= 1 agents, got {n}")
    train = ds.train_idx
    if n > train.size:
        raise ValueError(f"more agents ({n}) than training samples ({train.size})")
    rng = np.random.default_rng(seed)
    shuffled = train[rng.permutation(train.size)]
    m = train.size // n
    return Partition(assignments=shuffled[:n * m].reshape(n, m), m_i=m, dropped=train.size - n * m)


def build_locals(ds: Dataset, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's samples as stacks: features (n, m_i, p) and targets (n, m_i), one gather."""
    rows = part.assignments
    return ds.U.take(rows.ravel(), axis=0).reshape(rows.shape + ds.U.shape[1:]), ds.v.take(rows)
