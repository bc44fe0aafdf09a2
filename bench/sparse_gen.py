"""Seeded rcv1-like sparse LibSVM generator.

Stands in for the paper's high-dimensional text sets (rcv1, news20) until
their files are in the repository. Rows look like tf-idf documents: column
popularity follows a Zipf law, values are positive, every row is scaled to
the same Euclidean norm, and labels come from a planted weight vector with a
share of them flipped. The text is a pure function of the arguments.
"""

import numpy as np

ZIPF = 1.1          # column popularity ~ 1 / rank**ZIPF
ROW_NORM = 3.0      # Euclidean norm of every row
FLIP = 0.05         # share of labels flipped
POPULATION_SEED = 0


def rcv1_like(path, n, d, nnz_per_row, seed):
    """Write an n x d LibSVM file to ``path``; return its size statistics.

    Each row draws about ``nnz_per_row`` distinct columns (Poisson around the
    mean, at least one) with probability proportional to its popularity.
    Which column has which rank, and the planted weights, are the same for
    every call; ``seed`` draws the rows, so datasets of different
    seeds are samples of one corpus. Returns a dict with n, d, nnz and bytes.
    """
    if not 1 <= nnz_per_row <= d:
        raise ValueError("nnz_per_row must be in [1, d]")
    population = np.random.default_rng(POPULATION_SEED)
    # shuffle which column ids are popular so index order carries no signal
    column_of_rank = population.permutation(d)
    w_true = population.standard_normal(d)
    popularity = 1.0 / np.arange(1, d + 1) ** ZIPF
    popularity /= popularity.sum()
    rng = np.random.default_rng(seed)
    lines = []
    nnz = 0
    for _ in range(n):
        k = int(min(d, max(1, rng.poisson(nnz_per_row))))
        cols = np.sort(column_of_rank[rng.choice(d, size=k, replace=False,
                                                 p=popularity)])
        vals = rng.exponential(1.0, size=k) + 0.1
        vals *= ROW_NORM / np.linalg.norm(vals)
        label = 1 if vals @ w_true[cols] >= 0.0 else -1
        if rng.random() < FLIP:
            label = -label
        feats = " ".join(f"{c + 1}:{v:.6g}" for c, v in zip(cols, vals))
        lines.append(f"{label:+d} {feats}")
        nnz += k
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return {"n": n, "d": d, "nnz": nnz, "bytes": len(text.encode())}
