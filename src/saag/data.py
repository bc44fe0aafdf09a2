"""Sparse LibSVM-style datasets, train/test splits, and mini-batch schedules."""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np


class ParseError(ValueError):
    """Malformed LibSVM text; the message carries the 1-based line number."""


class Batch(np.ndarray):
    """A batch of ``Dataset.plan``: a read-only view of its schedule's row
    ids that carries its gathered signed rows in the slot ``signed``; a
    slice, copy or ``np.array`` of it carries none (the slot is unset, so
    read it with ``getattr(rows, "signed", None)``), and it is gathered
    afresh."""

    __slots__ = ("signed",)


@dataclass(eq=False)
class Dataset:
    """Sparse rows in CSR layout with +/-1 labels.

    Row i holds the columns ``indices[indptr[i]:indptr[i+1]]`` (0-based,
    strictly increasing) and their ``values``; zero values are never stored.
    ``d`` is the feature dimension; split children inherit it from the
    parent so shapes stay consistent. ``row_ids`` names the row of every
    stored value. The batch primitives read the rows signed by their
    labels, -y_i x_i (see ``block`` and ``signed``); ``values`` stay unsigned.
    A ``Batch`` of ``plan`` carries its gathered rows; the dataset keeps none.
    """

    # largest n * d that ``dense`` will allocate
    DENSE_LIMIT: ClassVar[int] = 50_000_000
    # Stored share of the n*d entries below which a pass is cheaper in CSR
    # than on a dense block (margins and scatter over 800x800 at 1%: 60 us
    # against 445 us; the two cost about the same at 5-8%).
    DENSE_PASS_FILL: ClassVar[float] = 0.05
    # most bytes of gathered rows one chunk of ``plan`` holds
    PLAN_BYTES: ClassVar[int] = 1 << 22

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int
    row_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        n = self.labels.size
        if n == 0:
            raise ValueError("empty dataset")
        if self.d < 1:
            raise ValueError("a dataset needs at least one feature (d >= 1)")
        if self.indptr.shape != (n + 1,):
            raise ValueError("indptr must hold one offset per row plus one")
        if self.indices.ndim != 1 or self.indices.shape != self.values.shape:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        counts = np.diff(self.indptr)
        if (self.indptr[0] != 0 or self.indptr[-1] != self.indices.size
                or np.any(counts < 0)):
            raise ValueError("indptr must rise from 0 to the number of stored values")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be +1 or -1")
        self.row_ids = np.repeat(np.arange(n), counts)
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.d:
                raise ValueError("feature index outside [0, d)")
            same_row = self.row_ids[1:] == self.row_ids[:-1]
            if np.any(same_row & (np.diff(self.indices) <= 0)):
                raise ValueError("feature indices must be strictly increasing within a row")
        if np.any(self.values == 0.0):
            raise ValueError("zero values must not be stored")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    @property
    def n(self):
        return self.labels.size

    @cached_property
    def block(self):
        """Read-only dense (n, d) copy of the signed rows, or None when the
        batch primitives read the CSR arrays. Built on first use when at least
        DENSE_PASS_FILL of the n*d entries are stored and n*d <= DENSE_LIMIT,
        so a dataset that is only split never densifies."""
        size = self.n * self.d
        if self.indices.size < self.DENSE_PASS_FILL * size or size > self.DENSE_LIMIT:
            return None
        x = self.dense()
        # the stored entries only, so the zeros stay +0.0
        x[self.row_ids, self.indices] *= -self.labels[self.row_ids]
        x.flags.writeable = False
        return x

    @cached_property
    def signed(self):
        """The stored values signed by their rows' labels, for the CSR passes;
        built on first use, so a dataset read through its block holds none."""
        return -self.labels[self.row_ids] * self.values

    def gather(self, rows=None):
        """The signed rows ``rows`` (every row when None), in row order, in
        the layout of the dataset: ``block[rows]`` on a dense block, else the
        ``signed`` values as (position in ``rows`` of each value's row,
        column, value). A ``Batch`` of ``plan`` returns the rows it carries;
        every row returns the block or the stored arrays, uncopied.
        """
        signed = getattr(rows, "signed", None)
        if signed is not None:
            return signed
        if rows is not None:
            return self._gather(np.asarray(rows, dtype=np.int64))
        block = self.block
        return (self.row_ids, self.indices, self.signed) if block is None else block

    def _gather(self, rows):
        block = self.block
        return self._csr_rows(rows, self.signed)[:3] if block is None else block[rows]

    def plan(self, schedule):
        """Yield the batches of ``schedule`` in order, each a ``Batch`` that
        carries its gathered signed rows, equal to a fresh gather. They are
        gathered ahead a chunk at a time: runs of full batches (rows of
        ``schedule.head``), or the tail batch, whose gathered rows take at
        most PLAN_BYTES (a batch past the bound on its own is a chunk of
        one), each in one pass, so a batch's rows are views of its chunk. A
        batch of every row carries the block or the stored arrays, uncopied.
        """
        if schedule.b == self.n:
            (batch,) = schedule.head.view(Batch)
            batch.signed = self.gather()
            yield batch
            return
        runs = [schedule.head]
        if len(schedule.batches) > len(schedule.head):
            runs.append(schedule.batches[-1][None, :])
        for rows in runs:
            ends = self._chunk_ends(rows)
            start = 0
            while start < len(rows):
                stop = max(int(ends[start]), start + 1)
                chunk = rows[start:stop]
                # each row of the Batch view is a Batch, read-only as the schedule
                for batch, signed in zip(chunk.view(Batch), self._gather_chunk(chunk)):
                    batch.signed = signed
                    yield batch
                start = stop

    def _chunk_ends(self, rows):
        """For each start k, the end of the longest chunk of the batches
        rows[k:] whose gathered rows take at most PLAN_BYTES."""
        if self.block is not None:
            cost = np.full(len(rows), 8 * rows[0].size * self.d)
        elif 24 * self.indices.size <= self.PLAN_BYTES:
            # three 8-byte arrays per stored value: all of them fit
            return np.full(len(rows), len(rows))
        else:
            cost = 24 * np.diff(self.indptr)[rows].sum(axis=1)
        cum = np.concatenate(([0], np.cumsum(cost)))
        return np.searchsorted(cum, cum + self.PLAN_BYTES, side="right") - 1

    def _gather_chunk(self, rows):
        """The signed rows of each batch of the (m, b) ``rows``, as views of
        one gather."""
        if self.block is not None:
            return list(self.block[rows])
        slots, cols, vals, counts = self._csr_rows(rows, self.signed)
        offsets = np.cumsum(counts.reshape(rows.shape).sum(axis=1)).tolist()
        return [(slots[i:j], cols[i:j], vals[i:j])
                for i, j in zip([0] + offsets[:-1], offsets)]

    def _csr_rows(self, rows, values):
        """The stored entries of the 1-d or (m, b) ``rows``, in order: (position
        of each entry's row along the last axis of ``rows``, column, value),
        and the number of entries of each row."""
        starts = self.indptr[rows].ravel()
        counts = self.indptr[rows + 1].ravel() - starts
        local = np.repeat(np.arange(rows.size) % rows.shape[-1], counts)
        # output slot j of row k reads position starts[k] + j - (slots before row k)
        shift = starts - (np.cumsum(counts) - counts)
        pos = np.arange(local.size) + np.repeat(shift, counts)
        return local, self.indices[pos], values[pos], counts

    def subset(self, idx):
        """New dataset from a sequence of row positions."""
        idx = np.asarray(idx, dtype=np.int64)
        _, cols, vals, counts = self._csr_rows(idx, self.values)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return Dataset(indptr, cols, vals, self.labels[idx], self.d)

    def dense(self):
        """Dense (n, d) matrix copy; intended for desk-scale problems only."""
        if self.n * self.d > self.DENSE_LIMIT:
            raise ValueError(
                f"dataset too large to densify (n*d > {self.DENSE_LIMIT})")
        x = np.zeros((self.n, self.d))
        x[self.row_ids, self.indices] = self.values
        return x


def parse_libsvm(text):
    """Parse LibSVM text (``<label> <idx>:<val> ...`` per line) into a Dataset.

    Labels <= 0 map to -1 and labels > 0 map to +1. Empty lines are skipped.
    Explicit zero values are dropped. Raises ParseError (with the offending
    line number) on malformed tokens, a non-finite label or value,
    non-increasing indices within a line, or a non-positive index; an input
    with no non-empty lines is also an error.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    indptr = [0]
    indices = []
    values = []
    labels = []
    d = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad label {tokens[0]!r}") from None
        if not math.isfinite(raw_label):
            raise ParseError(f"line {lineno}: non-finite label {tokens[0]!r}")
        prev = 0
        for token in tokens[1:]:
            idx_s, sep, val_s = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected idx:value, got {token!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: bad feature {token!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite value {token!r}")
            if idx < 1:
                raise ParseError(f"line {lineno}: index {idx} must be >= 1")
            if idx <= prev:
                raise ParseError(f"line {lineno}: non-increasing index {idx}")
            prev = idx
            if val != 0.0:
                indices.append(idx - 1)
                values.append(val)
        d = max(d, prev)
        indptr.append(len(indices))
        labels.append(1.0 if raw_label > 0 else -1.0)
    if not labels:
        raise ParseError("empty dataset: no non-empty lines")
    return Dataset(indptr, indices, values, labels, d)


def load_libsvm(path):
    with open(path, "rb") as fh:
        return parse_libsvm(fh.read())


def split_train_test(ds, train_fraction, seed):
    """Deterministic shuffled split; train gets round(train_fraction * n) rows.

    The row count is clamped so that both parts stay non-empty. Both children
    inherit ``d`` from the parent.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if ds.n < 2:
        raise ValueError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    n_train = int(math.floor(train_fraction * ds.n + 0.5))
    n_train = min(max(n_train, 1), ds.n - 1)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


@dataclass(eq=False)
class BatchSchedule:
    """A random partition of {0..n-1} into m = ceil(n/b) visit-ordered
    batches: the n // b full batches, the rows of ``head``, then a shorter
    tail when b does not divide n."""

    batches: list
    b: int
    m: int
    head: np.ndarray


def make_schedule(n, b, seed, epoch=0):
    """Mini-batch schedule for one epoch, derived deterministically from
    (seed, epoch).

    Each epoch gets a fresh uniform shuffle, chunked into m = ceil(n/b)
    batches; all batches have size b except possibly the last. Indices within
    a batch are sorted (set semantics, deterministic summation order).
    Batches are read-only: a ``Batch`` of ``Dataset.plan`` is a view of
    them, and its rows must not drift from the signed rows it carries.
    """
    if b < 1 or b > n:
        raise ValueError(f"batch size {b} out of range [1, {n}]")
    if seed < 0 or epoch < 0:
        raise ValueError("seed and epoch must be non-negative")
    rng = np.random.default_rng([seed, epoch])
    perm = rng.permutation(n)
    m = -(-n // b)
    full = n // b
    # the full batches are the rows of one sorted array; its views are
    # read-only with it
    head = np.sort(perm[:full * b].reshape(full, b), axis=1)
    head.flags.writeable = False
    batches = list(head)
    if full < m:
        tail = np.sort(perm[full * b:])
        tail.flags.writeable = False
        batches.append(tail)
    return BatchSchedule(batches, b, m, head)


def make_synthetic(n, d, seed=0, flip=0.0, margin=0.0):
    """Gaussian-feature binary dataset with a planted weight vector.

    Labels are sign(x . w_true) with sign(0) -> +1. Two separability knobs:
    ``margin`` > 0 shifts every point's component along the planted direction
    so that all planted margins are at least ``margin`` (an easier,
    well-separated problem); ``flip`` negates that fraction of the labels
    afterwards (label noise). The defaults give a plain separable problem.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if not 0.0 <= flip <= 1.0:
        raise ValueError("flip must be in [0, 1]")
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    if margin > 0.0:
        u = w_true / np.linalg.norm(w_true)
        along = x @ u
        signs = np.where(along >= 0.0, 1.0, -1.0)
        x = x + np.outer(signs * (np.abs(along) + margin) - along, u)
        labels = signs
    else:
        labels = np.where(x @ w_true >= 0.0, 1.0, -1.0)
    n_flip = int(round(flip * n))
    if n_flip:
        labels = labels.copy()
        labels[rng.choice(n, size=n_flip, replace=False)] *= -1.0
    rows, cols = np.nonzero(x)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(x, axis=1))))
    return Dataset(indptr, cols, x[rows, cols], labels, d)
