from itertools import chain

import numpy as np
import pytest

from saag.data import (Dataset, ParseError, make_schedule,
                       make_synthetic, parse_libsvm, split_train_test)


def dump_libsvm(ds):
    """LibSVM text of a Dataset, with an exact float round trip."""
    lines = []
    for i, y in enumerate(ds.labels):
        part = slice(ds.indptr[i], ds.indptr[i + 1])
        label = "+1" if y > 0 else "-1"
        feats = " ".join(f"{j + 1}:{float(v)!r}"
                         for j, v in zip(ds.indices[part], ds.values[part]))
        lines.append(f"{label} {feats}".rstrip())
    return "\n".join(lines) + "\n"


def row(ds, i):
    part = slice(ds.indptr[i], ds.indptr[i + 1])
    return list(ds.indices[part]), list(ds.values[part])


def same_data(a, b):
    return (a.d == b.d and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values)
            and np.array_equal(a.labels, b.labels))


def test_parse_basic():
    ds = parse_libsvm("+1 1:1.0 3:-2.5\n-1 2:0.5")
    assert ds.n == 2
    assert ds.d == 3
    assert list(ds.labels) == [1.0, -1.0]
    # LibSVM indices are 1-based, stored columns 0-based
    assert row(ds, 0) == ([0, 2], [1.0, -2.5])
    assert row(ds, 1) == ([1], [0.5])


def test_parse_label_mapping():
    # any label <= 0 maps to -1, > 0 maps to +1
    ds = parse_libsvm("0 1:1\n-3 1:1\n2 1:1\n0.5 1:1")
    assert list(ds.labels) == [-1.0, -1.0, 1.0, 1.0]


def test_parse_skips_empty_lines_and_drops_zeros():
    ds = parse_libsvm("\n+1 1:1.0 2:0.0 3:2.0\n\n-1 1:4.0\n")
    assert ds.n == 2
    assert row(ds, 0)[0] == [0, 2]
    assert ds.d == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="empty dataset"):
        parse_libsvm("")
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm("1 2:abc")
    with pytest.raises(ParseError, match="line 2"):
        parse_libsvm("+1 1:1\n-1 3:1 2:1")  # non-increasing
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm("+1 0:1")  # zero index
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm("abc 1:1")
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm("+1 11")  # missing colon


def test_roundtrip_exact():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 9))
        lines = []
        for _ in range(n):
            nnz = int(rng.integers(0, d + 1))
            idx = np.sort(rng.choice(d, size=nnz, replace=False)) + 1
            vals = rng.standard_normal(nnz)
            vals[vals == 0.0] = 1.0
            label = "+1" if rng.random() < 0.5 else "-1"
            lines.append(label + "".join(f" {i}:{float(v)!r}" for i, v in zip(idx, vals)))
        ds = parse_libsvm("\n".join(lines))
        ds2 = parse_libsvm(dump_libsvm(ds))
        assert ds2.n == ds.n and same_data(ds, ds2)


def test_csr_row_invariants():
    def one_row(indices, values):
        return Dataset([0, len(indices)], indices, values, [1.0], d=3)

    one_row([0, 2], [1.0, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        one_row([1, 1], [1.0, 2.0])  # repeated index
    with pytest.raises(ValueError, match="increasing"):
        one_row([2, 1], [1.0, 2.0])  # decreasing index
    with pytest.raises(ValueError, match="outside"):
        one_row([-1], [1.0])  # negative index
    with pytest.raises(ValueError, match="zero"):
        one_row([1], [0.0])  # stored zero
    # indices restart at every row boundary
    Dataset([0, 2, 3], [1, 2, 0], [1.0, 1.0, 1.0], [1.0, -1.0], d=3)
    with pytest.raises(ValueError, match="increasing"):
        Dataset([0, 3], [1, 2, 0], [1.0, 1.0, 1.0], [1.0], d=3)


def test_parse_rejects_non_finite_labels_and_values():
    for text, line in (("+1 1:1\nnan 1:1", 2), ("+1 1:nan", 1), ("-1 1:1\n+1 2:inf", 2),
                       ("+1 1:-inf", 1), ("inf 1:1", 1), ("\n\n-1 1:1 2:NaN", 3)):
        with pytest.raises(ParseError, match=f"line {line}: non-finite"):
            parse_libsvm(text)


def test_dataset_rejects_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Dataset([0, 2], [0, 1], [1.0, bad], [1.0], d=2)


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset([0, 1], [1], [1.0], [1.0], d=1)  # index exceeds d
    with pytest.raises(ValueError):
        Dataset([0, 1], [1], [1.0], [2.0], d=2)  # bad label
    with pytest.raises(ValueError):
        Dataset([0], [], [], [], d=2)  # no rows
    with pytest.raises(ValueError):
        Dataset([0, 1], [1], [1.0], [1.0, -1.0], d=2)  # indptr/label mismatch
    with pytest.raises(ValueError):
        Dataset([0, 2], [1], [1.0], [1.0], d=2)  # indptr past the values
    with pytest.raises(ValueError):
        Dataset([0, 1], [0, 1], [1.0], [1.0], d=2)  # indices/values mismatch
    with pytest.raises(ValueError, match=r"at least one feature \(d >= 1\)"):
        Dataset([0, 0], [], [], [1.0], d=0)
    with pytest.raises(ValueError, match=r"at least one feature \(d >= 1\)"):
        parse_libsvm("+1\n-1\n")  # a label-only file names no feature


def test_split_cardinality_and_union():
    ds = make_synthetic(10, 3, seed=0)
    train, test = split_train_test(ds, 0.8, seed=7)
    assert train.n == 8 and test.n == 2
    assert train.d == ds.d and test.d == ds.d
    # union is a permutation of the input rows, labels included
    def rows_of(part):
        return sorted(map(tuple, np.column_stack([part.dense(), part.labels])))

    assert sorted(rows_of(train) + rows_of(test)) == rows_of(ds)


def test_split_tiny_and_determinism():
    ds = make_synthetic(2, 2, seed=1)
    a, b = split_train_test(ds, 0.5, seed=3)
    assert a.n == 1 and b.n == 1
    ds10 = make_synthetic(10, 3, seed=2)
    t1, s1 = split_train_test(ds10, 0.8, seed=5)
    t2, s2 = split_train_test(ds10, 0.8, seed=5)
    assert same_data(t1, t2) and same_data(s1, s2)


def test_split_errors():
    ds = make_synthetic(10, 3, seed=0)
    with pytest.raises(ValueError):
        split_train_test(ds, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_train_test(ds, 1.0, seed=0)
    one = make_synthetic(1, 2, seed=0)
    with pytest.raises(ValueError):
        split_train_test(one, 0.5, seed=0)


def test_schedule_partition_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        b = int(rng.integers(1, n + 1))
        sched = make_schedule(n, b, seed=int(rng.integers(1000)),
                              epoch=int(rng.integers(5)))
        assert sched.m == -(-n // b)
        allidx = np.concatenate(sched.batches)
        assert sorted(allidx) == list(range(n))
        sizes = {len(batch) for batch in sched.batches}
        assert sizes <= {b, n - (sched.m - 1) * b}


def test_schedule_examples_and_determinism():
    s = make_schedule(6, 2, seed=0)
    assert s.m == 3 and all(len(batch) == 2 for batch in s.batches)
    s = make_schedule(10, 3, seed=0)
    assert s.m == 4 and sorted(len(batch) for batch in s.batches) == [1, 3, 3, 3]
    s = make_schedule(5, 5, seed=0)
    assert s.m == 1 and list(s.batches[0]) == [0, 1, 2, 3, 4]
    a = make_schedule(20, 3, seed=4, epoch=2)
    b = make_schedule(20, 3, seed=4, epoch=2)
    assert all(np.array_equal(x, y) for x, y in zip(a.batches, b.batches))
    c = make_schedule(20, 3, seed=4, epoch=3)
    assert any(not np.array_equal(x, y) for x, y in zip(a.batches, c.batches))


def test_schedule_batches_are_read_only():
    for batch in make_schedule(10, 3, seed=1).batches:
        assert not batch.flags.writeable
        with pytest.raises(ValueError):
            batch[0] = 0


def test_schedule_batches_are_the_sorted_chunks_of_the_shuffle():
    # reference: sort each chunk of the epoch's permutation on its own
    n = 20
    for b in (1, 3, 7, n):
        for seed, epoch in ((0, 0), (5, 3)):
            perm = np.random.default_rng([seed, epoch]).permutation(n)
            want = [np.sort(perm[k:k + b]) for k in range(0, n, b)]
            got = make_schedule(n, b, seed, epoch).batches
            assert len(got) == len(want)
            for batch, chunk in zip(got, want):
                assert batch.dtype == chunk.dtype
                assert np.array_equal(batch, chunk)
                assert not batch.flags.writeable
                with pytest.raises(ValueError):
                    batch[0] = 0


def _parts(gathered):
    """The arrays of a gather: the rows of a dense block, or the CSR triple
    (the row count that follows it is no array)."""
    return [gathered] if isinstance(gathered, np.ndarray) else list(gathered[:3])


def _chunk(view):
    """The arrays a planned view is part of: its chunk's gathered rows."""
    roots = []
    for a in _parts(view):
        while a.base is not None:
            a = a.base
        roots.append(a)
    return roots


def test_plan_pairs_read_only_row_ids_with_views_of_one_gather(monkeypatch):
    for fill in (0.0, 2.0):     # a dense block, then the CSR arrays
        monkeypatch.setattr(Dataset, "DENSE_PASS_FILL", fill)
        ds = make_synthetic(6, 3, seed=0)
        assert (ds.block is None) == (fill > 1.0)
        schedule = make_schedule(6, 2, seed=0)
        pairs = list(chain.from_iterable(ds.plan(schedule)))
        # the schedule's batches in order, as plain read-only row ids, each
        # with its signed rows, bit-equal to a fresh gather
        assert len(pairs) == schedule.m
        for (rows, x), want in zip(pairs, schedule.batches):
            assert type(rows) is np.ndarray and rows.dtype == np.int64
            assert np.array_equal(rows, want)
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[0] = 0
            fresh = ds.gather(rows)
            assert all(a.dtype == b.dtype and np.array_equal(a, b)
                       for a, b in zip(_parts(x), _parts(fresh)))
            if fill > 1.0:      # a CSR operand carries its row count
                assert x[3] == fresh[3] == len(rows)
        rows, x = pairs[0]
        # the whole schedule is one chunk: every batch is a view of one gather
        gathered = _chunk(x)
        assert all(np.shares_memory(a, g) for a, g in zip(_parts(x), gathered))
        assert all(a is g for _, other in pairs
                   for a, g in zip(_chunk(other), gathered))
        # the dataset keeps no per-batch state, only its stored layout
        layout = {"block"} | ({"signed"} if fill > 1.0 else set())
        assert set(vars(ds)) == {"indptr", "indices", "values", "labels", "d",
                                 "row_ids"} | layout
        # a gather of the same rows is a fresh copy
        assert not any(np.shares_memory(a, g)
                       for a, g in zip(_parts(ds.gather(rows)), gathered))
        # a row array that changed gathers its own rows
        changed = np.array(rows)
        changed[1] = 3 if rows[1] != 3 else 4
        assert all(np.array_equal(a, b) for a, b in
                   zip(_parts(ds.gather(changed)), _parts(ds.subset(changed).gather())))
        # a schedule of one batch of every row carries the stored layout,
        # uncopied
        whole = make_schedule(6, 6, seed=0)
        ((rows, x),) = chain.from_iterable(ds.plan(whole))
        assert np.array_equal(rows, whole.batches[0]) and not rows.flags.writeable
        every = _parts(x)
        assert all(a is b for a, b in zip(every, _parts(ds.gather())))
        assert every[0] is (ds.block if fill == 0.0 else ds.row_ids)


def test_split_keeps_no_gathered_copy_in_the_parent():
    ds = make_synthetic(20, 4, seed=0)
    train, _ = split_train_test(ds, 0.5, seed=1)
    # the dense block and the signed values are built on the first gather,
    # not on a split
    assert "block" not in vars(ds) and "signed" not in vars(ds)
    assert train.gather() is train.block is not None
    # a dataset read through its block holds no signed CSR copy
    assert "signed" not in vars(train)
    every = np.arange(ds.n)
    every.flags.writeable = False
    ds.subset(every)
    assert "block" not in vars(ds) and "signed" not in vars(ds)


def test_schedule_errors():
    with pytest.raises(ValueError):
        make_schedule(5, 0, seed=0)
    with pytest.raises(ValueError):
        make_schedule(5, 6, seed=0)


def test_synthetic_generator():
    ds = make_synthetic(50, 4, seed=0)
    assert ds.n == 50 and ds.d == 4
    assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
    flipped = make_synthetic(50, 4, seed=0, flip=0.1)
    assert int(np.sum(flipped.labels != ds.labels)) == 5
    # margin variant keeps a genuine separating direction
    wide = make_synthetic(50, 4, seed=0, margin=2.0)
    dense = wide.dense()
    rng = np.random.default_rng(0)
    rng.standard_normal((50, 4))
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    margins = wide.labels * (dense @ u)
    assert np.all(margins >= 2.0 - 1e-9)
