"""Purity suite for :mod:`repro.kernels`.

The kernels module carries one behavioural contract beyond numerics:
every entry point is a pure function over arrays -- it must run on
``writeable=False`` inputs (the shape mmap-backed snapshot views arrive
in) and must leave every input bit-identical. Each kernel is exercised
twice here: once on frozen arrays (any in-place write raises), once
under hypothesis with byte-level before/after comparison on writeable
arrays (catching writes that frozen flags alone would mask, e.g. through
a scipy matrix aliasing the input buffer).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels


def _freeze(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _snapshot_bytes(arrays):
    return [array.tobytes() for array in arrays]


def _assert_unchanged(arrays, before):
    for array, expected in zip(arrays, before):
        assert array.tobytes() == expected, "kernel mutated an input"


def _transition(rng, n, dangling_share=0.3, density=1.0):
    """A random row-stochastic matrix whose all-zero rows dangle."""
    matrix = rng.rand(n, n)
    matrix[rng.rand(n, n) >= density] = 0.0
    matrix[rng.rand(n) < dangling_share] = 0.0
    out_weights = matrix.sum(axis=1)
    dangling = out_weights == 0
    safe = np.where(dangling, 1.0, out_weights)
    return matrix / safe[:, None], dangling


def _restarts(rng, k, n):
    """*k* normalised restart rows, from nearly flat to sharply peaked,
    so that the rows converge after different numbers of steps."""
    weights = rng.rand(k, n) ** rng.uniform(0.5, 8.0, size=(k, 1))
    weights += 1e-12
    return weights / weights.sum(axis=1, keepdims=True)


def _reference_pagerank(transition, restart, dangling, damping, cap, tol):
    """The one-vector power iteration the batched kernel replaced,
    expression for expression: the bit-exact reference for K=1."""
    n = transition.shape[0]
    rank = restart.copy()
    iterations = 0
    for _ in range(cap):
        iterations += 1
        new_rank = damping * (rank @ transition)
        if dangling.any():
            new_rank = new_rank + restart * (damping * rank[dangling].sum())
        new_rank = new_rank + (1.0 - damping) * restart
        converged = np.abs(new_rank - rank).sum() < tol * n
        rank = new_rank
        if converged:
            break
    return rank / rank.sum(), iterations


def _bm25_fixture():
    """A small but non-trivial postings layout (3 docs, 4 terms)."""
    ids_cat = np.array([0, 1, 1, 2, 0, 3, 3, 3, 2], dtype=np.int64)
    row_lengths = [4, 2, 3]
    return ids_cat, row_lengths


@st.composite
def _retrieval(draw):
    """Random ``bm25_rank`` inputs: per-term postings over a few docs
    (terms may repeat), per-term idf, doc lengths and distinct keys."""
    n = draw(st.integers(min_value=1, max_value=12))
    lengths = draw(
        st.lists(st.integers(0, 30), min_size=n, max_size=n)
    )
    terms = draw(st.integers(min_value=0, max_value=4))
    postings, idf = [], []
    for _ in range(terms):
        docs = sorted(
            draw(st.sets(st.integers(0, n - 1), max_size=n))
        )
        postings.append(
            (
                np.array(docs, dtype=np.int64),
                np.array(
                    [draw(st.integers(1, 5)) for _ in docs], dtype=np.int32
                ),
            )
        )
        idf.append(draw(st.floats(0.01, 4.0)))
    if terms and draw(st.booleans()):
        postings.append(postings[0])  # a duplicated query term
        idf.append(idf[0])
    keys = np.array(
        draw(st.permutations(range(0, 3 * n, 3))), dtype=np.int64
    )
    return (
        postings,
        idf,
        np.array(lengths, dtype=np.int64),
        draw(st.floats(0.5, 20.0)),
        draw(st.sampled_from((0.0, 0.9, 1.2, 1.5))),
        draw(st.sampled_from((0.0, 0.5, 0.75, 1.0))),
        keys,
        draw(st.integers(1, 2 * n)),
    )


def _reference_rank(postings, idf, lengths, avgdl, k1, b, keys, limit):
    """The per-posting loop ``bm25_rank`` replaced, as ``(row, score)``."""
    import heapq

    scores = {}
    for (rows, tf), weight in zip(postings, idf):
        for row, freq in zip(rows.tolist(), tf.tolist()):
            norm = k1 * (1.0 - b + b * int(lengths[row]) / avgdl)
            scores[row] = scores.get(row, 0.0) + (
                weight * freq * (k1 + 1.0) / (freq + norm)
            )
    top = heapq.nlargest(
        limit, scores.items(), key=lambda kv: (kv[1], -keys[kv[0]])
    )
    return [(row, score) for row, score in top]


class TestFrozenInputs:
    """Every kernel runs on writeable=False arrays without writing."""

    def test_bm25_build(self):
        ids_cat, row_lengths = _bm25_fixture()
        _freeze(ids_cat)
        indptr, cols, doc_data, query_data, idf, avgdl = (
            kernels.bm25_build(ids_cat, row_lengths, 4, 1.2, 0.75)
        )
        assert indptr[-1] == len(cols) == len(doc_data)
        assert avgdl == pytest.approx(3.0)

    def test_bm25_saturate(self):
        tf = np.array([1.0, 2.0, 1.0], dtype=np.float64)
        rows = np.array([0, 0, 1], dtype=np.int64)
        doc_lengths = np.array([3.0, 2.0], dtype=np.float64)
        _freeze(tf, rows, doc_lengths)
        out = kernels.bm25_saturate(tf, rows, doc_lengths, 2.5, 1.2, 0.75)
        assert out.shape == tf.shape
        assert not np.shares_memory(out, tf)

    def test_csr_matvec(self):
        data = np.array([1.0, 2.0, 3.0], dtype=np.float64)
        indices = np.array([0, 2, 1], dtype=np.int32)
        indptr = np.array([0, 2, 3], dtype=np.int32)
        vector = np.array([1.0, 1.0, 1.0], dtype=np.float64)
        _freeze(data, indices, indptr, vector)
        out = kernels.csr_matvec(data, indices, indptr, (2, 3), vector)
        assert out.tolist() == [3.0, 3.0]

    def test_bm25_day_matrix(self):
        ids_cat, row_lengths = _bm25_fixture()
        indptr, cols, doc_data, query_data, _, _ = kernels.bm25_build(
            ids_cat, row_lengths, 4, 1.2, 0.75
        )
        _freeze(indptr, cols, doc_data, query_data)
        matrix = kernels.bm25_day_matrix(
            query_data, doc_data, cols, indptr, (3, 4)
        )
        assert matrix.shape == (3, 3)
        assert np.diagonal(matrix).tolist() == [0.0, 0.0, 0.0]

    def test_pagerank_iterate(self):
        transition = np.array(
            [[0.0, 1.0], [0.5, 0.5]], dtype=np.float64
        )
        restart = np.full(2, 0.5)
        dangling = np.zeros(2, dtype=bool)
        _freeze(transition, restart, dangling)
        rank, iterations = kernels.pagerank_iterate(
            transition, restart, dangling, 0.85, 200, 1e-10
        )
        assert rank.sum() == pytest.approx(1.0)
        assert iterations >= 1

    def test_redundancy_accept(self):
        # Two identical unit rows + one orthogonal: positions 0 and 2
        # survive, position 1 is redundant against 0.
        data = np.array([1.0, 1.0, 1.0], dtype=np.float64)
        indices = np.array([0, 0, 1], dtype=np.int32)
        indptr = np.array([0, 1, 2, 3], dtype=np.int32)
        _freeze(data, indices, indptr)
        accepted = kernels.redundancy_accept(
            data, indices, indptr, 3, 2, None, None, None, 0, 0.5
        )
        assert accepted == [0, 2]

    def test_bm25_rank(self):
        rows = np.array([0, 2], dtype=np.int64)
        tf = np.array([1, 3], dtype=np.int32)
        lengths = np.array([4, 2, 3], dtype=np.int64)
        candidates = np.array([0, 2], dtype=np.int64)
        keys = np.array([9, 8, 7], dtype=np.int64)
        _freeze(rows, tf, lengths, candidates, keys)
        ranked, scores = kernels.bm25_rank(
            [(rows, tf)], [0.7], lengths, 3.0, 1.2, 0.75, candidates, 5,
            keys=keys,
        )
        assert ranked.tolist() == [2, 0]
        assert scores[0] > scores[1] > 0.0


class TestBitUnchangedInputs:
    """Byte-level before/after equality on writeable inputs.

    Frozen flags catch direct writes but not mutation through an alias
    (e.g. a scipy csr_matrix wrapping the caller's data buffer and
    sorting it in place); comparing raw bytes catches both.
    """

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=5),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_bm25_build_and_day_matrix(self, docs):
        ids_cat = np.array(
            [t for doc in docs for t in doc], dtype=np.int64
        )
        row_lengths = [len(doc) for doc in docs]
        inputs = (ids_cat,)
        before = _snapshot_bytes(inputs)
        indptr, cols, doc_data, query_data, _, _ = kernels.bm25_build(
            ids_cat, row_lengths, 6, 1.2, 0.75
        )
        _assert_unchanged(inputs, before)

        stage2 = (indptr, cols, doc_data, query_data)
        before2 = _snapshot_bytes(stage2)
        kernels.bm25_day_matrix(
            query_data, doc_data, cols, indptr, (len(docs), 6)
        )
        _assert_unchanged(stage2, before2)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_pagerank_iterate(self, n, seed):
        rng = np.random.RandomState(seed)
        matrix = rng.rand(n, n)
        matrix[rng.rand(n) < 0.3] = 0.0  # some dangling rows
        out_weights = matrix.sum(axis=1)
        dangling = out_weights == 0
        safe = np.where(dangling, 1.0, out_weights)
        transition = matrix / safe[:, None]
        restart = np.full(n, 1.0 / n)
        inputs = (transition, restart, dangling)
        before = _snapshot_bytes(inputs)
        rank, _ = kernels.pagerank_iterate(
            transition, restart, dangling, 0.85, 100, 1e-10
        )
        _assert_unchanged(inputs, before)
        assert rank.sum() == pytest.approx(1.0)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_pagerank_iterate_block(self, n, k, seed):
        rng = np.random.RandomState(seed)
        transition, dangling = _transition(rng, n)
        restart = _restarts(rng, k, n)
        inputs = _freeze(transition, restart, dangling)
        before = _snapshot_bytes(inputs)
        ranks, counts = kernels.pagerank_iterate(
            transition, restart, dangling, 0.85, 100, 1e-10
        )
        _assert_unchanged(inputs, before)
        assert ranks.shape == (k, n) and counts.shape == (k,)
        np.testing.assert_allclose(ranks.sum(axis=1), 1.0)

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, width=32),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        ),
        st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_redundancy_accept(self, rows, threshold):
        from scipy import sparse

        dense = np.asarray(rows, dtype=np.float64)
        norms = np.linalg.norm(dense, axis=1, keepdims=True)
        dense = np.divide(
            dense, norms, out=np.zeros_like(dense), where=norms > 0
        )
        candidates = sparse.csr_matrix(dense)
        inputs = (
            candidates.data.copy(),
            candidates.indices.copy(),
            candidates.indptr.copy(),
        )
        before = _snapshot_bytes(inputs)
        kernels.redundancy_accept(
            inputs[0], inputs[1], inputs[2],
            dense.shape[0], dense.shape[1],
            None, None, None, 0, threshold,
        )
        _assert_unchanged(inputs, before)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_csr_matvec_and_saturate(self, values):
        data = np.asarray(values, dtype=np.float64)
        indices = np.arange(len(values), dtype=np.int32)
        indptr = np.array([0, len(values)], dtype=np.int64)
        vector = np.ones(len(values), dtype=np.float64)
        inputs = (data, indices, indptr, vector)
        before = _snapshot_bytes(inputs)
        kernels.csr_matvec(
            data, indices, indptr, (1, len(values)), vector
        )
        _assert_unchanged(inputs, before)

        rows = np.zeros(len(values), dtype=np.int64)
        doc_lengths = np.array([float(len(values))])
        inputs2 = (data, rows, doc_lengths)
        before2 = _snapshot_bytes(inputs2)
        kernels.bm25_saturate(
            data, rows, doc_lengths, max(doc_lengths[0], 1.0), 1.2, 0.75
        )
        _assert_unchanged(inputs2, before2)

    @given(_retrieval())
    @settings(max_examples=40, deadline=None)
    def test_bm25_rank(self, case):
        postings, idf, lengths, avgdl, k1, b, keys, limit = case
        candidates = np.arange(len(lengths))
        inputs = [a for pair in postings for a in pair] + [
            lengths, keys, candidates,
        ]
        before = _snapshot_bytes(inputs)
        kernels.bm25_rank(
            postings, idf, lengths, avgdl, k1, b, candidates, limit,
            keys=keys,
        )
        _assert_unchanged(inputs, before)


class TestBatchedPageRank:
    """A ``(K, n)`` restart block is its K rows run one at a time.

    Bit for bit: every batched row is ``np.array_equal`` to the K=1 run
    of that row, after the same number of iterations -- also when a cap
    stops some rows while others have already converged -- and every
    K=1 run equals the one-vector reference loop.
    """

    @staticmethod
    def _assert_rows_run_alone(transition, restarts, dangling, cap):
        ranks, counts = kernels.pagerank_iterate(
            transition, restarts, dangling, 0.85, cap, 1e-10
        )
        assert ranks.shape == restarts.shape
        for row, restart in enumerate(restarts):
            alone, iterations = kernels.pagerank_iterate(
                transition, restart, dangling, 0.85, cap, 1e-10
            )
            assert np.array_equal(ranks[row], alone), row
            assert counts[row] == iterations, row
            expected, steps = _reference_pagerank(
                transition, restart, dangling, 0.85, cap, 1e-10
            )
            assert np.array_equal(alone, expected), row
            assert iterations == steps, row
        return counts

    @given(
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_match_single_runs(self, n, k, seed, capped):
        rng = np.random.RandomState(seed)
        transition, dangling = _transition(
            rng,
            n,
            dangling_share=rng.uniform(0.0, 0.5),
            density=rng.uniform(0.02, 1.0),
        )
        restarts = _restarts(rng, k, n)
        cap = 200
        if capped:
            # The median row's own count: rows slower than it hit the
            # cap, the others converge at or before it.
            free = sorted(
                kernels.pagerank_iterate(
                    transition, restart, dangling, 0.85, cap, 1e-10
                )[1]
                for restart in restarts
            )
            cap = free[k // 2]
        self._assert_rows_run_alone(transition, restarts, dangling, cap)

    def test_cap_splits_the_block(self):
        rng = np.random.RandomState(3)
        transition, dangling = _transition(rng, 70, dangling_share=0.3)
        restarts = _restarts(rng, 14, 70)
        free = self._assert_rows_run_alone(
            transition, restarts, dangling, 200
        )
        cap = int(np.median(free))
        counts = self._assert_rows_run_alone(
            transition, restarts, dangling, cap
        )
        assert counts.min() < cap == counts.max()

    def test_one_row_block_matches_vector(self):
        rng = np.random.RandomState(5)
        transition, dangling = _transition(rng, 16)
        restart = _restarts(rng, 1, 16)
        block, counts = kernels.pagerank_iterate(
            transition, restart, dangling, 0.85, 200, 1e-10
        )
        vector, iterations = kernels.pagerank_iterate(
            transition, restart[0], dangling, 0.85, 200, 1e-10
        )
        assert vector.shape == (16,) and isinstance(iterations, int)
        assert np.array_equal(block[0], vector)
        assert counts.tolist() == [iterations]

    def test_zero_iterations_returns_the_restarts(self):
        rng = np.random.RandomState(9)
        transition, dangling = _transition(rng, 5)
        restarts = _restarts(rng, 3, 5)
        ranks, counts = kernels.pagerank_iterate(
            transition, restarts, dangling, 0.85, 0, 1e-10
        )
        np.testing.assert_allclose(ranks, restarts)
        assert counts.tolist() == [0, 0, 0]


class TestBM25Rank:
    """``bm25_rank`` equals the per-posting loop it replaced, bit for bit."""

    @given(_retrieval())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_posting_loop(self, case):
        postings, idf, lengths, avgdl, k1, b, keys, limit = case
        touched = sorted({r for rows, _ in postings for r in rows.tolist()})
        ranked, scores = kernels.bm25_rank(
            postings, idf, lengths, avgdl, k1, b,
            np.array(touched, dtype=np.int64), limit, keys=keys,
        )
        assert list(zip(ranked.tolist(), scores.tolist())) == (
            _reference_rank(postings, idf, lengths, avgdl, k1, b, keys,
                            limit)
        )

    def test_ties_break_by_key_then_limit(self):
        rows = np.array([0, 1, 2], dtype=np.int64)
        tf = np.ones(3, dtype=np.int32)
        lengths = np.full(3, 5, dtype=np.int64)
        ranked, scores = kernels.bm25_rank(
            [(rows, tf)], [1.0], lengths, 5.0, 1.2, 0.75, rows, 2
        )
        assert ranked.tolist() == [0, 1] and scores[0] == scores[1]
        ranked, _ = kernels.bm25_rank(
            [(rows, tf)], [1.0], lengths, 5.0, 1.2, 0.75, rows, 2,
            keys=np.array([5, 9, 1], dtype=np.int64),
        )
        assert ranked.tolist() == [2, 0]

    def test_an_untouched_candidate_scores_zero(self):
        # A merger ranks every hit it received, matched or not.
        rows = np.array([1], dtype=np.int64)
        ranked, scores = kernels.bm25_rank(
            [(rows, np.array([2], dtype=np.int32))], [0.5],
            np.array([3, 3], dtype=np.int64), 3.0, 1.2, 0.75,
            np.arange(2), 10,
        )
        assert ranked.tolist() == [1, 0]
        assert scores[1] == 0.0


class TestKernelSemantics:
    """Numeric spot checks against the classic formulations."""

    def test_bm25_build_matches_reference_idf(self):
        import math

        ids_cat, row_lengths = _bm25_fixture()
        _, cols, _, _, idf, _ = kernels.bm25_build(
            ids_cat, row_lengths, 4, 1.2, 0.75
        )
        # Token 0 appears in docs 0 and 1 -> df = 2 of 3.
        expected = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
        assert idf[0] == pytest.approx(expected)

    def test_csr_matvec_matches_scipy(self):
        from scipy import sparse

        rng = np.random.RandomState(7)
        dense = rng.rand(4, 5)
        dense[dense < 0.5] = 0.0
        matrix = sparse.csr_matrix(dense)
        vector = rng.rand(5)
        out = kernels.csr_matvec(
            matrix.data, matrix.indices, matrix.indptr,
            matrix.shape, vector,
        )
        np.testing.assert_allclose(out, dense @ vector)

    def test_pagerank_uniform_on_complete_graph(self):
        n = 4
        transition = np.full((n, n), 1.0 / n)
        restart = np.full(n, 1.0 / n)
        dangling = np.zeros(n, dtype=bool)
        rank, _ = kernels.pagerank_iterate(
            transition, restart, dangling, 0.85, 200, 1e-12
        )
        np.testing.assert_allclose(rank, restart)

    def test_redundancy_accept_against_pool(self):
        from scipy import sparse

        accepted_pool = sparse.csr_matrix(
            np.array([[1.0, 0.0]], dtype=np.float64)
        )
        candidates = sparse.csr_matrix(
            np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float64)
        )
        accepted = kernels.redundancy_accept(
            candidates.data, candidates.indices, candidates.indptr,
            2, 2,
            accepted_pool.data, accepted_pool.indices,
            accepted_pool.indptr, 1,
            0.5,
        )
        assert accepted == [1]
