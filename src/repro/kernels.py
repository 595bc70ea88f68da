"""Hot numeric kernels over plain arrays (the compiled-later tier).

Every performance-critical inner computation of the pipeline lives here
as a pure function over array arguments:

* :func:`bm25_build` -- per-document BM25 factor matrices (CSR triples)
  from concatenated token-id arrays, the core of
  :class:`repro.text.bm25.BM25`;
* :func:`bm25_saturate` -- the saturated document-side BM25 factor of
  :func:`bm25_build`;
* :func:`csr_matvec` -- BM25 score accumulation (one sparse
  matrix-vector product over CSR postings statistics);
* :func:`bm25_day_matrix` -- the all-pairs BM25 TextRank adjacency of a
  day's sentences (``Q @ S.T`` with a zeroed diagonal);
* :func:`pagerank_iterate` -- the buffered PageRank power iteration;
* :func:`redundancy_accept` -- the CSR-batched cross-date redundancy
  check of the post-processing round-robin.

The contract, enforced by ``tests/test_kernels.py``:

* **inputs are never mutated** -- every function runs correctly on
  ``writeable=False`` arrays, which is what lets the zero-copy snapshot
  tier (:mod:`repro.search.snapshot`, ``mode="mmap"``) hand read-only
  ``MAP_SHARED`` views straight into the hot paths;
* **scratch is allocated explicitly** -- any buffer a kernel writes to
  is created inside the kernel (or is the returned result);
* **numerics are bit-identical** to the expression forms these kernels
  replaced: callers' golden/equivalence tests hold across the refactor.

Keeping the kernels free of Python-object traffic (no dicts, no strings,
no scipy-object ownership beyond locally constructed matrices) is what
would let a numba/Cython build drop in behind the same signatures.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "bm25_build",
    "bm25_saturate",
    "csr_matvec",
    "bm25_day_matrix",
    "pagerank_iterate",
    "redundancy_accept",
]


def bm25_saturate(
    tf: np.ndarray,
    entry_rows: np.ndarray,
    doc_lengths: np.ndarray,
    avgdl: float,
    k1: float,
    b: float,
) -> np.ndarray:
    """Saturated document-side BM25 factors for CSR entry data.

    ``result[e] = tf[e] * (k1 + 1) / (tf[e] + norm[entry_rows[e]])``
    with ``norm[d] = k1 * (1 - b + b * doc_lengths[d] / avgdl)`` -- the
    per-posting value of the BM25 document side, as :func:`bm25_build`
    stores it. All inputs are read only; the result is a fresh
    ``float64`` array.
    """
    tf = np.asarray(tf, dtype=np.float64)
    if tf.size == 0:
        return np.zeros(0, dtype=np.float64)
    lengths = np.asarray(doc_lengths, dtype=np.float64)
    norms = k1 * (1.0 - b + b * lengths / avgdl)
    return tf * (k1 + 1.0) / (tf + norms[np.asarray(entry_rows)])


def bm25_build(
    ids_cat: np.ndarray,
    row_lengths: np.ndarray,
    vocabulary_size: int,
    k1: float,
    b: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """BM25 factor matrices from concatenated per-document token ids.

    *ids_cat* concatenates every document's token-id array (documents
    with zero tokens contribute nothing); *row_lengths* carries each
    document's token count, so ``row_lengths.sum() == len(ids_cat)``.
    Ids are column numbers below *vocabulary_size*, and their order is
    the float summation order of every product over the result, so a
    caller that wants results to depend on the documents alone numbers
    tokens locally -- :class:`repro.text.bm25.BM25` uses first
    occurrence over its corpus.

    Returns ``(indptr, indices, doc_data, query_data, idf_per_column,
    avgdl)`` -- the shared CSR structure of the document-side and
    query-side factor matrices in canonical (sorted, deduplicated)
    order, plus the per-column IDF and the average document length. All
    returned arrays are freshly allocated; the inputs are never written.
    """
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    n = int(row_lengths.shape[0])
    width = max(int(vocabulary_size), 1)
    doc_lens = row_lengths.astype(np.float64)
    mean_len = float(doc_lens.mean()) if n else 0.0
    avgdl = mean_len if mean_len > 0 else 1.0

    total = int(row_lengths.sum())
    if total == 0:
        return (
            np.zeros(n + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.float64),
            np.zeros(width, dtype=np.float64),
            avgdl,
        )

    ids_cat = np.asarray(ids_cat, dtype=np.int64)
    row_arr = np.repeat(np.arange(n, dtype=np.int64), row_lengths)
    # One sorted unique over the composite key yields, in canonical CSR
    # order, every (document, token) posting and its term frequency.
    composite = row_arr * width + ids_cat
    postings, tf_counts = np.unique(composite, return_counts=True)
    rows = postings // width
    cols = postings % width
    tf_arr = tf_counts.astype(np.float64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

    # IDF: df counts distinct (document, token) pairs per token; one
    # math.log per *distinct* df, applied by table lookup.
    df = np.bincount(cols, minlength=width)
    present = np.flatnonzero(df)
    distinct_dfs = np.unique(df[present])
    table = np.zeros(int(distinct_dfs.max()) + 1, dtype=np.float64)
    for value in distinct_dfs.tolist():
        table[value] = math.log(1.0 + (n - value + 0.5) / (value + 0.5))
    idf_per_column = np.zeros(width, dtype=np.float64)
    idf_per_column[present] = table[df[present]]

    doc_data = bm25_saturate(tf_arr, rows, doc_lens, avgdl, k1, b)
    query_data = tf_arr * idf_per_column[cols]
    return indptr, cols, doc_data, query_data, idf_per_column, avgdl


def csr_matvec(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: Tuple[int, int],
    vector: np.ndarray,
) -> np.ndarray:
    """``M @ vector`` for the CSR matrix ``(data, indices, indptr)``.

    The BM25 score accumulation: with *data* carrying the saturated
    document-side factors and *vector* the per-column query weights,
    the result is every document's BM25 relevance at once. Summation
    order follows the CSR storage order, so passing a matrix's own
    arrays reproduces ``matrix @ vector`` bit for bit.
    """
    from scipy import sparse

    matrix = sparse.csr_matrix(
        (data, indices, indptr), shape=shape, copy=False
    )
    return np.asarray(matrix @ np.asarray(vector), dtype=np.float64)


def bm25_day_matrix(
    query_data: np.ndarray,
    doc_data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: Tuple[int, int],
) -> np.ndarray:
    """All-pairs BM25 matrix ``M[i, j] = score(doc_i as query, doc_j)``.

    *query_data* and *doc_data* share one CSR structure ``(indices,
    indptr)`` over *shape* ``(documents, vocabulary)``; the result is
    the dense ``Q @ S.T`` with a zeroed diagonal (a sentence must not
    vote for itself) -- the adjacency of the BM25-TextRank sentence
    graph. Both sides are re-sorted into canonical column order on
    private copies (matching the historical construction exactly), so
    the inputs are never written.
    """
    from scipy import sparse

    n = shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    query_side = sparse.csr_matrix(
        (
            np.array(query_data, dtype=np.float64),
            np.array(indices),
            np.array(indptr),
        ),
        shape=shape,
    )
    doc_side = sparse.csr_matrix(
        (
            np.array(doc_data, dtype=np.float64),
            np.array(indices),
            np.array(indptr),
        ),
        shape=shape,
    )
    query_side.sort_indices()
    doc_side.sort_indices()
    matrix = (query_side @ doc_side.T).toarray().astype(
        np.float64, copy=False
    )
    np.fill_diagonal(matrix, 0.0)
    return matrix


def pagerank_iterate(
    transition: np.ndarray,
    restart: np.ndarray,
    dangling: np.ndarray,
    damping: float,
    max_iterations: int,
    tolerance: float,
) -> Tuple[np.ndarray, int]:
    """Buffered PageRank power iteration; returns ``(rank, iterations)``.

    *transition* is the row-stochastic matrix (dangling rows may hold
    anything -- their mass is redistributed through *restart* per the
    boolean *dangling* mask), *restart* the normalised restart
    distribution. Convergence is declared when the L1 change drops
    below ``tolerance * n``. The returned rank vector sums to 1.

    Every iteration writes into preallocated ping-pong buffers via
    ufunc ``out=`` -- the arithmetic (and hence the result, bit for
    bit) matches the expression form, without allocating four
    temporaries per sweep. The inputs are only ever read.
    """
    transition = np.asarray(transition, dtype=np.float64)
    restart = np.asarray(restart, dtype=np.float64)
    n = transition.shape[0]
    dangling = np.asarray(dangling, dtype=bool)
    has_dangling = bool(dangling.any())

    base = (1.0 - damping) * restart
    rank = restart.copy()
    new_rank = np.empty(n, dtype=np.float64)
    diff = np.empty(n, dtype=np.float64)
    dangling_term = (
        np.empty(n, dtype=np.float64) if has_dangling else None
    )
    threshold = tolerance * n
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        np.matmul(rank, transition, out=new_rank)
        np.multiply(new_rank, damping, out=new_rank)
        if has_dangling:
            # new = damping*(rank@T) + (damping*mass)*restart + base,
            # summed left to right exactly as written.
            np.multiply(
                restart,
                damping * rank[dangling].sum(),
                out=dangling_term,
            )
            np.add(new_rank, dangling_term, out=new_rank)
        np.add(new_rank, base, out=new_rank)
        np.subtract(new_rank, rank, out=diff)
        np.abs(diff, out=diff)
        converged = diff.sum() < threshold
        rank, new_rank = new_rank, rank
        if converged:
            break
    return rank / rank.sum(), iterations


def redundancy_accept(
    cand_data: np.ndarray,
    cand_indices: np.ndarray,
    cand_indptr: np.ndarray,
    num_offers: int,
    num_features: int,
    acc_data: Optional[np.ndarray],
    acc_indices: Optional[np.ndarray],
    acc_indptr: Optional[np.ndarray],
    num_accepted: int,
    threshold: float,
) -> List[int]:
    """One post-processing round's redundancy decisions, in offer order.

    The candidate rows (L2-normalised TF-IDF, so dot products are
    cosines) are scored against the already-accepted pool with a single
    sparse product, then against the offers accepted *earlier in the
    same round* (the only sequential dependency). Returns the positions
    of the accepted offers.

    ``acc_*`` may be ``None`` (an empty accepted pool); *num_accepted*
    is the pool's row count. No input array is ever written.
    """
    from scipy import sparse

    candidates = sparse.csr_matrix(
        (cand_data, cand_indices, cand_indptr),
        shape=(num_offers, num_features),
        copy=False,
    )
    if acc_data is not None and num_accepted:
        accepted_matrix = sparse.csr_matrix(
            (acc_data, acc_indices, acc_indptr),
            shape=(num_accepted, num_features),
            copy=False,
        )
        against_pool = np.asarray(
            (candidates @ accepted_matrix.T).todense()
        ).max(axis=1)
    else:
        against_pool = np.zeros(num_offers, dtype=np.float64)
    # Offers of one round also compete with each other, in order.
    intra = np.asarray((candidates @ candidates.T).todense())
    accepted_in_round: List[int] = []
    for position in range(num_offers):
        redundant = against_pool[position] >= threshold or (
            accepted_in_round
            and intra[position, accepted_in_round].max() >= threshold
        )
        if not redundant:
            accepted_in_round.append(position)
    return accepted_in_round
