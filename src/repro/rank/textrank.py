"""TextRank sentence ranking (Mihalcea & Tarau, 2004).

WILSON's daily summariser runs TextRank on each selected day's sentences,
with BM25 relevance as the (asymmetric) edge weight following Barrios et al.
(2016): sentence *i* scores sentence *j* as if *i* were the query, producing
a directed graph on which PageRank selects the central sentences.

:func:`textrank_bm25` also supports a *personalised* restart distribution,
used by the optional query-biased daily summarisation extension (the
paper's "balancing local and global summarization" future-work direction):
biasing the random walk toward query-relevant sentences blends global
topical relevance into the otherwise purely local day ranking.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graph.pagerank import DEFAULT_DAMPING, pagerank_matrix
from repro.obs.trace import Tracer
from repro.text.analysis import TokenCache, tokenize_with
from repro.text.bm25 import BM25, BM25Parameters

#: Default per-sentence neighbour cap for the BM25 TextRank graph. Days
#: with at most this many other sentences are untouched (the truncation
#: is a no-op below the cap), so small fixtures keep exact results while
#: heavy days drop their weakest edges before PageRank.
DEFAULT_TEXTRANK_NEIGHBORS = 128


def textrank_scores(
    similarity: np.ndarray,
    damping: float = DEFAULT_DAMPING,
    personalization: Optional[np.ndarray] = None,
    tracer: Optional[Tracer] = None,
) -> np.ndarray:
    """PageRank importance scores from a sentence similarity matrix.

    The diagonal is ignored (a sentence cannot vote for itself); negative
    similarities are clipped to zero. A *personalization* vector biases
    the restart distribution (``None`` = uniform).
    """
    matrix = np.array(similarity, dtype=np.float64, copy=True)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(
            f"similarity matrix must be square, got shape {matrix.shape}"
        )
    np.fill_diagonal(matrix, 0.0)
    np.clip(matrix, 0.0, None, out=matrix)
    return pagerank_matrix(
        matrix,
        damping=damping,
        personalization=personalization,
        tracer=tracer,
        counter_prefix="textrank",
    )


def truncate_neighbors(
    matrix: np.ndarray,
    neighbor_top_k: Optional[int],
    tracer: Optional[Tracer] = None,
) -> np.ndarray:
    """Keep only each row's ``neighbor_top_k`` strongest edges.

    A no-op (the input is returned untouched) when the cap is ``None``
    or the graph is already within it -- which makes the default cap
    exact on small days while bounding the PageRank work on heavy ones.
    Emits the ``prune.textrank_rows_truncated`` /
    ``prune.textrank_edges_dropped`` counters when truncation happens.
    """
    if neighbor_top_k is None:
        return matrix
    if neighbor_top_k < 1:
        raise ValueError(
            f"neighbor_top_k must be None or >= 1, got {neighbor_top_k}"
        )
    n = matrix.shape[0]
    if n - 1 <= neighbor_top_k:
        return matrix
    keep = np.argpartition(matrix, -neighbor_top_k, axis=1)
    keep = keep[:, -neighbor_top_k:]
    mask = np.zeros(matrix.shape, dtype=bool)
    mask[np.arange(n)[:, None], keep] = True
    truncated = np.where(mask, matrix, 0.0)
    if tracer is not None:
        tracer.count("prune.textrank_rows_truncated", n)
        tracer.count(
            "prune.textrank_edges_dropped",
            int(np.count_nonzero(matrix) - np.count_nonzero(truncated)),
        )
    return truncated


def bm25_adjacency(
    sentences: Sequence[str],
    params: BM25Parameters = BM25Parameters(),
    cache: Optional[TokenCache] = None,
    neighbor_top_k: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> np.ndarray:
    """The (optionally truncated) BM25 TextRank adjacency of *sentences*.

    Exactly the matrix :func:`textrank_bm25` ranks on; exposed so the
    daily summariser can memoise it per ``(index_version, date)`` and
    share it across concurrent queries (see
    :class:`repro.core.daily.DayMatrixCache`).
    """
    index = BM25(tokenize_with(cache, sentences), params)
    return truncate_neighbors(
        index.pairwise_matrix(), neighbor_top_k, tracer=tracer
    )


def textrank_bm25(
    sentences: Sequence[str],
    damping: float = DEFAULT_DAMPING,
    params: BM25Parameters = BM25Parameters(),
    query: Sequence[str] = (),
    query_bias: float = 0.0,
    tracer: Optional[Tracer] = None,
    cache: Optional[TokenCache] = None,
    neighbor_top_k: Optional[int] = None,
    adjacency: Optional[np.ndarray] = None,
) -> List[int]:
    """Rank *sentences* by BM25-TextRank; returns indices, best first.

    Ties break toward the earlier sentence, which favours ledes -- the same
    behaviour as stable sorting of PageRank scores.

    Parameters
    ----------
    query, query_bias:
        With ``query_bias > 0`` the restart distribution blends the
        uniform distribution with the sentences' BM25 relevance to
        *query*: ``(1 - bias) * uniform + bias * relevance``. ``0.0``
        (the default) is the plain TextRank the paper uses.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; each underlying
        PageRank run counts ``textrank_runs`` / ``textrank_iterations``.
    cache:
        Optional shared :class:`~repro.text.analysis.TokenCache`;
        sentences seen by any earlier stage (or a previous day) are not
        re-tokenised.
    neighbor_top_k:
        Optional per-sentence edge cap (see :func:`truncate_neighbors`);
        ``None`` keeps the dense graph.
    adjacency:
        Optional precomputed (and possibly truncated) adjacency from
        :func:`bm25_adjacency` -- the memoisation hook. Must have been
        built from exactly these sentences with the same parameters.
    """
    if not 0.0 <= query_bias <= 1.0:
        raise ValueError(
            f"query_bias must lie in [0, 1], got {query_bias}"
        )
    if not sentences:
        return []
    if len(sentences) == 1:
        return [0]
    index = None
    if adjacency is None:
        index = BM25(tokenize_with(cache, sentences), params)
        adjacency = truncate_neighbors(
            index.pairwise_matrix(), neighbor_top_k, tracer=tracer
        )

    personalization: Optional[np.ndarray] = None
    if query_bias > 0.0 and query:
        if index is None:
            index = BM25(tokenize_with(cache, sentences), params)
        query_tokens = tokenize_with(cache, [" ".join(query)])[0]
        relevance = index.scores(query_tokens)
        total = relevance.sum()
        n = len(sentences)
        uniform = np.full(n, 1.0 / n)
        if total > 0:
            personalization = (
                (1.0 - query_bias) * uniform
                + query_bias * relevance / total
            )
        else:
            personalization = uniform

    scores = textrank_scores(
        adjacency,
        damping=damping,
        personalization=personalization,
        tracer=tracer,
    )
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order]
