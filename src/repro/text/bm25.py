"""Okapi BM25 (Robertson & Zaragoza, 2009).

WILSON uses BM25 in three places:

1. **W4 edge weights** for the date reference graph -- the relevance of a
   reference sentence to the topic query (Section 2.2).
2. **TextRank edge weights** for daily summarisation -- each sentence scores
   every other sentence as if it were a query (Section 2.3 / appendix),
   following Barrios et al. (2016).
3. The **real-time search engine** (Section 5) ranks indexed sentences by
   BM25 relevance to the user's keyword query.

:class:`BM25` indexes a tokenised corpus once and then answers
``score(query_tokens, doc_index)`` and ``scores(query_tokens)`` queries.
Token ids are local to the corpus, so a ranking depends on the corpus
alone and never on what else the process has tokenised.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro import kernels


@dataclass(frozen=True)
class BM25Parameters:
    """Free parameters of the Okapi BM25 ranking function.

    ``k1`` saturates term frequency and ``b`` controls document-length
    normalisation. IDF uses the always-positive (Lucene-style) variant
    ``log(1 + (N - df + 0.5) / (df + 0.5))``: on the small per-day sentence
    sets WILSON summarises, terms routinely appear in half the documents,
    and the raw Robertson IDF would zero them out and disconnect the
    TextRank graph.
    """

    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be within [0, 1], got {self.b}")


class BM25:
    """BM25 index over a fixed corpus of tokenised documents.

    Tokens are numbered in first-occurrence order over the corpus and
    :func:`repro.kernels.bm25_build` turns that id stream into the
    saturated document side ``S[d, t] = tf_dt * (k1 + 1) / (tf_dt +
    norm_d)`` and the query side ``Q[d, t] = tf_dt * idf(t)``, sharing one
    canonical CSR structure. :meth:`scores` is then a single sparse
    matrix-vector product and :meth:`pairwise_matrix` a single sparse
    product -- instead of per-token per-document Python loops. Because
    the column order follows the corpus, so does every float summation
    order: the same documents give bit-identical results in any process.
    """

    def __init__(
        self,
        corpus: Sequence[Sequence[str]],
        params: BM25Parameters = BM25Parameters(),
    ) -> None:
        self.params = params
        self._corpus = list(corpus)
        self.num_docs = n = len(self._corpus)
        self._columns: Dict[str, int] = {}
        column = self._columns.setdefault
        ids = [
            column(token, len(self._columns))
            for doc in self._corpus
            for token in doc
        ]
        lengths = np.fromiter(
            map(len, self._corpus), dtype=np.int64, count=n
        )
        (
            self._indptr,
            self._cols,
            self._doc_data,
            self._query_data,
            self._idf_per_column,
            self.avgdl,
        ) = kernels.bm25_build(
            np.asarray(ids, dtype=np.int64),
            lengths,
            len(self._columns),
            params.k1,
            params.b,
        )
        self._shape = (n, len(self._idf_per_column))

    def idf(self, token: str) -> float:
        """IDF of *token* (0.0 for out-of-vocabulary tokens)."""
        column = self._columns.get(token)
        if column is None:
            return 0.0
        return float(self._idf_per_column[column])

    def score(self, query: Sequence[str], index: int) -> float:
        """BM25 relevance of document *index* to the tokenised *query*.

        The per-document reference form of :meth:`scores`: one plain
        loop over the query tokens, straight from the formula.
        """
        doc = self._corpus[index]
        if not doc:
            return 0.0
        freqs = Counter(doc)
        k1, b = self.params.k1, self.params.b
        norm = k1 * (1.0 - b + b * len(doc) / self.avgdl)
        total = 0.0
        for token in query:
            tf = freqs.get(token)
            if not tf:
                continue
            total += self.idf(token) * tf * (k1 + 1.0) / (tf + norm)
        return total

    def scores(self, query: Sequence[str]) -> np.ndarray:
        """BM25 relevance of every indexed document to *query*.

        One sparse matvec over the document side: the query collapses
        to a vector ``q[t] = count_q(t) * idf(t)`` (repeated query terms
        contribute additively, exactly as the per-token loop of
        :meth:`score` does).
        """
        result = np.zeros(self.num_docs, dtype=np.float64)
        if self.num_docs == 0 or not query:
            return result
        query_vector = np.zeros(self._shape[1], dtype=np.float64)
        matched = False
        for token in query:
            column = self._columns.get(token)
            if column is not None:
                query_vector[column] += self._idf_per_column[column]
                matched = True
        if not matched:
            return result
        return kernels.csr_matvec(
            self._doc_data, self._cols, self._indptr, self._shape,
            query_vector,
        )

    def pairwise_matrix(self) -> np.ndarray:
        """All-pairs matrix ``M[i, j] = score(doc_i as query, doc_j)``.

        This is the (asymmetric) adjacency matrix of the BM25-TextRank
        sentence graph used by the daily summariser; the diagonal is zeroed
        because a sentence must not vote for itself.

        One :func:`repro.kernels.bm25_day_matrix` call: a sparse product
        ``Q @ S.T`` of the query and document sides (repeated query
        terms contribute additively).
        """
        return kernels.bm25_day_matrix(
            self._query_data, self._doc_data, self._cols, self._indptr,
            self._shape,
        )
