"""BM25-ranked keyword queries with date filters, boolean modes, phrases.

:func:`execute` and :func:`gather_candidates` restrict each query
term's posting arrays to the documents the query's constraints admit,
then score and rank them with :func:`repro.kernels.bm25_rank`.
"""

from __future__ import annotations

import datetime
import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.search.index import DocumentColumns, IndexedSentence, InvertedIndex
from repro.text.analysis import TokenCache, analyze_query
from repro.text.bm25 import BM25Parameters

#: One term's ``(doc_ids, tf)`` posting arrays, ascending doc id.
Postings = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class SearchQuery:
    """A keyword + time-window query (Section 5's user input).

    ``keywords`` may be raw phrases; they are tokenised/stemmed at scoring
    time. ``limit`` caps the number of hits returned (highest BM25 first).

    ``mode`` selects the boolean semantics: ``"any"`` (default, OR) ranks
    every document matching at least one term; ``"all"`` (AND) restricts
    to documents containing every term. ``phrase=True`` additionally
    requires the keywords to occur *consecutively* (positional match).
    """

    keywords: Tuple[str, ...]
    start: Optional[datetime.date] = None
    end: Optional[datetime.date] = None
    limit: int = 1000
    mode: str = "any"
    phrase: bool = False

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
        if (
            self.start is not None
            and self.end is not None
            and self.start > self.end
        ):
            raise ValueError(
                f"start {self.start} must not exceed end {self.end}"
            )
        if self.mode not in ("any", "all"):
            raise ValueError(
                f"mode must be 'any' or 'all', got {self.mode!r}"
            )


@dataclass(frozen=True)
class SearchHit:
    """One search result with its relevance score."""

    document: IndexedSentence
    score: float


def _candidate_filter(
    index: InvertedIndex,
    query: SearchQuery,
    terms: Sequence[str],
) -> Tuple[List[Postings], List[int]]:
    """Per query term, its postings restricted to the documents meeting
    *query*'s structural constraints, and its document frequency.

    The date window is an ordinal mask over each term's postings; in
    ``all``/phrase mode the documents holding every term are the
    intersection of the terms' sorted doc ids, and a phrase further
    keeps those :meth:`~InvertedIndex.phrase_match` accepts.
    """
    postings = [index.posting_arrays(token) for token in terms]
    frequencies = [len(doc_ids) for doc_ids, _ in postings]
    if query.start is not None or query.end is not None:
        doc_dates = index.doc_dates
        lo = (query.start or datetime.date.min).toordinal()
        hi = (query.end or datetime.date.max).toordinal()
        windowed = []
        for doc_ids, tf in postings:
            dates = doc_dates[doc_ids]
            windowed.append(
                _keep(doc_ids, tf, (dates >= lo) & (dates <= hi))
            )
        postings = windowed
    if (query.mode == "all" or query.phrase) and postings:
        containing = functools.reduce(
            lambda left, right: np.intersect1d(
                left, right, assume_unique=True
            ),
            (doc_ids for doc_ids, _ in postings),
        )
        if query.phrase:
            phrase = list(terms)
            containing = containing[
                np.array(
                    [
                        index.phrase_match(phrase, doc_id)
                        for doc_id in containing.tolist()
                    ],
                    dtype=bool,
                )
            ]
        postings = [
            _keep(
                doc_ids, tf, np.isin(doc_ids, containing, assume_unique=True)
            )
            for doc_ids, tf in postings
        ]
    return postings, frequencies


def _keep(doc_ids: np.ndarray, tf: np.ndarray, mask) -> Postings:
    return doc_ids[mask], tf[mask]


def _matching(postings: Sequence[Postings]) -> np.ndarray:
    """The ascending doc ids some term's postings list."""
    if not postings:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate([doc_ids for doc_ids, _ in postings]))


def _rank(
    index: InvertedIndex,
    postings: Sequence[Postings],
    frequencies: Sequence[int],
    candidates: np.ndarray,
    limit: int,
    params: BM25Parameters,
) -> Tuple[np.ndarray, np.ndarray]:
    """The best *limit* of *candidates* by BM25 over *index*'s live
    statistics: ``(doc_ids, scores)``, score descending, then doc id."""
    n = index.num_documents
    idf = [
        math.log(1.0 + (n - df + 0.5) / (df + 0.5)) for df in frequencies
    ]
    return kernels.bm25_rank(
        postings,
        idf,
        index.doc_lengths,
        index.average_length or 1.0,
        params.k1,
        params.b,
        candidates,
        limit,
    )


def top_documents(
    index: InvertedIndex,
    query: SearchQuery,
    params: BM25Parameters = BM25Parameters(),
    cache: Optional[TokenCache] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """*query*'s best ``query.limit`` doc ids and BM25 scores, best first.

    The ranking :func:`execute` wraps in :class:`SearchHit` objects,
    for callers that build their own per-hit objects.
    """
    if cache is None:
        cache = index.cache
    query_tokens = analyze_query(cache, query.keywords)
    if not query_tokens or index.num_documents == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    postings, frequencies = _candidate_filter(index, query, query_tokens)
    return _rank(
        index,
        postings,
        frequencies,
        _matching(postings),
        query.limit,
        params,
    )


def execute(
    index: InvertedIndex,
    query: SearchQuery,
    params: BM25Parameters = BM25Parameters(),
    cache: Optional[TokenCache] = None,
) -> List[SearchHit]:
    """Run *query* against *index*; returns hits, best first.

    Scoring is Okapi BM25 with IDF computed from the index's live
    statistics; candidates are restricted by the date window and (in
    ``all``/phrase mode) the boolean constraints first. *cache* falls
    back to the index's own analysis cache when not given.
    """
    doc_ids, scores = top_documents(index, query, params, cache)
    return [
        SearchHit(document=index.document(doc_id), score=score)
        for doc_id, score in zip(doc_ids.tolist(), scores.tolist())
    ]


@dataclass(frozen=True, eq=False)
class ShardCandidates:
    """Everything a merger needs to re-score this index's matches globally.

    The BM25 inputs of :func:`execute` decompose additively across
    disjoint index slices: global ``N`` is the sum of ``documents``,
    global ``df`` the sum of ``document_frequencies`` and global
    ``avgdl`` the ratio of summed ``total_tokens`` to summed
    ``documents`` -- all integer sums, so a merger reproduces the
    whole-corpus statistics *exactly*, not approximately. Combined with
    each hit's raw term frequencies and document length, that makes the
    merged scores bit-identical to running :func:`execute` on the
    unsliced index (the scatter-gather router's byte-identity
    guarantee; see :mod:`repro.serve.router`).

    ``terms`` is the analyzed query-token sequence *in query order*
    (duplicates kept): score contributions must be accumulated in that
    order for float-exact equality. The hits are columns: ``doc_ids``
    (ascending, slice-local), their ``lengths`` and the ``tf`` matrix,
    one row per hit and one column per term (0 = absent).
    ``truncated`` flags that the slice had more matches than
    ``query.limit`` and returned only its locally best ones -- the only
    case where the merged ranking can diverge.
    """

    terms: Tuple[str, ...]
    documents: int
    total_tokens: int
    document_frequencies: Tuple[int, ...]
    doc_ids: np.ndarray  # int64
    lengths: np.ndarray  # int64
    tf: np.ndarray  # int64, (hits, terms)
    truncated: bool = False


@dataclass(frozen=True, eq=False)
class ShardPayload:
    """One ``/v1/shard/search`` answer: a slice's candidates plus their
    document fields, row for row, as columns.

    What :func:`candidates_payload` builds on a shard and
    :func:`repro.serve.frames.decode_shard_search` hands the router.
    """

    schema: str
    index_version: int
    candidates: ShardCandidates
    fields: DocumentColumns

    @property
    def count(self) -> int:
        return len(self.candidates.doc_ids)


def gather_candidates(
    index: InvertedIndex,
    query: SearchQuery,
    params: BM25Parameters = BM25Parameters(),
    cache: Optional[TokenCache] = None,
) -> ShardCandidates:
    """Collect *query*'s raw match statistics from one index slice.

    Applies the same candidate restriction as :func:`execute` (date
    window, ``all``/phrase constraints) but returns unscored per-term
    frequencies instead of BM25 scores, plus the slice-level corpus
    statistics. Index-level statistics (``documents``,
    ``document_frequencies``, ``total_tokens``) are always populated,
    even when the window excludes every document -- a merger still needs
    this slice's contribution to the global IDF.

    When more than ``query.limit`` documents match, only the documents
    :func:`execute` would rank into the local top ``limit`` are
    returned and ``truncated`` is set.
    """
    if cache is None:
        cache = index.cache
    terms = tuple(analyze_query(cache, query.keywords))
    postings, frequencies = _candidate_filter(index, query, terms)
    doc_ids = _matching(postings)
    truncated = len(doc_ids) > query.limit
    if truncated:
        # Keep exactly the documents execute() would rank into the local
        # top ``limit`` (by slice-local BM25); global exactness is lost
        # only in this case, and the flag lets mergers report it.
        top, _ = _rank(
            index, postings, frequencies, doc_ids, query.limit, params
        )
        doc_ids = np.sort(top)
    # One row per kept document, one column per term (0 = absent).
    tf = np.zeros((len(doc_ids), len(terms)), dtype=np.int64)
    for column, (term_ids, term_tf) in enumerate(postings):
        rows = np.searchsorted(doc_ids, term_ids)
        kept = rows < len(doc_ids)
        kept[kept] = doc_ids[rows[kept]] == term_ids[kept]
        tf[rows[kept], column] = term_tf[kept]
    return ShardCandidates(
        terms=terms,
        documents=index.num_documents,
        total_tokens=index.total_length,
        document_frequencies=tuple(frequencies),
        doc_ids=doc_ids,
        lengths=index.doc_lengths[doc_ids],
        tf=tf,
        truncated=truncated,
    )


def candidates_payload(
    index: InvertedIndex,
    candidates: ShardCandidates,
    index_version: int,
    schema: str,
) -> ShardPayload:
    """The ``/v1/shard/search`` answer for *candidates*.

    Adds each hit's document fields, cut from *index*'s arrays by
    :meth:`~repro.search.index.InvertedIndex.document_columns`;
    :func:`repro.serve.frames.encode_shard_search` writes the result as
    a frame. *schema* is the envelope identifier (the serving tier's
    ``WIRE_SCHEMA``), passed in to keep this module free of serve-layer
    imports.
    """
    return ShardPayload(
        schema=schema,
        index_version=index_version,
        candidates=candidates,
        fields=index.document_columns(candidates.doc_ids),
    )
