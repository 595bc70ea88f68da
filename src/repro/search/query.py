"""BM25-ranked keyword queries with date filters, boolean modes, phrases."""

from __future__ import annotations

import datetime
import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.search.index import IndexedSentence, InvertedIndex
from repro.text.analysis import TokenCache, analyze_query
from repro.text.bm25 import BM25Parameters


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
    query_tokens: List[str],
) -> Optional[Set[int]]:
    """The doc-id set satisfying the structural constraints, or ``None``
    when no structural constraint applies (pure OR query, no window)."""
    allowed: Optional[Set[int]] = None
    if query.start is not None or query.end is not None:
        allowed = set(index.doc_ids_in_range(query.start, query.end))
        if not allowed:
            return set()
    if query.mode == "all" or query.phrase:
        containing: Optional[Set[int]] = None
        for token in query_tokens:
            docs = set(index.postings(token))
            containing = docs if containing is None else containing & docs
            if not containing:
                return set()
        if containing is None:
            return set()
        if query.phrase:
            containing = {
                doc_id
                for doc_id in containing
                if index.phrase_match(query_tokens, doc_id)
            }
        allowed = (
            containing if allowed is None else allowed & containing
        )
    return allowed


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
    if cache is None:
        cache = index.cache
    query_tokens = analyze_query(cache, query.keywords)
    if not query_tokens:
        return []
    n = index.num_documents
    if n == 0:
        return []
    allowed = _candidate_filter(index, query, query_tokens)
    if allowed is not None and not allowed:
        return []

    avgdl = index.average_length or 1.0
    k1, b = params.k1, params.b

    scores: dict = {}
    for token in query_tokens:
        df = index.document_frequency(token)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_id, tf in index.postings(token).items():
            if allowed is not None and doc_id not in allowed:
                continue
            norm = k1 * (
                1.0 - b + b * index.document_length(doc_id) / avgdl
            )
            scores[doc_id] = scores.get(doc_id, 0.0) + (
                idf * tf * (k1 + 1.0) / (tf + norm)
            )

    top = heapq.nlargest(
        query.limit, scores.items(), key=lambda kv: (kv[1], -kv[0])
    )
    return [
        SearchHit(document=index.document(doc_id), score=score)
        for doc_id, score in top
    ]


@dataclass(frozen=True)
class ShardCandidate:
    """One matching document with its raw per-term match statistics."""

    doc_id: int
    length: int
    term_frequencies: Tuple[int, ...]


@dataclass(frozen=True)
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
    order for float-exact equality. ``truncated`` flags that the slice
    had more matches than ``query.limit`` and returned only its locally
    best ones -- the only case where the merged ranking can diverge.
    """

    terms: Tuple[str, ...]
    documents: int
    total_tokens: int
    document_frequencies: Tuple[int, ...]
    hits: Tuple[ShardCandidate, ...]
    truncated: bool = False


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
    query_tokens = analyze_query(cache, query.keywords)
    terms = tuple(query_tokens)
    frequencies = tuple(
        index.document_frequency(token) for token in terms
    )
    stats_only = ShardCandidates(
        terms=terms,
        documents=index.num_documents,
        total_tokens=index.total_length,
        document_frequencies=frequencies,
        hits=(),
    )
    if not terms or index.num_documents == 0:
        return stats_only
    allowed = _candidate_filter(index, query, query_tokens)
    if allowed is not None and not allowed:
        return stats_only

    rows: dict = {}
    for position, token in enumerate(terms):
        for doc_id, tf in index.postings(token).items():
            if allowed is not None and doc_id not in allowed:
                continue
            row = rows.get(doc_id)
            if row is None:
                row = [0] * len(terms)
                rows[doc_id] = row
            row[position] = tf

    truncated = len(rows) > query.limit
    if truncated:
        # Keep exactly the documents execute() would rank into the local
        # top ``limit`` (by slice-local BM25); global exactness is lost
        # only in this case, and the flag lets mergers report it.
        kept = {
            hit.document.doc_id
            for hit in execute(index, query, params=params, cache=cache)
        }
        doc_ids = sorted(doc_id for doc_id in rows if doc_id in kept)
    else:
        doc_ids = sorted(rows)
    return ShardCandidates(
        terms=terms,
        documents=index.num_documents,
        total_tokens=index.total_length,
        document_frequencies=frequencies,
        hits=tuple(
            ShardCandidate(
                doc_id=doc_id,
                length=index.document_length(doc_id),
                term_frequencies=tuple(rows[doc_id]),
            )
            for doc_id in doc_ids
        ),
        truncated=truncated,
    )


def candidates_payload(
    index: InvertedIndex,
    candidates: ShardCandidates,
    index_version: int,
    schema: str,
) -> Dict[str, Any]:
    """The ``/v1/shard/search`` response payload for *candidates*.

    The one serialisation of :func:`gather_candidates` output both wire
    encodings share: the JSON path runs it through ``canonical_json``,
    the binary path through
    :func:`repro.serve.frames.encode_shard_search` -- keeping the two
    bit-exact by construction (same dict in, see
    tests/test_serve_frames.py). *schema* is the envelope identifier
    (the serving tier's ``WIRE_SCHEMA``), passed in to keep this module
    free of serve-layer imports.
    """
    hits = []
    for hit in candidates.hits:
        document = index.document(hit.doc_id)
        hits.append(
            {
                "doc_id": hit.doc_id,
                "length": hit.length,
                "tf": list(hit.term_frequencies),
                "text": document.text,
                "date": document.date.isoformat(),
                "publication_date": (
                    document.publication_date.isoformat()
                ),
                "article_id": document.article_id,
                "is_reference": document.is_reference,
            }
        )
    return {
        "schema": schema,
        "index_version": index_version,
        "terms": list(candidates.terms),
        "stats": {
            "documents": candidates.documents,
            "total_tokens": candidates.total_tokens,
            "df": list(candidates.document_frequencies),
        },
        "count": len(hits),
        "truncated": candidates.truncated,
        "hits": hits,
    }
