"""Retrieval pinned bit for bit: goldens plus an independent BM25 oracle.

Two guards over every retrieval path -- :func:`~repro.search.query.
execute`, :func:`~repro.search.query.gather_candidates` and the router's
:func:`~repro.serve.router.merge_shard_candidates`:

* **goldens** (``tests/golden/search-*.json``): the exact ``(doc_id,
  score.hex())`` ranking of seeded queries on a small
  ``make_timeline17_like`` corpus -- any/all/phrase, windowed and open,
  an out-of-vocabulary term, a duplicated term, an empty window -- and
  the raw statistics of a truncated shard gather. ``float.hex`` makes
  the fixtures exact, not approximate. Refresh them, when a change is
  intentional, with ``pytest tests/test_search_retrieval.py
  --update-golden``;
* **properties** (hypothesis, random small indexes): ``execute`` equals
  :func:`reference_search`, a plain-Python BM25 written from the token
  streams alone; a :class:`~repro.ingest.LiveIndex` (base + segments)
  equals a cold index of the same documents; a two-slice gather merged
  by ``merge_shard_candidates`` equals single-index ``execute``.
"""

from __future__ import annotations

import datetime
import json
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ingest import LiveIndex
from repro.ingest.segment import Segment
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import (
    SearchQuery,
    candidates_payload,
    execute,
    gather_candidates,
)
from repro.serve.router import merge_shard_candidates
from repro.serve.topology import ShardSlice, Topology
from repro.text.analysis import analyze_query, tokenize_with
from repro.text.bm25 import BM25Parameters
from repro.tlsdata.synthetic import make_timeline17_like

from tests.conftest import d

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Golden cases: name -> query. The corpus is instance 0 of
#: ``make_timeline17_like(scale=0.02, seed=17)`` (989 documents over 54
#: content dates, 2011-01-15 .. 2011-09-11).
GOLDEN_QUERIES = {
    "any-open": SearchQuery(
        keywords=("earthquake", "floodwater", "moreno", "klein", "yilmaz"),
        limit=60,
    ),
    "any-window": SearchQuery(
        keywords=("earthquake floodwater", "aftershock"),
        start=d("2011-03-01"),
        end=d("2011-05-31"),
    ),
    "all-window": SearchQuery(
        keywords=("floodwater", "aftershock"),
        start=d("2011-02-01"),
        end=d("2011-08-31"),
        mode="all",
    ),
    "phrase-open": SearchQuery(
        keywords=("deepening the aftershock",), phrase=True
    ),
    "oov-term": SearchQuery(
        keywords=("earthquake", "zzyzxqwv"), limit=40
    ),
    "duplicate-term": SearchQuery(
        keywords=("floodwater", "floodwater", "moreno"), limit=40
    ),
    "empty-window": SearchQuery(
        keywords=("earthquake",),
        start=d("1999-01-01"),
        end=d("1999-12-31"),
    ),
    "gather-truncated": SearchQuery(
        keywords=("aftershock", "earthquake", "aftershock"), limit=7
    ),
}

WORDS = (
    "storm", "flood", "rebel", "truce", "border", "quake", "relief",
    "harbor",
)
ORIGIN = d("2021-01-01")


# -- the oracle -----------------------------------------------------------------


def reference_search(
    documents: Sequence[Tuple[str, datetime.date]],
    query: SearchQuery,
    params: BM25Parameters = BM25Parameters(),
) -> List[Tuple[int, float]]:
    """Okapi BM25 over ``(text, content_date)`` documents, ids by position:
    ``(doc_id, score)`` best first, ties by ascending doc id."""
    streams = [list(s) for s in tokenize_with(None, [t for t, _ in documents])]
    terms = analyze_query(None, query.keywords)
    n, k1, b = len(streams), params.k1, params.b
    if not terms or not n:
        return []
    avgdl = (sum(map(len, streams)) / n) or 1.0

    def allowed(doc_id: int) -> bool:
        date, stream = documents[doc_id][1], streams[doc_id]
        if (query.start and date < query.start) or (
            query.end and date > query.end
        ):
            return False
        if (query.mode == "all" or query.phrase) and not all(
            term in stream for term in terms
        ):
            return False
        return not query.phrase or any(
            stream[i : i + len(terms)] == terms for i in range(len(stream))
        )

    scores: dict = {}
    for term in terms:
        df = sum(term in stream for stream in streams)
        if not df:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_id, stream in enumerate(streams):
            tf = stream.count(term)
            if tf and allowed(doc_id):
                norm = k1 * (1.0 - b + b * len(stream) / avgdl)
                scores[doc_id] = scores.get(doc_id, 0.0) + (
                    idf * tf * (k1 + 1.0) / (tf + norm)
                )
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[
        : query.limit
    ]


# -- helpers --------------------------------------------------------------------


def ranked(hits) -> List[Tuple[int, float]]:
    return [(hit.document.doc_id, hit.score) for hit in hits]


def index_of(documents, cache=None) -> InvertedIndex:
    index = InvertedIndex(cache=cache)
    for text, date in documents:
        index.add(text, date, date, article_id=f"a{len(index)}")
    return index


def sliced_merge(index: InvertedIndex, query: SearchQuery, parts):
    """Gather *query* from the slices *parts* (lists of *index*'s doc
    ids) without truncation and merge them as the router does."""
    shards, responses = [], {}
    wide = SearchQuery(
        keywords=query.keywords,
        start=query.start,
        end=query.end,
        limit=max(1, len(index)),
        mode=query.mode,
        phrase=query.phrase,
    )
    for shard_id, doc_ids in enumerate(parts):
        piece = index.subset(doc_ids)
        shards.append(
            ShardSlice(shard_id, f"s{shard_id}", None, None, len(piece),
                       tuple(doc_ids))
        )
        responses[shard_id] = candidates_payload(
            piece, gather_candidates(piece, wide), 0, "test"
        )
    topology = Topology(
        shards=tuple(shards),
        total_documents=len(index),
        source_index_version=0,
    )
    merged = merge_shard_candidates(responses, topology, query.limit)
    return list(zip(merged.doc_ids.tolist(), merged.scores.tolist()))


def halves(index: InvertedIndex) -> List[List[int]]:
    """Two date-ordered slices, the way ``export_slices`` cuts them."""
    order = index.date_window()[2].tolist()
    middle = len(order) // 2
    return [order[:middle], order[middle:]]


# -- goldens --------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_index() -> InvertedIndex:
    corpus = make_timeline17_like(scale=0.02, seed=17).instances[0].corpus
    engine = SearchEngine()
    engine.add_articles(corpus.articles)
    return engine.index


def _hex(pairs) -> List[List]:
    return [[doc_id, score.hex()] for doc_id, score in pairs]


def golden_document(index: InvertedIndex, query: SearchQuery) -> dict:
    """Everything pinned for one golden query."""
    gathered = gather_candidates(index, query)
    return {
        "query": {
            "keywords": list(query.keywords),
            "start": query.start.isoformat() if query.start else None,
            "end": query.end.isoformat() if query.end else None,
            "limit": query.limit,
            "mode": query.mode,
            "phrase": query.phrase,
        },
        "execute": _hex(ranked(execute(index, query))),
        "gather": {
            "terms": list(gathered.terms),
            "documents": gathered.documents,
            "total_tokens": gathered.total_tokens,
            "df": list(gathered.document_frequencies),
            "truncated": gathered.truncated,
            "hits": [
                list(hit)
                for hit in zip(
                    gathered.doc_ids.tolist(),
                    gathered.lengths.tolist(),
                    gathered.tf.tolist(),
                )
            ],
        },
        "merge": _hex(sliced_merge(index, query, halves(index))),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_QUERIES))
def test_retrieval_matches_golden(name, golden_index, update_golden):
    document = golden_document(golden_index, GOLDEN_QUERIES[name])
    path = GOLDEN_DIR / f"search-{name}.json"
    if update_golden:
        path.write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"rewrote {path}")
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert document == expected, (
        f"retrieval drifted from {path}; if intentional, rerun with "
        f"--update-golden and commit the diff"
    )


def test_goldens_cover_the_edge_cases():
    """The fixtures pin what they claim to: hits in every non-empty case,
    none in the empty window, a truncated gather, a dropped OOV term."""
    def load(name):
        return json.loads(
            (GOLDEN_DIR / f"search-{name}.json").read_text(encoding="utf-8")
        )

    for name in GOLDEN_QUERIES:
        document = load(name)
        assert document["merge"] == document["execute"]
        if name == "empty-window":
            assert document["execute"] == []
            assert document["gather"]["hits"] == []
        else:
            assert document["execute"], name
    truncated = load("gather-truncated")["gather"]
    assert truncated["truncated"] and len(truncated["hits"]) == 7
    assert load("oov-term")["gather"]["df"][1] == 0
    assert load("duplicate-term")["gather"]["terms"][:2] == [
        "floodwat", "floodwat"
    ]


# -- properties -----------------------------------------------------------------

documents_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from(WORDS), min_size=0, max_size=7).map(
            " ".join
        ),
        st.integers(0, 9).map(
            lambda days: ORIGIN + datetime.timedelta(days=days)
        ),
    ),
    min_size=1,
    max_size=24,
)


@st.composite
def queries(draw) -> SearchQuery:
    keywords = draw(
        st.lists(
            st.sampled_from(WORDS + ("absent",)), min_size=1, max_size=4
        )
    )
    start: Optional[datetime.date] = None
    end: Optional[datetime.date] = None
    if draw(st.booleans()):
        lo, hi = sorted(draw(st.lists(st.integers(0, 10), min_size=2,
                                      max_size=2)))
        start = ORIGIN + datetime.timedelta(days=lo)
        end = ORIGIN + datetime.timedelta(days=hi)
    return SearchQuery(
        keywords=tuple(keywords),
        start=start,
        end=end,
        limit=draw(st.integers(1, 30)),
        mode=draw(st.sampled_from(("any", "all"))),
        phrase=draw(st.booleans()),
    )


PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAgainstReference:
    @PROPERTY_SETTINGS
    @given(documents=documents_strategy, query=queries())
    def test_execute_equals_reference_bm25(self, documents, query):
        index = index_of(documents)
        assert ranked(execute(index, query)) == reference_search(
            documents, query
        )

    @PROPERTY_SETTINGS
    @given(
        documents=documents_strategy,
        query=queries(),
        cuts=st.lists(st.integers(0, 24), max_size=3),
    )
    def test_live_overlay_equals_cold_index(self, documents, query, cuts):
        bounds = sorted({min(cut, len(documents)) for cut in cuts})
        pieces = [
            documents[lo:hi]
            for lo, hi in zip([0] + bounds, bounds + [len(documents)])
        ]
        live = LiveIndex(index_of(pieces[0]))
        for seq, piece in enumerate(pieces[1:]):
            segment_index = index_of(piece)
            live.append_segment(
                Segment(
                    seq=seq,
                    index=segment_index,
                    touched_dates=frozenset(segment_index.dates()),
                    articles=len(piece),
                )
            )
        cold = index_of(documents)
        expected = ranked(execute(cold, query))
        assert ranked(execute(live, query)) == expected
        assert expected == reference_search(documents, query)
        # The overlay cuts hit fields per sub-index (empty segments
        # included); row for row they are its documents.
        assert list(live.document_columns(range(len(live))).records()) == [
            (doc.date, doc.text, doc.publication_date, doc.article_id,
             doc.is_reference)
            for doc in map(live.document, range(len(live)))
        ]

    @PROPERTY_SETTINGS
    @given(
        documents=documents_strategy,
        query=queries(),
        split=st.integers(0, 24),
    )
    def test_two_slice_merge_equals_single_index(
        self, documents, query, split
    ):
        index = index_of(documents)
        order = index.date_window()[2].tolist()
        split = min(split, len(order))
        expected = ranked(execute(index, query))
        assert sliced_merge(
            index, query, [order[:split], order[split:]]
        ) == expected
