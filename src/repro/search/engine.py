"""The high-level search engine over temporally tagged news sentences.

:class:`SearchEngine` owns the full ingestion path of Figure 7: articles
are sentence-tokenised, temporally tagged, and every resulting
``(date, sentence)`` pair is indexed under both its content date and the
publication date -- then keyword + window queries return dated sentences
ready for WILSON.
"""

from __future__ import annotations

import datetime
from typing import Iterable, List, Optional, Sequence

from repro.search.index import InvertedIndex
from repro.search.query import (
    SearchHit,
    SearchQuery,
    execute,
    top_documents,
)
from repro.temporal.tagger import TemporalTagger
from repro.text.analysis import TokenCache
from repro.text.bm25 import BM25Parameters
from repro.tlsdata.types import Article, DatedSentence


def expand_article(article: Article, tagger: TemporalTagger):
    """Yield the index-document tuples an article expands into.

    One ``(text, date, publication_date, article_id, is_reference)``
    tuple per sentence under the publication date, plus one reference
    tuple per distinct *other* mentioned date -- the single source of
    truth shared by :meth:`SearchEngine.add_article` and the streaming
    ingest plane (:mod:`repro.ingest`), so streamed and cold-indexed
    corpora expand into identical document sequences.
    """
    for sentence in article.split_sentences():
        tagged = tagger.tag_sentence(sentence, article.publication_date)
        yield (
            sentence,
            article.publication_date,
            article.publication_date,
            article.article_id,
            False,
        )
        for date in tagged.mentioned_dates:
            if date == article.publication_date:
                continue
            yield (
                sentence,
                date,
                article.publication_date,
                article.article_id,
                True,
            )


class SearchEngine:
    """Index news articles; serve keyword + time-window sentence queries."""

    def __init__(
        self,
        tagger: Optional[TemporalTagger] = None,
        bm25_params: BM25Parameters = BM25Parameters(),
        cache: Optional[TokenCache] = None,
    ) -> None:
        self.cache = cache
        self.index = InvertedIndex(cache=cache)
        self.tagger = tagger or TemporalTagger()
        self.bm25_params = bm25_params
        self._num_articles = 0

    # -- ingestion ------------------------------------------------------------

    def add_article(self, article: Article) -> int:
        """Tokenise, tag and index one article; returns sentences indexed."""
        indexed = 0
        for text, date, pub_date, article_id, is_ref in expand_article(
            article, self.tagger
        ):
            self.index.add(
                text,
                date=date,
                publication_date=pub_date,
                article_id=article_id,
                is_reference=is_ref,
            )
            indexed += 1
        self._num_articles += 1
        return indexed

    def add_articles(self, articles: Iterable[Article]) -> int:
        """Index a batch of articles; returns total sentences indexed."""
        return sum(self.add_article(article) for article in articles)

    @property
    def num_articles(self) -> int:
        return self._num_articles

    @property
    def num_indexed_sentences(self) -> int:
        return len(self.index)

    @property
    def index_version(self) -> int:
        """The index's monotonic content revision (cache invalidation key)."""
        return self.index.index_version

    # -- persistence ----------------------------------------------------------

    def save_snapshot(self, path) -> None:
        """Persist the index as a binary snapshot (O(read) restore)."""
        self.index.save_snapshot(path)

    @classmethod
    def load_snapshot(
        cls,
        path,
        tagger: Optional[TemporalTagger] = None,
        bm25_params: BM25Parameters = BM25Parameters(),
        cache: Optional[TokenCache] = None,
        mode: str = "copy",
        verify: bool = False,
    ) -> "SearchEngine":
        """Restore an engine from a binary snapshot (see
        :mod:`repro.search.snapshot`).

        ``mode="copy"`` rebuilds a mutable index (new articles can be
        added); ``mode="mmap"`` serves the snapshot zero-copy from
        shared read-only pages; ``verify=True`` checks section checksums
        eagerly. Raises :class:`repro.search.snapshot.SnapshotError`
        when the file is missing, corrupt or incompatible.
        """
        from repro.search.snapshot import snapshot_info

        engine = cls(tagger=tagger, bm25_params=bm25_params, cache=cache)
        engine.index = InvertedIndex.load_snapshot(
            path, cache=cache, mode=mode, verify=verify
        )
        articles = snapshot_info(path).get("articles")
        engine._num_articles = (
            int(articles)
            if articles is not None
            else len(engine.index.article_ids())
        )
        return engine

    # -- querying ----------------------------------------------------------------

    def search(self, query: SearchQuery) -> List[SearchHit]:
        """BM25-ranked hits for a keyword + window query."""
        return execute(
            self.index, query, params=self.bm25_params, cache=self.cache
        )

    def fetch_dated_sentences(
        self,
        keywords: Sequence[str],
        start: Optional[datetime.date] = None,
        end: Optional[datetime.date] = None,
        limit: int = 5000,
    ) -> List[DatedSentence]:
        """Fetch the dated-sentence pool WILSON consumes for a query event."""
        doc_ids, _ = top_documents(
            self.index,
            SearchQuery(
                keywords=tuple(keywords), start=start, end=end, limit=limit
            ),
            params=self.bm25_params,
            cache=self.cache,
        )
        return [
            DatedSentence(
                document.date,
                document.text,
                document.publication_date,
                document.article_id,
                document.is_reference,
            )
            for document in map(self.index.document, doc_ids.tolist())
        ]
