"""Seeded inputs of the benchmark: corpus, timeline requests, writes, probes.

The corpus is fixed: every instance of ``make_timeline17_like(scale=0.1,
seed=17)`` merged into one multi-topic corpus (1,406 articles, 41,414
indexed sentences). The generator reuses article ids across the agencies
of one topic, and the ingest plane drops a repeated id as a duplicate, so
every id is prefixed with its instance name.

Everything else -- which keywords and windows are requested, in which
order, and the write schedule of ``routed_live`` -- comes from the
benchmark's ``--seed``. Requests are drawn in rounds of a fixed make-up
(cold rounds: every topic once per window-length bin; live rounds: every
topic once and every bin once), so runs on different seeds ask for the
same mix of work and differ only in the draws inside each stratum.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

SCALE = 0.1
CORPUS_SEED = 17
NUM_DATES = 10
NUM_SENTENCES = 1
#: Window-length strata in days: two weeks up to the whole 242-day span
#: (about eight months). Retrieval and date-selection cost grow with the
#: window, so each round asks for every stratum once per topic.
WINDOW_BINS = ((14, 30), (31, 75), (76, 150), (151, 242))
#: Share of the newest articles ``routed_live`` holds back and replays.
HELD_BACK_SHARE = 0.2
#: Read-your-write probes of ``routed_live``.
NUM_PROBES = 8
#: Sync write batches ``routed_live`` replays the held-back articles in.
WRITE_BATCHES = 96


@dataclass(frozen=True)
class TimelineRequest:
    """One ``POST /v1/timeline`` request."""

    keywords: Tuple[str, ...]
    start: datetime.date
    end: datetime.date
    num_dates: int = NUM_DATES
    num_sentences: int = NUM_SENTENCES

    def body(self) -> bytes:
        return json.dumps(
            {
                "keywords": list(self.keywords),
                "start": self.start.isoformat(),
                "end": self.end.isoformat(),
                "num_dates": self.num_dates,
                "num_sentences": self.num_sentences,
            }
        ).encode("utf-8")

    def identity(self) -> Tuple[FrozenSet[str], str, str, int, int]:
        """What makes two requests the same work.

        Coarser than the server's cache key (which keeps keyword order):
        two requests equal here retrieve the same candidates, so a
        workload that must not repeat itself dedupes on this.
        """
        return (
            frozenset(" ".join(k.split()).casefold() for k in self.keywords),
            self.start.isoformat(),
            self.end.isoformat(),
            self.num_dates,
            self.num_sentences,
        )


@dataclass(frozen=True)
class WriteBatch:
    """One scheduled sync ``POST /v1/ingest`` of ``routed_live``."""

    offset_seconds: float
    articles: Tuple[object, ...]  # repro.tlsdata.types.Article

    def body(self) -> bytes:
        return json.dumps(
            {
                "articles": [article_json(a) for a in self.articles],
                "sync": True,
            }
        ).encode("utf-8")


@dataclass(frozen=True)
class Probe:
    """One read-your-write probe: an empty window, then one write into it."""

    request: TimelineRequest
    article: object  # repro.tlsdata.types.Article
    sentence: str

    def write_body(self) -> bytes:
        return json.dumps(
            {"articles": [article_json(self.article)], "sync": True}
        ).encode("utf-8")


@dataclass
class BenchCorpus:
    """The merged corpus plus what request generation needs from it."""

    articles: List[object]  # sorted by (publication_date, article_id)
    topics: List[Tuple[str, Tuple[str, ...]]]
    start: datetime.date
    end: datetime.date

    def split_held_back(self) -> Tuple[List[object], List[object]]:
        """``(base, held_back)``: the newest share is held back."""
        cut = len(self.articles) - round(
            len(self.articles) * HELD_BACK_SHARE
        )
        cut_date = self.articles[cut].publication_date
        # Never split one publication day across base and writes.
        while cut > 0 and self.articles[cut - 1].publication_date == cut_date:
            cut -= 1
        return self.articles[:cut], self.articles[cut:]


def article_json(article) -> Dict[str, str]:
    """The ingest wire form of *article* (title + text, as documented)."""
    return {
        "article_id": article.article_id,
        "publication_date": article.publication_date.isoformat(),
        "title": article.title,
        "text": article.text,
    }


def build_corpus() -> BenchCorpus:
    """The fixed merged corpus (independent of the benchmark seed)."""
    from repro.tlsdata.synthetic import make_timeline17_like

    dataset = make_timeline17_like(scale=SCALE, seed=CORPUS_SEED)
    articles = []
    topics: Dict[str, Tuple[str, ...]] = {}
    for instance in dataset.instances:
        topics.setdefault(instance.corpus.topic, tuple(instance.corpus.query))
        for article in instance.corpus.articles:
            articles.append(
                dataclasses.replace(
                    article,
                    article_id=f"{instance.name}/{article.article_id}",
                )
            )
    articles.sort(key=lambda a: (a.publication_date, a.article_id))
    return BenchCorpus(
        articles=articles,
        topics=sorted(topics.items()),
        start=min(a.publication_date for a in articles),
        end=max(a.publication_date for a in articles),
    )


def corpus_sentences(articles: Sequence[object]) -> Set[str]:
    """Every sentence text the index can serve for *articles*."""
    sentences: Set[str] = set()
    for article in articles:
        sentences.update(article.split_sentences())
    return sentences


class RequestSource:
    """Draws distinct timeline requests for one seed.

    Every request drawn from one source differs from all earlier ones in
    :meth:`TimelineRequest.identity`, so warm-up, timed, post-drain and
    probe requests never repeat one another -- no request can be served
    from the result cache.
    """

    def __init__(self, corpus: BenchCorpus, seed: int) -> None:
        self.corpus = corpus
        self.rng = random.Random(seed)
        self._seen: Set[tuple] = set()

    def _draw(self, topic_keywords, lo_day, hi_day, lo_len, hi_len, at_end=False):
        """A fresh request inside ``[lo_day, hi_day]`` (day offsets).

        With *at_end* the window ends on ``hi_day``.
        """
        for _ in range(1000):
            size = self.rng.randint(2, 4)
            keywords = tuple(
                sorted(
                    self.rng.sample(topic_keywords, size),
                    key=topic_keywords.index,
                )
            )
            length = self.rng.randint(lo_len, min(hi_len, hi_day - lo_day + 1))
            first = (
                hi_day - length + 1 if at_end
                else self.rng.randint(lo_day, hi_day - length + 1)
            )
            start = self.corpus.start + datetime.timedelta(days=first)
            request = TimelineRequest(
                keywords=keywords,
                start=start,
                end=start + datetime.timedelta(days=length - 1),
            )
            if request.identity() not in self._seen:
                self._seen.add(request.identity())
                return request
        raise RuntimeError("could not draw a fresh request")

    def _span_days(self) -> int:
        return (self.corpus.end - self.corpus.start).days

    def cold_round(self) -> List[TimelineRequest]:
        """Every topic once per window bin, shuffled."""
        span = self._span_days()
        batch = [
            self._draw(list(keywords), 0, span, lo, hi)
            for _, keywords in self.corpus.topics
            for lo, hi in WINDOW_BINS
        ]
        self.rng.shuffle(batch)
        return batch

    def cold_rounds(self, rounds: int) -> List[TimelineRequest]:
        return [r for _ in range(rounds) for r in self.cold_round()]

    def live_round_size(self) -> int:
        """Reads in one live round: one per topic and one per window bin."""
        return len(self.corpus.topics) + len(WINDOW_BINS)

    def live_reads(self, frontiers: Sequence[datetime.date]) -> List[TimelineRequest]:
        """One read per entry of *frontiers*, in whole live rounds.

        ``frontiers[i]`` is the newest publication date written when read
        ``i`` is due. Each round has one 14-45 day window per topic that
        ends on its read's frontier, so a read sees about as much freshly
        written news early in the phase as late in it, and one window per
        length bin that ends on or before the frontier. The kinds are
        shuffled within each round.
        """
        size = self.live_round_size()
        if len(frontiers) % size:
            raise ValueError(f"{len(frontiers)} reads are not whole rounds of {size}")
        reads = []
        for first in range(0, len(frontiers), size):
            kinds = [(list(keywords), None) for _, keywords in self.corpus.topics]
            kinds += [(None, window) for window in WINDOW_BINS]
            self.rng.shuffle(kinds)
            for (keywords, window), frontier in zip(kinds, frontiers[first:first + size]):
                day = (frontier - self.corpus.start).days
                if window is None:
                    reads.append(self._draw(keywords, day - 44, day, 14, 45, at_end=True))
                else:
                    _, keywords = self.rng.choice(self.corpus.topics)
                    reads.append(self._draw(list(keywords), 0, day, *window))
        return reads

    def probes(self) -> List[Probe]:
        """Probe windows far past the corpus end, one article each.

        The windows start 120 days after the newest article, beyond any
        date a sentence of the corpus mentions, and do not overlap, so
        each is empty until its own probe writes into it.
        """
        from repro.tlsdata.types import Article

        probes = []
        for number in range(NUM_PROBES):
            start = self.corpus.end + datetime.timedelta(days=120 + 14 * number)
            _, keywords = self.rng.choice(self.corpus.topics)
            words = self.rng.sample(list(keywords), 2)
            request = TimelineRequest(
                keywords=tuple(words),
                start=start,
                end=start + datetime.timedelta(days=6),
            )
            self._seen.add(request.identity())
            sentence = (
                f"The {words[0]} and the {words[1]} led bulletin "
                f"{number} of the read-back check."
            )
            article = Article(
                article_id=f"probe-{number}",
                publication_date=start + datetime.timedelta(days=3),
                title="",
                text=sentence,
            )
            probes.append(Probe(request, article, sentence))
        return probes


def write_schedule(
    held_back: Sequence[object], duration_seconds: float, seed: int
) -> List[WriteBatch]:
    """Held-back articles in publication order as seeded sync batches.

    Always ``WRITE_BATCHES`` batches, so every run attempts the same
    number of writes; the cut points between batches and the gaps
    between sends (0.5-1.5x the mean) are drawn from *seed*. Offsets
    are scaled so the first batch is due at 0 and the last at
    ``duration_seconds``.
    """
    rng = random.Random(seed * 7919 + 1)
    cuts = sorted(rng.sample(range(1, len(held_back)), WRITE_BATCHES - 1))
    bounds = [0] + cuts + [len(held_back)]
    gaps = [rng.uniform(0.5, 1.5) for _ in range(WRITE_BATCHES - 1)]
    scale = duration_seconds / sum(gaps)
    batches = []
    offset = 0.0
    for number in range(WRITE_BATCHES):
        if number:
            offset += gaps[number - 1] * scale
        batches.append(
            WriteBatch(
                offset_seconds=offset,
                articles=tuple(held_back[bounds[number]:bounds[number + 1]]),
            )
        )
    return batches
