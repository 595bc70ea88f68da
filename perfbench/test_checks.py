"""Self-tests of the benchmark's checkers and inputs.

Run from the root of a checkout with either of::

    python3 perfbench/test_checks.py
    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each doctored response below must be rejected by the checker the
benchmark applies to it; the untouched response must pass.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import (  # noqa: E402
    check_drain,
    check_probe,
    check_reference,
    check_retrieval,
    check_timeline,
    check_write,
)
from inputs import Probe, TimelineRequest  # noqa: E402

D = datetime.date
SENTENCES = {
    "The ceasefire held on March 3, 2011.",
    "The offensive resumed on March 9, 2011.",
    "Weber met Toure in Solvena.",
}
REQUEST = TimelineRequest(
    keywords=("ceasefire", "offensive"),
    start=D(2011, 3, 1),
    end=D(2011, 3, 20),
    num_dates=2,
    num_sentences=1,
)
GOOD_TIMELINE = {
    "2011-03-03": ["The ceasefire held on March 3, 2011."],
    "2011-03-09": ["The offensive resumed on March 9, 2011."],
}


def envelope(timeline, cache="miss") -> bytes:
    return json.dumps(
        {
            "schema": "wilson.serve/v1",
            "cache": cache,
            "index_version": 41414,
            "result": {"timeline": timeline, "num_candidates": 3},
        }
    ).encode()


class TimelineCheckTest(unittest.TestCase):
    def test_good_response_passes(self):
        self.assertEqual(
            check_timeline(200, envelope(GOOD_TIMELINE), REQUEST, SENTENCES), []
        )

    def test_date_outside_window_rejected(self):
        timeline = dict(GOOD_TIMELINE)
        timeline["2011-04-02"] = timeline.pop("2011-03-09")
        problems = check_timeline(200, envelope(timeline), REQUEST, SENTENCES)
        self.assertTrue(any("outside" in p for p in problems), problems)

    def test_more_dates_than_num_dates_rejected(self):
        timeline = dict(GOOD_TIMELINE)
        timeline["2011-03-12"] = ["Weber met Toure in Solvena."]
        problems = check_timeline(200, envelope(timeline), REQUEST, SENTENCES)
        self.assertTrue(any("num_dates" in p for p in problems), problems)

    def test_more_sentences_than_num_sentences_rejected(self):
        timeline = dict(GOOD_TIMELINE)
        timeline["2011-03-03"] = timeline["2011-03-03"] + [
            "Weber met Toure in Solvena."
        ]
        problems = check_timeline(200, envelope(timeline), REQUEST, SENTENCES)
        self.assertTrue(any("num_sentences" in p for p in problems), problems)

    def test_sentence_not_in_corpus_rejected(self):
        timeline = dict(GOOD_TIMELINE)
        timeline["2011-03-03"] = ["The ceasefire held on March 4, 2011."]
        problems = check_timeline(200, envelope(timeline), REQUEST, SENTENCES)
        self.assertTrue(any("not in the corpus" in p for p in problems), problems)

    def test_cache_hit_and_errors_rejected(self):
        self.assertTrue(
            check_timeline(200, envelope(GOOD_TIMELINE, "hit"), REQUEST, SENTENCES)
        )
        self.assertTrue(check_timeline(500, b"{}", REQUEST, SENTENCES))
        self.assertTrue(check_timeline(200, b"not json", REQUEST, SENTENCES))


class ReferenceCheckTest(unittest.TestCase):
    def test_identical_timeline_passes(self):
        self.assertEqual(check_reference(envelope(GOOD_TIMELINE), GOOD_TIMELINE), [])

    def test_one_sentence_off_rejected(self):
        routed = dict(GOOD_TIMELINE)
        routed["2011-03-09"] = ["Weber met Toure in Solvena."]
        self.assertTrue(check_reference(envelope(routed), GOOD_TIMELINE))

    def test_missing_date_rejected(self):
        routed = {"2011-03-03": GOOD_TIMELINE["2011-03-03"]}
        self.assertTrue(check_reference(envelope(routed), GOOD_TIMELINE))


class RetrievalCheckTest(unittest.TestCase):
    candidates = [
        ("2011-03-03", "The ceasefire held on March 3, 2011."),
        ("2011-03-09", "The offensive resumed on March 9, 2011."),
        ("2011-03-09", "Weber met Toure in Solvena."),
    ]

    def test_timeline_from_the_candidates_passes(self):
        body = envelope(GOOD_TIMELINE)  # num_candidates 3
        self.assertEqual(check_retrieval(body, self.candidates), [])

    def test_sentence_on_another_date_rejected(self):
        timeline = {"2011-03-03": ["Weber met Toure in Solvena."]}
        self.assertTrue(check_retrieval(envelope(timeline), self.candidates))

    def test_missing_write_rejected(self):
        # The reference index holds one more acknowledged write.
        more = self.candidates + [("2011-03-12", "A fourth sentence.")]
        problems = check_retrieval(envelope(GOOD_TIMELINE), more)
        self.assertTrue(any("candidates" in p for p in problems), problems)


class ProbeCheckTest(unittest.TestCase):
    probe = Probe(
        request=TimelineRequest(
            keywords=("ceasefire", "offensive"),
            start=D(2012, 1, 10),
            end=D(2012, 1, 16),
        ),
        article=None,
        sentence="The ceasefire and the offensive led bulletin 0.",
    )
    written = json.dumps({"accepted": 1}).encode()

    def test_fresh_read_back_passes(self):
        fresh = envelope({"2012-01-13": [self.probe.sentence]})
        self.assertEqual(
            check_probe(200, self.written, 200, fresh, self.probe), []
        )

    def test_stale_read_back_rejected(self):
        stale = envelope({}, cache="hit")
        problems = check_probe(200, self.written, 200, stale, self.probe)
        self.assertTrue(any("stale" in p for p in problems), problems)

    def test_async_answer_to_sync_write_rejected(self):
        fresh = envelope({"2012-01-13": [self.probe.sentence]})
        self.assertTrue(check_probe(202, self.written, 200, fresh, self.probe))


class WriteAndDrainCheckTest(unittest.TestCase):
    def test_write_verdicts(self):
        ok = json.dumps({"accepted": 3, "rejected": 0, "failed": 0}).encode()
        self.assertEqual(check_write(202, ok, 3), [])
        partial = json.dumps({"accepted": 2, "rejected": 1, "failed": 0}).encode()
        self.assertTrue(check_write(202, partial, 3))
        self.assertTrue(check_write(429, ok, 3))

    def test_drain_verdicts(self):
        self.assertEqual(check_drain(0, ["x", "shutdown: drained cleanly"]), [])
        self.assertTrue(check_drain(0, ["shutdown: drain timed out"]))
        self.assertTrue(check_drain(1, ["shutdown: drained cleanly"]))


class InputsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from inputs import RequestSource, build_corpus

        cls.corpus = build_corpus()
        cls.RequestSource = RequestSource

    def test_corpus_ids_are_unique(self):
        ids = [a.article_id for a in self.corpus.articles]
        self.assertEqual(len(ids), 1406)
        self.assertEqual(len(set(ids)), len(ids))

    def test_requests_never_repeat_and_fit_the_corpus(self):
        source = self.RequestSource(self.corpus, seed=5)
        base, held_back = self.corpus.split_held_back()
        size = source.live_round_size()
        frontiers = (
            [base[-1].publication_date] * size
            + [a.publication_date for a in held_back[:size]]
            + [self.corpus.end] * size
        )
        live = source.live_reads(frontiers)
        for read, frontier in zip(live, frontiers):
            self.assertLessEqual(read.end, frontier, read)
        self.assertGreaterEqual(
            sum(r.end == f for r, f in zip(live, frontiers)),
            3 * len(self.corpus.topics),
        )
        requests = (
            source.cold_rounds(3)
            + live
            + [probe.request for probe in source.probes()]
        )
        identities = [r.identity() for r in requests]
        self.assertEqual(len(set(identities)), len(identities))
        for request in requests[:-8]:
            days = (request.end - request.start).days + 1
            self.assertTrue(14 <= days <= 242, request)
            self.assertGreaterEqual(request.start, self.corpus.start)
            self.assertLessEqual(request.end, self.corpus.end)

    def test_same_seed_same_requests(self):
        first = self.RequestSource(self.corpus, seed=9).cold_rounds(2)
        second = self.RequestSource(self.corpus, seed=9).cold_rounds(2)
        self.assertEqual(first, second)

    def test_held_back_is_newest_and_scheduled_in_order(self):
        from inputs import write_schedule

        base, held_back = self.corpus.split_held_back()
        self.assertLess(
            base[-1].publication_date, held_back[0].publication_date
        )
        schedule = write_schedule(held_back, 10.0, seed=3)
        replayed = [a for batch in schedule for a in batch.articles]
        self.assertEqual(replayed, held_back)
        offsets = [batch.offset_seconds for batch in schedule]
        self.assertEqual(offsets, sorted(offsets))
        self.assertAlmostEqual(offsets[-1], 10.0)


if __name__ == "__main__":
    unittest.main()
