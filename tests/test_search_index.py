"""Tests for the inverted index."""

import sys
import threading
import time

import pytest

from repro.search.index import InvertedIndex
from repro.text.analysis import TokenCache
from tests.conftest import d


@pytest.fixture()
def index():
    idx = InvertedIndex()
    idx.add("The ceasefire collapsed near the border.",
            d("2020-01-01"), d("2020-01-01"), "a1")
    idx.add("Rebels seized the stronghold.",
            d("2020-01-05"), d("2020-01-05"), "a2")
    idx.add("The ceasefire was restored after talks.",
            d("2020-01-09"), d("2020-01-09"), "a3")
    return idx


class TestWrites:
    def test_doc_ids_sequential(self):
        idx = InvertedIndex()
        assert idx.add("one.", d("2020-01-01"), d("2020-01-01")) == 0
        assert idx.add("two.", d("2020-01-02"), d("2020-01-02")) == 1

    def test_incremental_statistics(self, index):
        before = index.num_documents
        avgdl_before = index.average_length
        index.add(
            "A very fresh and unusually detailed development occurred "
            "in the disputed region overnight.",
            d("2020-02-01"), d("2020-02-01"),
        )
        assert index.num_documents == before + 1
        assert index.average_length != avgdl_before


    def test_concurrent_adds_and_folding_reads_lose_nothing(self):
        # Writers buffer documents while readers keep folding the buffer
        # in; with a tiny switch interval the two interleave constantly.
        index = InvertedIndex(cache=TokenCache())
        added = []  # (doc_id, text) pairs; list.append is atomic
        writers, per_writer = 4, 250
        writing = threading.Event()
        writing.set()

        def write(k):
            for i in range(per_writer):
                text = f"Quake report {k} number {i}."
                added.append(
                    (index.add(text, d("2020-01-01"), d("2020-01-02")), text)
                )
                time.sleep(0)  # let a reader fold between two adds

        def read():
            while writing.is_set():
                index.document_frequency("quake")

        readers = [threading.Thread(target=read) for _ in range(2)]
        threads = [
            threading.Thread(target=write, args=(k,))
            for k in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            writing.clear()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers + threads)
        total = writers * per_writer
        assert sorted(doc_id for doc_id, _ in added) == list(range(total))
        assert index.num_documents == total
        assert index.index_version == total
        token = TokenCache().tokens("Quake")[0]
        assert index.document_frequency(token) == total
        for doc_id, text in added:
            assert index.document(doc_id).text == text


class TestReads:
    def test_document_roundtrip(self, index):
        doc = index.document(1)
        assert doc.text == "Rebels seized the stronghold."
        assert doc.date == d("2020-01-05")

    def test_document_frequency(self, index):
        # "ceasefire" stems to itself; appears in docs 0 and 2.
        assert index.document_frequency("ceasefir") == 2
        assert index.document_frequency("zzz") == 0

    def test_postings_are_copies(self, index):
        postings = index.postings("ceasefir")
        postings[999] = 1
        assert 999 not in index.postings("ceasefir")

    def test_dates_sorted(self, index):
        assert index.dates() == [
            d("2020-01-01"), d("2020-01-05"), d("2020-01-09"),
        ]

    def test_doc_ids_in_range(self, index):
        ids = list(index.doc_ids_in_range(d("2020-01-02"), d("2020-01-08")))
        assert ids == [1]

    def test_doc_ids_open_ranges(self, index):
        assert list(index.doc_ids_in_range(None, None)) == [0, 1, 2]
        assert list(index.doc_ids_in_range(d("2020-01-05"), None)) == [1, 2]
        assert list(index.doc_ids_in_range(None, d("2020-01-05"))) == [0, 1]

    def test_documents_on(self, index):
        docs = index.documents_on(d("2020-01-05"))
        assert len(docs) == 1
        assert docs[0].article_id == "a2"
        assert index.documents_on(d("2021-01-01")) == []

    def test_vocabulary_size_positive(self, index):
        assert index.vocabulary_size() > 0

    def test_len_and_repr(self, index):
        assert len(index) == 3
        assert "documents=3" in repr(index)

    def test_empty_index(self):
        idx = InvertedIndex()
        assert idx.average_length == 0.0
        assert idx.dates() == []


class TestIndexVersion:
    def test_bumped_on_every_add(self, index):
        assert index.index_version == 3
        index.add("More news arrived.", d("2020-01-10"), d("2020-01-10"))
        assert index.index_version == 4

    def test_empty_index_starts_at_zero(self):
        assert InvertedIndex().index_version == 0

    def test_save_load_round_trip(self, index, tmp_path):
        # Advance the version past the document count (simulating an
        # index that had documents added and a fresh save): the restored
        # version must match the saved one exactly, not the document
        # count.
        index._version = 17
        path = tmp_path / "index.snap"
        index.save_snapshot(path)
        restored = InvertedIndex.load_snapshot(path)
        assert restored.index_version == 17
        assert len(restored) == len(index)
        assert restored.document(1).text == index.document(1).text
        # Writes after restore keep counting up from the saved revision.
        restored.add("Fresh report.", d("2020-02-01"), d("2020-02-01"))
        assert restored.index_version == 18

    def test_empty_index_with_meta_preserves_version(self, tmp_path):
        # An empty index that has handed out versions (documents added,
        # then a fresh incarnation saved empty) must restore its saved
        # revision -- not reset to zero -- so result caches keyed on
        # index_version never see a reused version.
        empty = InvertedIndex()
        empty._version = 9
        path = tmp_path / "empty.snap"
        empty.save_snapshot(path)
        restored = InvertedIndex.load_snapshot(path)
        assert len(restored) == 0
        assert restored.index_version == 9
        restored.add("First report.", d("2020-02-01"), d("2020-02-01"))
        assert restored.index_version == 10
