"""The shard route's ``wilson.rpc/v1`` frame bytes, pinned.

A frame is what a shard worker answers ``/v1/shard/search`` with, so
its bytes are the wire format between workers and the router: a worker
and a router of different builds must agree on them. These digests were
recorded from the per-hit dict encoder the columnar one replaced; any
change to them is a wire-format change and belongs in
docs/architecture.md ("Frame format").

The corpus is the snapshot golden's (every ``make_timeline17_like(
scale=0.02, seed=17)`` instance merged, 570 articles), cut into two
slices by ``export_slices``; each slice is loaded the way a worker
loads it (mapped) and, to show the load mode does not matter, copied.
The queries are the retrieval goldens' (``tests/test_search_retrieval``):
any/all/phrase, windowed and open, an out-of-vocabulary term, a
duplicated term, an empty window and a truncated gather.
"""

import dataclasses
import hashlib

import pytest

from repro.search.engine import SearchEngine
from repro.search.query import candidates_payload, gather_candidates
from repro.serve.app import WIRE_SCHEMA
from repro.serve.frames import encode_shard_search
from repro.serve.topology import export_slices
from repro.tlsdata.synthetic import make_timeline17_like

from tests.test_search_retrieval import GOLDEN_QUERIES

#: sha256 of each frame, by ``(slice file, golden query name)``.
FRAME_SHA256 = {
    ("shard-000.snap", "all-window"): (
        "2e898683db74430e875c990c7e57effb875509798553af31722a3c49da96d720"
    ),
    ("shard-000.snap", "any-open"): (
        "bf9f96c049f06bfff95ab30a6624c5f9c61dc4b1317166296c695f23c9645b15"
    ),
    ("shard-000.snap", "any-window"): (
        "287762b5fffdd742c2071b28b4aa603994cfcdb5eee54ddcae2395b63cef89a2"
    ),
    ("shard-000.snap", "duplicate-term"): (
        "d7662e4c4ada2abb5b94d082bb608ac38ca9cb63333e3801f404827ff8cca452"
    ),
    ("shard-000.snap", "empty-window"): (
        "7aceb4f5365f59003174361f545c4d4fc7d8559e4220e6e5418555ddceec6307"
    ),
    ("shard-000.snap", "gather-truncated"): (
        "3929f09c0a09cfbf6ec56d8fc86b219ea5ea1c3910c9f397b30a5780304d0b3a"
    ),
    ("shard-000.snap", "oov-term"): (
        "e7f9e7575decea019a35013d565b543fd5bcc621b4123bc04de0b37f53eeacc5"
    ),
    ("shard-000.snap", "phrase-open"): (
        "ae12b5dae6dec8d5fb467f9dc1add545f80d485c1ebadafdf65b96bd1177b185"
    ),
    ("shard-001.snap", "all-window"): (
        "bc1391114e43499e850e1d72e02d92489573384bd7725fb4ea2c142afc6e6279"
    ),
    ("shard-001.snap", "any-open"): (
        "07a2d1c6162ee2d42bf6ddea0eb5a9691c60d6b270d67a1f288ada6e69d9f8c3"
    ),
    ("shard-001.snap", "any-window"): (
        "34f689c463e9a93fbce60d9a2ee6049830c4f0441b13b26debd979a32e670728"
    ),
    ("shard-001.snap", "duplicate-term"): (
        "673e1f317999e6e39440f8819540c510b679d159bb9c75fdf40ec9ba4b6d4dfd"
    ),
    ("shard-001.snap", "empty-window"): (
        "fdf3eb0f4d3c019c07ec92185974ad53cda52bd704a0d58f7210b5d6f066999e"
    ),
    ("shard-001.snap", "gather-truncated"): (
        "6672acb343964bee00b753b119e011920dab1d42c1cb4efadb2c73e083756c01"
    ),
    ("shard-001.snap", "oov-term"): (
        "3d913108e939bff0c8ee7b252c71bb2d86608385db04ba6f5fe7016ab9533860"
    ),
    ("shard-001.snap", "phrase-open"): (
        "43510931894858fd463f9444c5bb46062981e4897e2741151c3bb4015053560b"
    ),
}


@pytest.fixture(scope="module")
def slices(tmp_path_factory):
    dataset = make_timeline17_like(scale=0.02, seed=17)
    articles = sorted(
        (
            dataclasses.replace(
                article,
                article_id=f"{instance.name}/{article.article_id}",
            )
            for instance in dataset.instances
            for article in instance.corpus.articles
        ),
        key=lambda a: (a.publication_date, a.article_id),
    )
    engine = SearchEngine()
    engine.add_articles(articles)
    topology = export_slices(
        engine.index, tmp_path_factory.mktemp("topology"), 2
    )
    return [shard.path for shard in topology.shards]


def frame_digests(path, mode):
    engine = SearchEngine.load_snapshot(path, mode=mode)
    digests = {}
    for name, query in sorted(GOLDEN_QUERIES.items()):
        candidates = gather_candidates(
            engine.index, query, params=engine.bm25_params, cache=engine.cache
        )
        frame = encode_shard_search(
            candidates_payload(
                engine.index, candidates, engine.index_version, WIRE_SCHEMA
            )
        )
        digests[name] = hashlib.sha256(frame).hexdigest()
    return digests


def test_frame_bytes(slices):
    found = {}
    for path in slices:
        file_name = path.replace("\\", "/").rsplit("/", 1)[-1]
        mapped = frame_digests(path, "mmap")
        assert frame_digests(path, "copy") == mapped, file_name
        for name, digest in mapped.items():
            found[(file_name, name)] = digest
    assert found == FRAME_SHA256
