"""The snapshot writer's bytes, pinned.

``wilson.snapshot/v2`` files are compared across processes and builds
(a slice written by ``snapshot --shards`` must equal one cut by
``serve --snapshot --shards``; a compacted ingest snapshot must equal a
cold re-index), so their bytes are part of the format. These digests
were recorded from the dict-based writer the array-backed index
replaced; any change to them is a data-format change and belongs in
docs/data_formats.md.

The corpus merges every ``make_timeline17_like(scale=0.02, seed=17)``
instance the way the repository benchmark does (570 articles), indexed
without a token cache, as the ``snapshot`` CLI does.
"""

import dataclasses
import hashlib

import pytest

from repro.search.engine import SearchEngine
from repro.serve.topology import export_slices
from repro.tlsdata.synthetic import make_timeline17_like

SNAPSHOT_SHA256 = (
    "9ebcb091e79da0b47922a816cc4de0ef3e1a2e237a9fd376e0c270ce6d64b1fd"
)
SLICE_SHA256 = {
    "shard-000.snap": (
        "7db8264381e693618262bca691e80394eea19eb322c9738d7a095ac0d81a1201"
    ),
    "shard-001.snap": (
        "96dbbf02f8c78fee4564e881aa644d4db6d10013e0c65e4d5bbb8715cae6f08d"
    ),
    "topology.json": (
        "ad32a7862a85e73266fd6f422fd9d9d326312b4a9150b162a272a97e547fc4c2"
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def engine():
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
    assert len(articles) == 570
    engine = SearchEngine()
    engine.add_articles(articles)
    return engine


def test_snapshot_bytes(engine, tmp_path):
    path = tmp_path / "index.snap"
    engine.save_snapshot(path)
    assert _sha256(path) == SNAPSHOT_SHA256


def test_slice_bytes_from_built_and_mapped_index(engine, tmp_path):
    export_slices(engine.index, tmp_path / "built", 2)
    path = tmp_path / "index.snap"
    engine.save_snapshot(path)
    mapped = SearchEngine.load_snapshot(path, mode="mmap")
    export_slices(mapped.index, tmp_path / "mapped", 2)
    for source in ("built", "mapped"):
        digests = {
            name: _sha256(tmp_path / source / name) for name in SLICE_SHA256
        }
        assert digests == SLICE_SHA256, source
