"""Shard topologies: date-partitioned snapshot slices + worker processes.

The scatter-gather tier (docs/serving.md, "Sharded serving") splits one
indexed corpus into N disjoint **slices by content date**, persists each
slice as its own ``wilson.snapshot/v2`` file, and records the layout in
a ``topology.json`` manifest. Each slice then boots as an ordinary
single-index server process (the unchanged asyncio app from
:mod:`repro.serve.app`), and a :class:`~repro.serve.router.TimelineRouter`
fans queries out across them.

Three properties make the merge *exact* rather than approximate:

* slices are disjoint and exhaustive -- every document lands in exactly
  one slice, so per-slice corpus statistics sum to the originals;
* each slice snapshot inherits the source's ``index_version``, so one
  version number describes the whole topology's content revision;
* the manifest stores each shard's local->global doc-id mapping
  (``doc_ids``), so the router can restore single-index ids -- and with
  them the exact tie-break order -- when merging rankings.

:class:`ShardWorkerPool` is the process-topology half: it boots R
worker subprocesses per slice (``replicas``) on ephemeral ports
(parsing the serve banner for each bound address) and tears them down
in parallel as a context manager. The CLI's ``serve --shards N
--replicas R`` composes all of this with a router in front; see
:func:`repro.serve.router.run_router`.
"""

from __future__ import annotations

import datetime
import functools
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.snapshot import save_snapshot, snapshot_info

PathLike = Union[str, pathlib.Path]

#: Magic string on the topology manifest.
TOPOLOGY_SCHEMA = "wilson.topology/v1"

#: Manifest filename inside a topology directory.
TOPOLOGY_MANIFEST = "topology.json"

_BANNER = re.compile(r"serving on http://([^:\s]+):(\d+)")


class TopologyError(RuntimeError):
    """A topology manifest or its slices are missing or inconsistent."""


@dataclass(frozen=True)
class ShardSlice:
    """One shard of a topology: a snapshot slice plus its layout facts.

    ``doc_ids`` maps slice-local document ids (0..documents-1, in slice
    insertion order) back to the source index's global ids -- the
    router's key to exact global tie-breaking. ``start``/``end`` are the
    slice's content-date range (inclusive); ``None``/``None`` for an
    empty slice.
    """

    shard_id: int
    path: str
    start: Optional[datetime.date]
    end: Optional[datetime.date]
    documents: int
    doc_ids: Tuple[int, ...]

    @functools.cached_property
    def global_ids(self) -> np.ndarray:
        """``doc_ids`` as one read-only int64 array, built on first use
        and kept: the router maps every merge's local ids through it."""
        ids = np.array(self.doc_ids, dtype=np.int64)
        ids.flags.writeable = False
        return ids

    def describe(self) -> str:
        """One human-readable layout line (used by banners and docs)."""
        if self.documents == 0:
            window = "empty"
        else:
            window = f"{self.start} .. {self.end}"
        return (
            f"shard {self.shard_id}: {self.documents} documents, "
            f"{window} ({pathlib.Path(self.path).name})"
        )


@dataclass(frozen=True)
class Topology:
    """A full shard layout: slices plus whole-corpus bookkeeping."""

    shards: Tuple[ShardSlice, ...]
    total_documents: int
    source_index_version: int
    directory: str = ""

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def window(
        self,
    ) -> Optional[Tuple[datetime.date, datetime.date]]:
        """The overall content-date span across all non-empty slices."""
        starts = [s.start for s in self.shards if s.start is not None]
        ends = [s.end for s in self.shards if s.end is not None]
        if not starts or not ends:
            return None
        return min(starts), max(ends)

    def save(self, directory: PathLike) -> pathlib.Path:
        """Write the ``topology.json`` manifest into *directory*."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = directory / TOPOLOGY_MANIFEST
        payload = {
            "schema": TOPOLOGY_SCHEMA,
            "total_documents": self.total_documents,
            "source_index_version": self.source_index_version,
            "shards": [
                {
                    "shard_id": shard.shard_id,
                    "path": shard.path,
                    "start": (
                        shard.start.isoformat()
                        if shard.start is not None
                        else None
                    ),
                    "end": (
                        shard.end.isoformat()
                        if shard.end is not None
                        else None
                    ),
                    "documents": shard.documents,
                    "doc_ids": list(shard.doc_ids),
                }
                for shard in self.shards
            ],
        }
        manifest.write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
        return manifest

    @classmethod
    def load(cls, directory: PathLike) -> "Topology":
        """Read a manifest written by :meth:`save`; validate its slices.

        Slice snapshot headers are checked (cheaply, via
        :func:`snapshot_info`) for existence and matching
        ``index_version``; payloads stay unread.
        """
        directory = pathlib.Path(directory)
        manifest = directory / TOPOLOGY_MANIFEST
        try:
            payload = json.loads(manifest.read_text(encoding="utf-8"))
        except OSError as exc:
            raise TopologyError(
                f"cannot read topology manifest: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise TopologyError(
                f"topology manifest is not JSON: {exc}"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != TOPOLOGY_SCHEMA
        ):
            raise TopologyError(
                f"not a {TOPOLOGY_SCHEMA} manifest: {manifest}"
            )
        source_version = int(payload["source_index_version"])
        shards: List[ShardSlice] = []
        for entry in payload.get("shards", []):
            slice_path = directory / entry["path"]
            from repro.search.snapshot import SnapshotError

            try:
                header = snapshot_info(slice_path)
            except SnapshotError as exc:
                raise TopologyError(
                    f"shard {entry['shard_id']} slice unreadable: {exc}"
                ) from exc
            if int(header["index_version"]) != source_version:
                raise TopologyError(
                    f"shard {entry['shard_id']} slice carries "
                    f"index_version {header['index_version']}, manifest "
                    f"expects {source_version}"
                )
            shards.append(
                ShardSlice(
                    shard_id=int(entry["shard_id"]),
                    path=str(slice_path),
                    start=(
                        datetime.date.fromisoformat(entry["start"])
                        if entry.get("start")
                        else None
                    ),
                    end=(
                        datetime.date.fromisoformat(entry["end"])
                        if entry.get("end")
                        else None
                    ),
                    documents=int(entry["documents"]),
                    doc_ids=tuple(int(i) for i in entry["doc_ids"]),
                )
            )
        return cls(
            shards=tuple(shards),
            total_documents=int(payload["total_documents"]),
            source_index_version=source_version,
            directory=str(directory),
        )


def plan_date_ranges(
    index: InvertedIndex, num_shards: int
) -> List[Tuple[Optional[datetime.date], Optional[datetime.date]]]:
    """Split the index's content dates into *num_shards* contiguous ranges.

    Greedy balanced partition: dates stay in chronological order (a
    slice is always one contiguous window, which keeps window-filtered
    fan-outs selective) and each slice targets ``documents /
    num_shards`` documents. A date's documents are never split across
    slices. Trailing shards of a topology wider than the corpus come out
    empty (``(None, None)``) rather than failing.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    ordinals, per_date, _ = index.date_window()
    if not len(ordinals):
        return [(None, None)] * num_shards
    dates = [datetime.date.fromordinal(o) for o in ordinals.tolist()]
    counts = per_date.tolist()
    total = sum(counts)
    target = total / num_shards
    ranges: List[Tuple[Optional[datetime.date], Optional[datetime.date]]] = []
    cursor = 0
    filled = 0
    for shard_id in range(num_shards):
        remaining_shards = num_shards - shard_id
        if cursor >= len(dates):
            ranges.append((None, None))
            continue
        if remaining_shards == 1:
            ranges.append((dates[cursor], dates[-1]))
            cursor = len(dates)
            continue
        start = cursor
        taken = 0
        # Take dates until this shard reaches its proportional target,
        # but always take at least one and always leave at least one
        # date per remaining shard when possible.
        while cursor < len(dates):
            dates_left_after = len(dates) - cursor - 1
            if (
                taken > 0
                and filled + taken >= target * (shard_id + 1)
            ):
                break
            if taken > 0 and dates_left_after < remaining_shards - 1:
                break
            taken += counts[cursor]
            cursor += 1
        filled += taken
        ranges.append((dates[start], dates[cursor - 1]))
    return ranges


def export_slices(
    index: InvertedIndex, out_dir: PathLike, num_shards: int
) -> Topology:
    """Partition *index* into slice snapshots + manifest under *out_dir*.

    Each slice is cut from the source's section arrays
    (:meth:`InvertedIndex.subset`): the documents in its date range, in
    source date-then-doc-id order, renumbered from 0 and stamped with
    the source's ``index_version`` -- so one version number describes
    the whole topology. It is written as a snapshot whose header carries
    ``slice`` metadata (shard id, shard count, date range) for O(1)
    layout introspection via :func:`snapshot_info`. Every worker of a
    slice maps the same file, so they share its index pages.
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ranges = plan_date_ranges(index, num_shards)
    shards: List[ShardSlice] = []
    for shard_id, (start, end) in enumerate(ranges):
        doc_ids = (
            index.date_window(start, end)[2]
            if start is not None
            else np.zeros(0, dtype=np.int64)
        )
        slice_index = index.subset(doc_ids)
        slice_name = f"shard-{shard_id:03d}.snap"
        save_snapshot(
            slice_index,
            out_dir / slice_name,
            extra={
                "slice": {
                    "shard_id": shard_id,
                    "num_shards": num_shards,
                    "start": start.isoformat() if start else None,
                    "end": end.isoformat() if end else None,
                },
            },
        )
        shards.append(
            ShardSlice(
                shard_id=shard_id,
                path=slice_name,
                start=start,
                end=end,
                documents=len(slice_index),
                doc_ids=tuple(doc_ids.tolist()),
            )
        )
    topology = Topology(
        shards=tuple(shards),
        total_documents=len(index),
        source_index_version=index.index_version,
        directory=str(out_dir),
    )
    topology.save(out_dir)
    # Re-load to run the manifest/slice consistency validation once at
    # export time, when a failure is still cheap to diagnose.
    return Topology.load(out_dir)


def export_engine_slices(
    engine: SearchEngine, out_dir: PathLike, num_shards: int
) -> Topology:
    """:func:`export_slices` over a :class:`SearchEngine`'s index."""
    return export_slices(engine.index, out_dir, num_shards)


@dataclass
class ShardWorker:
    """One booted worker process and its resolved address."""

    shard_id: int
    process: subprocess.Popen
    host: str
    port: int
    replica_id: int = 0

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"


class ShardWorkerPool:
    """Boot R serve processes per topology slice; context-managed teardown.

    Workers are ordinary ``python -m repro serve --snapshot <slice>
    --port 0`` subprocesses -- the identical single-index code path
    users run directly, which is what makes the byte-identity claim
    testable end to end. The pool parses each worker's readiness banner
    for its ephemeral port and exposes the resolved endpoints.

    With ``replicas > 1`` every slice boots that many identical worker
    processes. All replicas of a slice map the *same* snapshot file, so
    they resolve the same physical index pages -- R replicas cost
    roughly one snapshot plus R small Python heaps (docs/serving.md,
    "Replicated shards").
    """

    def __init__(
        self,
        topology: Topology,
        batch_window_ms: float = 2.0,
        boot_timeout_seconds: float = 60.0,
        extra_args: Sequence[str] = (),
        replicas: int = 1,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.topology = topology
        self.batch_window_ms = batch_window_ms
        self.boot_timeout_seconds = boot_timeout_seconds
        self.extra_args = tuple(extra_args)
        #: Worker processes per slice (the shard's failure domain width).
        self.replicas = replicas
        self.workers: List[ShardWorker] = []

    @property
    def endpoints(self) -> List[str]:
        """Every worker base URL, flat, in (shard, replica) boot order."""
        return [worker.base_url for worker in self.workers]

    @property
    def replica_groups(self) -> List[List[str]]:
        """Worker base URLs grouped per shard, in shard-id order --
        the shape :class:`~repro.serve.router.TimelineRouter` takes."""
        groups: List[List[str]] = [
            [] for _ in range(self.topology.num_shards)
        ]
        for worker in self.workers:
            groups[worker.shard_id].append(worker.base_url)
        return groups

    def start(self) -> List[ShardWorker]:
        """Boot every worker; raises on any boot failure (pool cleaned)."""
        import repro

        package_root = pathlib.Path(repro.__file__).resolve().parent.parent
        try:
            for shard in self.topology.shards:
                for replica_id in range(self.replicas):
                    command = [
                        sys.executable,
                        "-m",
                        "repro",
                        "serve",
                        "--snapshot",
                        str(shard.path),
                        "--port",
                        "0",
                        "--batch-window-ms",
                        str(self.batch_window_ms),
                        *self.extra_args,
                    ]
                    process = subprocess.Popen(
                        command,
                        stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT,
                        text=True,
                        env={
                            **os.environ,
                            "PYTHONPATH": str(package_root),
                            "PYTHONUNBUFFERED": "1",
                        },
                    )
                    host, port = self._await_banner(
                        process, shard.shard_id, replica_id
                    )
                    self.workers.append(
                        ShardWorker(
                            shard_id=shard.shard_id,
                            process=process,
                            host=host,
                            port=port,
                            replica_id=replica_id,
                        )
                    )
        except Exception:
            self.stop()
            raise
        return self.workers

    def _await_banner(
        self, process: subprocess.Popen, shard_id: int, replica_id: int = 0
    ) -> Tuple[str, int]:
        deadline = time.monotonic() + self.boot_timeout_seconds
        lines: List[str] = []
        assert process.stdout is not None
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                if process.poll() is not None:
                    break
                time.sleep(0.05)
                continue
            lines.append(line)
            match = _BANNER.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise TopologyError(
            f"shard {shard_id} replica {replica_id} worker failed to "
            f"boot within {self.boot_timeout_seconds:g}s; output:\n"
            + "".join(lines[-20:])
        )

    @staticmethod
    def _drain_worker(
        worker: ShardWorker, timeout_seconds: float
    ) -> None:
        """Await one SIGTERMed worker; SIGKILL it past its grace."""
        try:
            worker.process.wait(timeout=timeout_seconds)
        except subprocess.TimeoutExpired:
            worker.process.kill()
            worker.process.wait(timeout=5)
        if worker.process.stdout is not None:
            worker.process.stdout.close()

    def stop(self, timeout_seconds: float = 15.0) -> None:
        """SIGTERM every worker (graceful drain), SIGKILL stragglers.

        The waits run in parallel -- one thread per live worker, each
        granting the *full* grace period -- so total drain wall time
        tracks the slowest worker, not the sum. (The old sequential
        sweep let one hung worker burn the shared deadline and SIGKILL
        every sibling behind it after ~0.1 s of grace.)
        """
        for worker in self.workers:
            if worker.process.poll() is None:
                try:
                    worker.process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        threads = [
            threading.Thread(
                target=self._drain_worker,
                args=(worker, timeout_seconds),
                daemon=True,
            )
            for worker in self.workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.workers = []

    def __enter__(self) -> "ShardWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
