"""Checkers for the responses the benchmark collects.

Each checker returns a list of problems (empty when the response is
right), so a run can report every fault it saw instead of stopping at the
first. The self-tests in ``test_checks.py`` feed them doctored responses.
"""

from __future__ import annotations

import datetime
import json
from typing import Any, Iterable, List, Optional, Set, Tuple

WIRE_SCHEMA = "wilson.serve/v1"


def _decode(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def timeline_of(body: bytes) -> Optional[dict]:
    """``result.timeline`` of a timeline envelope, or None."""
    envelope = _decode(body)
    if not isinstance(envelope, dict):
        return None
    result = envelope.get("result")
    if not isinstance(result, dict):
        return None
    timeline = result.get("timeline")
    return timeline if isinstance(timeline, dict) else None


def check_timeline(
    status: int,
    body: bytes,
    request,
    sentences: Set[str],
    expect_cache: str = "miss",
) -> List[str]:
    """Problems of one ``POST /v1/timeline`` response to *request*.

    The response must be a 200 ``wilson.serve/v1`` envelope in cache
    state *expect_cache*, with at most ``num_dates`` dates, each inside
    the request window, at most ``num_sentences`` sentences per date, and
    only sentences from *sentences* (the generated corpus).
    """
    if status != 200:
        return [f"HTTP {status}"]
    envelope = _decode(body)
    if not isinstance(envelope, dict):
        return ["body is not a JSON object"]
    problems = []
    if envelope.get("schema") != WIRE_SCHEMA:
        problems.append(f"schema {envelope.get('schema')!r}")
    if envelope.get("cache") != expect_cache:
        problems.append(
            f"cache {envelope.get('cache')!r}, expected {expect_cache!r}"
        )
    if "degraded_shards" in envelope:
        problems.append(f"degraded shards {envelope['degraded_shards']}")
    timeline = timeline_of(body)
    if timeline is None:
        return problems + ["no result.timeline"]
    if len(timeline) > request.num_dates:
        problems.append(
            f"{len(timeline)} dates, more than num_dates "
            f"{request.num_dates}"
        )
    for raw_date, day in timeline.items():
        try:
            date = datetime.date.fromisoformat(raw_date)
        except ValueError:
            problems.append(f"bad date {raw_date!r}")
            continue
        if not request.start <= date <= request.end:
            problems.append(
                f"date {raw_date} outside {request.start}..{request.end}"
            )
        if not isinstance(day, list):
            problems.append(f"date {raw_date} holds no sentence list")
            continue
        if len(day) > request.num_sentences:
            problems.append(
                f"{len(day)} sentences on {raw_date}, more than "
                f"num_sentences {request.num_sentences}"
            )
        for sentence in day:
            if sentence not in sentences:
                problems.append(
                    f"sentence not in the corpus: {str(sentence)[:60]!r}"
                )
    return problems


def canonical(payload: Any) -> bytes:
    """The serving tier's canonical JSON bytes (sorted, compact)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def check_reference(body: bytes, reference_timeline: dict) -> List[str]:
    """Problems when ``result.timeline`` differs from the reference.

    Compares canonical bytes, so a single changed, added, dropped or
    reordered sentence is a mismatch.
    """
    timeline = timeline_of(body)
    if timeline is None:
        return ["no result.timeline"]
    if canonical(timeline) == canonical(reference_timeline):
        return []
    served = {d: list(s) for d, s in timeline.items()}
    expected = {d: list(s) for d, s in reference_timeline.items()}
    differing = sorted(
        d for d in set(served) | set(expected)
        if served.get(d) != expected.get(d)
    )
    first = differing[0]
    return [
        f"timeline differs from the reference on {differing[:5]}; "
        f"{first} served {served.get(first)!r:.160}, "
        f"expected {expected.get(first)!r:.160}"
    ]


def check_retrieval(body: bytes, candidates: Iterable[Tuple[str, str]]) -> List[str]:
    """Problems when a timeline was not built from *candidates*.

    *candidates* are the ``(iso date, sentence)`` pairs a reference
    index retrieves for the request. The served ``num_candidates`` must
    equal their number, and every served sentence must be one of them,
    on its date. Unlike :func:`check_reference` this does not depend on
    how near-ties in the sentence ranking break.
    """
    envelope = _decode(body)
    result = envelope.get("result") if isinstance(envelope, dict) else None
    if not isinstance(result, dict):
        return ["no result"]
    pool = list(candidates)
    members = set(pool)
    problems = []
    if result.get("num_candidates") != len(pool):
        problems.append(
            f"{result.get('num_candidates')!r} candidates, the reference "
            f"index retrieves {len(pool)}"
        )
    for date, day in (timeline_of(body) or {}).items():
        for sentence in day:
            if (date, sentence) not in members:
                problems.append(
                    f"{date} {str(sentence)[:60]!r} is not a candidate "
                    "of the reference index on that date"
                )
    return problems


def check_probe(
    write_status: int,
    write_body: bytes,
    read_status: int,
    read_body: bytes,
    probe,
) -> List[str]:
    """Problems of one read-your-write probe.

    A sync write must answer 200 (docs/ingest.md: the caller can then
    read it back), and the read-back of the probe window must be a fresh
    computation that contains the probe's sentence.
    """
    problems = []
    if write_status != 200:
        problems.append(f"sync write answered HTTP {write_status}")
    written = _decode(write_body)
    if isinstance(written, dict) and written.get("accepted") != 1:
        problems.append(f"write accepted {written.get('accepted')!r}")
    if read_status != 200:
        return problems + [f"read-back answered HTTP {read_status}"]
    envelope = _decode(read_body)
    if isinstance(envelope, dict) and envelope.get("cache") != "miss":
        problems.append(f"read-back served from cache {envelope.get('cache')!r}")
    timeline = timeline_of(read_body) or {}
    served = [s for day in timeline.values() for s in day]
    if probe.sentence not in served:
        problems.append("read-back misses the written sentence (stale)")
    return problems


def check_write(status: int, body: bytes, batch_size: int) -> List[str]:
    """Problems of one timed sync write through the router."""
    if status not in (200, 202):
        return [f"HTTP {status}"]
    payload = _decode(body)
    if not isinstance(payload, dict):
        return ["body is not a JSON object"]
    problems = []
    if payload.get("accepted") != batch_size:
        problems.append(
            f"accepted {payload.get('accepted')!r} of {batch_size}"
        )
    for field in ("rejected", "failed"):
        if payload.get(field, 0):
            problems.append(f"{field} {payload[field]!r}")
    return problems


def check_drain(exit_code: Optional[int], output: Iterable[str]) -> List[str]:
    """Problems of one SIGTERMed serving process."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if not any("shutdown: drained cleanly" in line for line in output):
        problems.append("no 'shutdown: drained cleanly' line")
    return problems
