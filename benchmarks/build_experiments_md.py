#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the archived benchmark results.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/build_experiments_md.py

Each section pairs the paper's reported numbers (embedded in the result
files' notes) with the measured synthetic-data numbers and a verdict on
whether the paper's qualitative claim reproduced.
"""

from __future__ import annotations

import pathlib
import sys

RESULTS = pathlib.Path(__file__).parent / "results"
TARGET = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure in *WILSON* (EDBT 2021).
All measured numbers come from the **synthetic** timeline17/crisis-shaped
datasets (see DESIGN.md for the substitution rationale), regenerated by
`pytest benchmarks/ --benchmark-only`; the raw tables live in
`benchmarks/results/`. Absolute values are not expected to match the
paper (different corpora); the **shape** — who wins, by what rough
factor, where the trade-offs sit — is what each benchmark asserts.

Reading guide: every section shows the measured table (with the paper's
numbers quoted in its notes) followed by the verdict of the shape checks
the benchmark enforces.

This file is generated by `benchmarks/build_experiments_md.py`; edit the
commentary there, not here.
"""

# (section title, result files, commentary)
SECTIONS = [
    (
        "Table 2 — date-selection edge weights W1–W4",
        ["table2_timeline17.txt", "table2_crisis.txt"],
        """**Paper's claim:** all four edge-weight schemes perform
comparably — the date reference structure alone carries the salience
signal — so the cheap W3 is a sound default.

**Reproduced.** All weights land in one band on both datasets (the bench
asserts min ≥ 50% of max date F1); W4 (query BM25) is the weakest, as in
the paper. On synthetic data W1 slightly edges W3 (the paper had W3
slightly ahead); the library follows the paper and defaults to W3.""",
    ),
    (
        "Table 3 — date coverage: Uniform / W3 / W3+Recency",
        ["table3_timeline17.txt", "table3_crisis.txt"],
        """**Paper's claim:** truly uniform dates maximise raw ±3-day
coverage but have the worst date F1 and the worst summaries; the recency
adjustment recovers coverage relative to plain W3 without giving up F1,
and improves ROUGE.

**Reproduced.** Uniform has the worst date F1 and worst agreement ROUGE
on both datasets; `W3 + Recency` improves both coverage and date F1 over
plain W3 (on crisis it also lifts every ROUGE metric). One deviation: on
our sparser corpora uniform's ±3 coverage is not always the highest,
because "uniform" snaps to days that actually carry sentences.""",
    ),
    (
        "Table 4 — dataset overview",
        ["table4_datasets.txt"],
        """**Synthetic stand-ins.** Topic and timeline counts (9/19 and
4/22) match the paper exactly by construction; document/sentence volumes
scale with the bench scale (defaults: 10% timeline17, 2% crisis). The
structural relations the paper's Table 4 conveys hold: crisis is larger
per timeline, longer-spanning, with more compact reference summaries.""",
    ),
    (
        "Table 5 — timeline17 vs. all baselines",
        ["table5_timeline17.txt"],
        """**Paper's claim:** WILSON beats every baseline on ROUGE-1 and
ROUGE-S\\*, losing only ROUGE-2 to two supervised systems.

**Largely reproduced.** WILSON dominates Random and every unsupervised
baseline (Chieu, MEAD, ETS, Liang-style evolution) on all three metrics,
and sits within 10% of the best overall system. Deviation: our
supervised baselines (ridge regression / low-rank) are stronger relative
to WILSON than the paper's, because the synthetic topics are
structurally identical — a supervised model transfers across them far
better than across real, heterogeneous news topics.""",
    ),
    (
        "Table 6 — crisis vs. supervised baselines",
        ["table6_crisis.txt"],
        """**Paper's claim:** WILSON's margin over the supervised systems
grows on the longer, larger crisis data.

**Reproduced in ordering, compressed in margin.** WILSON posts the best
ROUGE-2 and is within a few percent of the best ROUGE-1/S\\*; as in
Table 5, supervised transfer is unrealistically easy between synthetic
topics, which compresses the margins the paper reports.""",
    ),
    (
        "Table 7 — head-to-head with TILSE + ablations",
        ["table7_timeline17.txt", "table7_crisis.txt"],
        """**Paper's claims:** (1) WILSON beats ASMDS and TLSConstraints
on every concat/agreement/align ROUGE metric, significantly; (2) the
gains concentrate in the time-sensitive metrics; (3) WILSON-uniform is
the worst variant; (4) recency and post-processing each add a small
increment; (5) WILSON is ~2 orders of magnitude faster.

**Reproduced (1)–(3):** WILSON beats both submodular systems on all six
ROUGE columns with p < 0.001 (approximate randomization), the advantage
is largest on agreement/align, and WILSON-uniform is clearly the worst
variant on every time-sensitive metric. **(4) partially:** the
post-processing increment reproduces (w/o Post < WILSON); the recency
increment over WILSON-Tran is within noise on the keyword-filtered pools
(it shows clearly on the unfiltered pools of Table 3). **(5)** holds at
controlled corpus sizes — see Figure 2; at this bench scale the filtered
pools are small enough that both frameworks answer in milliseconds, so
the table's Time column is not informative here.""",
    ),
    (
        "Figure 2 — running time vs. corpus size",
        ["figure2_runtime.txt"],
        """**Paper's claim:** the submodular frameworks grow quadratically
with corpus size; WILSON grows ~linearly, yielding a speedup that
reaches two orders of magnitude at paper-scale corpora (~37k sentences).

**Reproduced.** Over a 10x corpus growth the submodular runtime grows
by over two orders of magnitude (quadratic) while WILSON grows roughly
10x (near-linear), and the speed gap widens monotonically with corpus
size (all asserted). Extrapolating the measured quadratic to the paper's
corpus sizes (~37k sentences) reproduces the two-orders-of-magnitude
speedup claim.""",
    ),
    (
        "Figure 2 companion — per-stage breakdown and the analysis cache",
        ["figure2_stage_breakdown.txt"],
        """**Beyond the paper:** where WILSON's own milliseconds go at the
largest Figure-2 corpus size, with the shared text-analysis cache and
the vectorised redundancy/BM25 hot paths. The before/after comparison
ran once against a "before" configuration that disabled the cache, ran
the per-pair dict-cosine redundancy loop and was patched back to the
seed's dict-loop BM25: it measured ~1.6x end to end, with the
post-processing share falling from ~33% of the run to under 10% (the
notes below). That configuration and its two `BENCH_ASSERT=1` gates
(≥1.5x, shrinking post-processing share) are retired; the 1.6x stays
in `benchmarks/baselines/BENCH_figure2_stage_breakdown.json`, and the
bench now times the shipped pipeline only. The run tokenises each
distinct sentence exactly once (misses == distinct sentences; every
later stage's lookup is a hit).""",
    ),
    (
        "Sharded sweep — multi-topic batch runtime (beyond the paper)",
        ["sharded_runner.txt"],
        """**Beyond the paper:** WILSON's divide-and-conquer design makes
a dataset sweep embarrassingly parallel *across* topics, and
`repro.runtime` exploits that at the process level: the same sweep runs
sequentially and fanned over 2/4/8 worker processes with per-shard fault
isolation (crash → retry with backoff → degraded result; hang → killed
at the deadline). The bench always asserts the merged metrics are
identical in every configuration — parallelism must never change the
answer (see `tests/test_runtime_equivalence.py` for the byte-level
proof) — while the >1.7x-at-4-workers wall-clock claim is only enforced
under `BENCH_ASSERT=1`, because it needs four idle cores (a single-core
container executes the same sweep correctly but with no speedup, as the
recorded table shows when generated on one).""",
    ),
    (
        "Figure 4 — CDF of selected dates",
        ["figure4_date_cdf.txt"],
        """**Paper's claim:** plain PageRank date selection (Tran et al.)
and TILSE skew toward old dates; ground-truth timelines are roughly
uniform; the recency adjustment moves the selection toward uniform.

**Reproduced.** At mid-window the plain-PageRank CDF sits above the
recency-adjusted CDF (old-date skew), the ground-truth curve tracks the
diagonal, and the recency curve deviates less from uniform than plain
PageRank (all asserted).""",
    ),
    (
        "Figure 5 — post-processing vs. summary length",
        ["figure5_postprocessing.txt"],
        """**Paper's claim:** with more sentences per day, naive
concatenation of daily summaries accumulates cross-date redundancy;
post-processing increasingly helps, while absolute F1 declines with
output length.

**Reproduced.** Both curves decline with N; the post-processing
advantage is zero at N=1 (nothing to deduplicate) and positive from
N=2 onward, peaking around N=3 (asserted).""",
    ),
    (
        "Table 8 — empirical upper bounds",
        ["table8_timeline17.txt", "table8_crisis.txt"],
        """**Paper's claim:** with ground-truth dates, even a simple
unsupervised daily summariser produces reasonable timelines (the
two-stage bound); the fully supervised submodular bound is higher; no
real system reaches the two-stage bound.

**Reproduced.** On both datasets: supervised bound > two-stage bound >
WILSON (the best real system), with clear margins (asserted).""",
    ),
    (
        "Figure 6 — automatic date compression",
        ["figure6_timeline17.txt", "figure6_crisis.txt"],
        """**Paper's claim:** predicting the timeline length by clustering
embedded daily summaries (Affinity Propagation) performs well on both
datasets, while any fixed compression rate is only right for one regime.

**Reproduced.** The automatic prediction has the lowest MAPE on both
datasets, beating every fixed rate (the bench asserts it beats the worst
rate and stays within 2x of the best).""",
    ),
    (
        "Table 9 — journalist evaluation",
        ["table9_journalist.txt"],
        """**Paper's study:** two Washington Post journalists ranked
ASMDS, TLSConstraints and WILSON timelines against the human reference;
WILSON earned the best MRR/DCG.

**Simulated.** Human judges are replaced by seeded proxies scoring
content fidelity, date coverage and readability (components min-max
normalised per evaluation — a side-by-side comparison perceives relative
quality). WILSON earns the most first places and the best MRR/DCG
(asserted). Two honest deviations: the proxies are more consistent than
humans, so WILSON's win is larger than the paper's 5/10 firsts; and the
paper's intriguing human-vs-ROUGE dissociation (ASMDS out-ranking the
higher-ROUGE TLSConstraints) does not reproduce, precisely because our
proxies are content-driven.""",
    ),
    (
        "Section 5 — real-time system",
        [
            "realtime_ingestion.txt",
            "realtime_query.txt",
            "realtime_warm_vs_cold.txt",
        ],
        """**Paper's demo:** a 1M-article ElasticSearch-backed deployment
serving keyword + duration queries "in seconds".

**Reproduced at bench scale.** The in-process engine ingests articles
incrementally and serves a keyword+window query (retrieval + WILSON
generation) in tens of milliseconds on the bench corpus; the
sub-2-second end-to-end latency bound is enforced under
`BENCH_ASSERT=1` (wall-clock bounds flake on loaded shared runners).
The system shares one token cache between its search engine and its
pipeline, so repeat queries skip tokenisation entirely: the
warm-vs-cold bench clears the cache to simulate a first-ever query and
checks the warm repeat is cheaper (also gated) while always asserting
an identical timeline.""",
    ),
    (
        "HTTP serving — load, caching and load-shedding (beyond the paper)",
        ["serve_load.txt"],
        """**Beyond the paper:** the paper's Section-5 demo fronts WILSON
with a search engine; `repro.serve` wraps the same real-time system in
an asyncio HTTP service with admission control, micro-batching and a
versioned LRU+TTL result cache. The closed-loop bench drives 1/8/32
concurrent clients in a cold regime (every request a distinct date
window — full retrieve+summarise) and a warm regime (one repeated
query — cache hits keyed on `(normalized query, index_version)`).
Always asserted: a saturated server (`max_inflight=1`, 16 clients)
sheds with 429s and returns **zero** 5xx, and the served timeline is
byte-identical to the direct library call. Under `BENCH_ASSERT=1` the
warm-cache p50 must be ≥5x faster than cold (measured ~60x at 1
client); the ratio is informational by default because it is a
wall-clock claim.""",
    ),
    (
        "Zero-copy snapshot tier — mmap boot and fleet memory "
        "(beyond the paper)",
        ["mmap_boot.txt"],
        """**Beyond the paper:** `wilson.snapshot/v2` stores every
numeric index structure as a raw little-endian section at a page-aligned
offset, so `serve --snapshot` maps the file `MAP_SHARED` read-only and
serves queries straight from the OS page cache through
`repro.search.mapped.MappedSnapshotIndex` — no decompress, no rebuild,
and N workers share one physical copy of the index. Always asserted:
served bytes identical across the source index and its copy and mmap
loads. Under `BENCH_ASSERT=1`: boot-to-first-200 ≥3x faster than a
copy-mode load of the same file (measured ~20x) and a 4-worker mmap
fleet adds ≤1.5x one worker's unique index memory (measured ~1.1x, vs
~4x for copy mode — per-worker `smaps_rollup` private/shared deltas
with the fleet mapped concurrently).""",
    ),
    (
        "Extension — mixed feed → storylines → timelines",
        ["storyline_pipeline.txt"],
        """The paper's introduction positions story-separation systems as
the preprocessing stage before per-story summarisation. This extension
exercises the full path on a shuffled three-topic feed: LSA + k-means
storyline separation recovers the topics with ≥75% purity (asserted;
measured near-perfect), and WILSON timelines generated from the
*recovered* corpora still achieve strong date F1 against each topic's
ground truth.""",
    ),
    (
        "Ablations — design-choice sweeps (beyond the paper)",
        [
            "ablation_redundancy_threshold.txt",
            "ablation_damping.txt",
            "ablation_query_bias.txt",
            "ablation_compression.txt",
            "ablation_date_selectors.txt",
        ],
        """Extra sweeps covering knobs the paper fixes without analysis:
the 0.5 redundancy threshold sits in the good band (within 5% of the
best threshold); the 0.85 damping choice is not load-bearing (whole
sweep within 20%); and the query-biased daily summariser — our
implementation of the paper's "balance local and global summarization"
future-work direction — degrades gracefully as the global blend grows;
in fact a mild blend (0.2) slightly *improves* concat and agreement
ROUGE-2 on the synthetic data, supporting the paper's conjecture that
balancing local and global summarisation is a promising direction.
A fourth sweep covers deletion-based summary compression (the safe
variant of the abstractive direction): it shortens the output while
leaving ROUGE within noise — attribution tails and filler clauses carry
no reference-matching content.
A fifth sweep isolates the date stage across selection strategies: the
reference-based family (mention counting / PageRank) decisively beats
volume and burst heuristics; within the family, gap-weighted mention
counting even edges the full random walk on this synthetic data, whose
recaps cite salient events *directly* — real corpora add the indirect
reference chains that PageRank propagation exploits.""",
    ),
]


#: Marker comments delimiting the Perf trajectory table. The table body
#: is owned by ``report_baselines.py``; regeneration preserves whatever
#: currently sits between the markers.
TRAJECTORY_START = "<!-- perf-trajectory:start -->"
TRAJECTORY_END = "<!-- perf-trajectory:end -->"

_TRAJECTORY_PLACEHOLDER = (
    f"{TRAJECTORY_START}\n"
    "*(populate with `python benchmarks/report_baselines.py "
    "--current <dir>`)*\n"
    f"{TRAJECTORY_END}"
)


def _trajectory_block() -> str:
    """The current marker-delimited trajectory table, or a placeholder."""
    if TARGET.exists():
        text = TARGET.read_text(encoding="utf-8")
        start = text.find(TRAJECTORY_START)
        end = text.find(TRAJECTORY_END)
        if 0 <= start < end:
            return text[start : end + len(TRAJECTORY_END)]
    return _TRAJECTORY_PLACEHOLDER


def build() -> str:
    parts = [HEADER]
    missing = []
    for title, files, commentary in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(commentary.strip() + "\n")
        for name in files:
            path = RESULTS / name
            if not path.exists():
                missing.append(name)
                parts.append(f"*(missing result file: `{name}`)*\n")
                continue
            parts.append("```")
            parts.append(path.read_text(encoding="utf-8").rstrip())
            parts.append("```\n")
    parts.append("\n## Perf trajectory\n")
    parts.append(
        "How the tracked perf metrics moved against the committed\n"
        "`benchmarks/baselines/` snapshots; rewritten in place by\n"
        "`benchmarks/report_baselines.py` (gating lives in\n"
        "`compare_baselines.py`).\n"
    )
    parts.append(_trajectory_block() + "\n")
    if missing:
        print(f"warning: missing results: {missing}", file=sys.stderr)
    return "\n".join(parts)


if __name__ == "__main__":
    TARGET.write_text(build(), encoding="utf-8")
    print(f"wrote {TARGET}")
