"""PageRank and personalized PageRank by power iteration.

The paper runs PageRank twice per timeline: once on the date reference graph
(date selection, Section 2.2 -- with a personalised restart distribution for
the recency adjustment, Section 2.2.1) and once per selected day on the BM25
sentence graph (TextRank daily summarisation, Section 2.3). The paper uses
NetworkX with the default damping factor 0.85; this implementation matches
NetworkX's weighted-PageRank semantics (dangling nodes redistribute their
mass according to the restart distribution) and is validated against
NetworkX in the test suite.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional

import numpy as np

from repro import kernels
from repro.graph.graphs import WeightedDigraph
from repro.obs.profile import profiled
from repro.obs.trace import Tracer, ensure_tracer

Node = Hashable

#: NetworkX-compatible default damping factor.
DEFAULT_DAMPING = 0.85


@profiled(name="pagerank_matrix")
def pagerank_matrix(
    adjacency: np.ndarray,
    damping: float = DEFAULT_DAMPING,
    personalization: Optional[np.ndarray] = None,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
    tracer: Optional[Tracer] = None,
    counter_prefix: str = "pagerank",
) -> np.ndarray:
    """PageRank over a dense weighted adjacency matrix.

    Parameters
    ----------
    adjacency:
        ``A[i, j]`` is the weight of edge ``i -> j``. Weights must be
        non-negative.
    damping:
        Probability of following an edge rather than teleporting.
    personalization:
        Restart distribution (need not be normalised), or a ``(K, n)``
        block of them, one per row, all run in one batched power
        iteration; each row's result is bit-identical to passing that
        row alone. ``None`` means uniform. Zero-sum rows are rejected.
    max_iterations, tolerance:
        Power-iteration loop controls; convergence is declared when the L1
        change drops below ``tolerance * n``.
    tracer, counter_prefix:
        Optional :class:`~repro.obs.trace.Tracer`; each call counts
        ``<counter_prefix>_runs`` (1 per restart vector) and
        ``<counter_prefix>_iterations`` (power iterations executed,
        summed over the vectors). Callers namespace the prefix, e.g.
        ``date_selection.pagerank`` -- see docs/observability.md.

    Returns
    -------
    A probability vector over the nodes (sums to 1), or a ``(K, n)``
    block of them for a block of restart vectors.
    """
    tracer = ensure_tracer(tracer)
    matrix = np.asarray(adjacency, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {matrix.shape}")
    if (matrix < 0).any():
        raise ValueError("adjacency weights must be non-negative")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie in (0, 1), got {damping}")
    n = matrix.shape[0]

    if personalization is None:
        restart = np.full(n, 1.0 / max(n, 1), dtype=np.float64)
    else:
        # C order: each row's sum must reduce a contiguous row.
        restart = np.ascontiguousarray(personalization, dtype=np.float64)
        if restart.ndim not in (1, 2) or restart.shape[-1] != n:
            raise ValueError(
                f"personalization must have shape ({n},) or (K, {n}), "
                f"got {restart.shape}"
            )
    runs = 1 if restart.ndim == 1 else len(restart)
    if n == 0:
        tracer.count(f"{counter_prefix}_runs", runs)
        return np.zeros(restart.shape, dtype=np.float64)
    if personalization is not None:
        if (restart < 0).any():
            raise ValueError("personalization weights must be non-negative")
        totals = restart.sum(axis=-1, keepdims=True)
        if (totals <= 0).any():
            raise ValueError(
                "personalization must have positive mass in every row"
            )
        restart = restart / totals

    out_weights = matrix.sum(axis=1)
    dangling = out_weights == 0
    safe = np.where(dangling, 1.0, out_weights)
    transition = matrix / safe[:, None]  # row-stochastic except dangling rows

    rank, iterations = kernels.pagerank_iterate(
        transition,
        restart,
        dangling,
        damping,
        max_iterations,
        tolerance,
    )
    tracer.count(f"{counter_prefix}_runs", runs)
    tracer.count(f"{counter_prefix}_iterations", int(np.sum(iterations)))
    return rank


def pagerank(
    graph: WeightedDigraph,
    damping: float = DEFAULT_DAMPING,
    personalization: Optional[Mapping[Node, float]] = None,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
    tracer: Optional[Tracer] = None,
    counter_prefix: str = "pagerank",
) -> Dict[Node, float]:
    """PageRank over a :class:`WeightedDigraph`; returns ``node -> score``."""
    adjacency, order = graph.to_adjacency()
    vector: Optional[np.ndarray] = None
    if personalization is not None:
        vector = np.array(
            [float(personalization.get(node, 0.0)) for node in order],
            dtype=np.float64,
        )
    scores = pagerank_matrix(
        adjacency,
        damping=damping,
        personalization=vector,
        max_iterations=max_iterations,
        tolerance=tolerance,
        tracer=tracer,
        counter_prefix=counter_prefix,
    )
    return {node: float(score) for node, score in zip(order, scores)}


def personalized_pagerank(
    graph: WeightedDigraph,
    personalization: Mapping[Node, float],
    damping: float = DEFAULT_DAMPING,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
) -> Dict[Node, float]:
    """Personalized PageRank (non-uniform restart distribution)."""
    return pagerank(
        graph,
        damping=damping,
        personalization=personalization,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )
