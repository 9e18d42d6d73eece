"""Selection specs: the declarative contract between search and backends.

A main search algorithm (§III.A) is, per iteration, one *selection rule*
over the ``(B, n)`` flip-gain matrix.  :class:`SelectionSpec` describes
that rule declaratively — a kind tag plus per-iteration parameter tables —
so a backend can *lower* the whole main phase into one fused kernel
invocation instead of one Python-level ``select → flip → record → fold``
round-trip per flip (DESIGN.md §6).

``MainSearch.lower`` produces the spec; ``MainSearch.select`` remains the
stepwise reference implementation, and the parity tests assert that a
lowered phase reproduces the stepwise trajectory bit-exactly.

Every per-iteration scalar the reference computes inline (MaxMin's cubic
annealing fraction, RandomMin's candidate probability, CyclicMin's window
width) is precomputed here **by the same Python expressions** into tables
indexed by the 0-based iteration — which is what makes the fused kernels'
float arithmetic bit-identical to the reference's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KIND_CYCLIC_WINDOW",
    "KIND_FIXED_SEQUENCE",
    "KIND_MAXMIN_THRESHOLD",
    "KIND_POSITIVE_MIN",
    "KIND_RANDOM_CANDIDATE_MIN",
    "SelectionSpec",
]

#: MaxMin (§III.A.3): random candidate under a cubic-annealed Δ threshold.
#: ``schedule[t]`` is the annealing fraction ``((T−t−1)/T)³`` (0-based t).
KIND_MAXMIN_THRESHOLD = "maxmin-threshold"
#: CyclicMin (§III.A.4): argmin inside a sliding window; ``widths[t]`` is
#: the window width, ``cursor`` the device-owned per-row start position.
KIND_CYCLIC_WINDOW = "cyclic-window"
#: RandomMin (§III.A.5): argmin among Bernoulli candidates;
#: ``thresholds[t]`` is the integer key threshold for ``p(t)``.
KIND_RANDOM_CANDIDATE_MIN = "random-candidate-min"
#: PositiveMin (§III.A.6): random candidate with Δ ≤ posminΔ.
KIND_POSITIVE_MIN = "positive-min"
#: TwoNeighbor (§III.A.7): the fixed flip sequence in ``sequence``.
KIND_FIXED_SEQUENCE = "fixed-sequence"


@dataclass(frozen=True)
class SelectionSpec:
    """One lowered main-search selection rule.

    Frozen so a spec can be cached per (iterations, batch) and shared
    across phases; the arrays it references are read-only parameter tables
    except ``cursor``, which is the algorithm's device-owned per-row state
    and is advanced in place by whichever path (fused or stepwise) runs.
    """

    #: one of the ``KIND_*`` tags above
    kind: str
    #: whether the tabu mask applies (False for TwoNeighbor)
    supports_tabu: bool = True
    #: whether the rule consumes RNG lanes
    uses_rng: bool = True
    #: per-iteration float64 table (MaxMin annealing fraction)
    schedule: np.ndarray | None = None
    #: per-iteration int64 key thresholds (RandomMin Bernoulli)
    thresholds: np.ndarray | None = None
    #: per-iteration int64 window widths (CyclicMin)
    widths: np.ndarray | None = None
    #: fixed int64 flip sequence (TwoNeighbor)
    sequence: np.ndarray | None = None
    #: per-row int64 window cursor, mutated in place (CyclicMin)
    cursor: np.ndarray | None = None
    #: one past the largest bit ``sequence`` names (0 without one), found
    #: once when the spec is built so a backend checks it against ``n``
    #: without scanning the sequence
    sequence_end: int = field(init=False, default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        sequence = self.sequence
        if sequence is not None:
            if not sequence.size or sequence.min() < 0:
                raise ValueError("a fixed sequence must name bits of the model")
            object.__setattr__(self, "sequence_end", int(sequence.max()) + 1)
