"""Sparse QUBO models: the memory path for annealer-scale instances.

The paper's QASP instances live on the Pegasus working graph — 5627 bits
but only ~40k couplers, i.e. 0.25 % density.  A dense coupling matrix at
that size costs ~254 MB; :class:`SparseQUBOModel` stores the couplings in
CSR instead and plugs into the *same* solver stack: it exposes the exact
read interface (`n`, `couplings`, `linear`, `energy`, `energies`,
`delta_vector`) consumed by :class:`~repro.core.delta.BatchDeltaState`,
which switches to CSR row-gather updates automatically (O(degree) per
neighbour instead of O(n) per flip — the sparse analogue of the paper's
companion work [9] on sparse QUBO).

Integer weights stay in exact int64 arithmetic, so sparse and dense runs of
the same seed are bit-identical (asserted in tests).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.core.ising import IsingModel
from repro.core.qubo import QUBOModel
from repro.utils.validation import check_bit_vector

__all__ = ["SparseQUBOModel", "sparse_ising_to_qubo"]


class SparseQUBOModel:
    """A QUBO model with CSR couplings (drop-in for :class:`QUBOModel`)."""

    __slots__ = ("_upper", "_couplings", "_linear", "name", "__weakref__")

    def __init__(self, n: int, terms: dict, name: str = "") -> None:
        """Build from ``{(i, j): weight}``; ``(i, i)`` are linear terms.

        Mirror entries ``(i, j)``/``(j, i)`` accumulate, as in
        :meth:`QUBOModel.from_dict`.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        linear = np.zeros(n, dtype=np.int64)
        rows, cols, vals = [], [], []
        for (i, j), w in terms.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index ({i}, {j}) out of range for n={n}")
            w = int(w)
            if i == j:
                linear[i] += w
            else:
                rows.append(min(i, j))
                cols.append(max(i, j))
                vals.append(w)
        upper = sp.csr_array(
            (np.array(vals, dtype=np.int64), (rows, cols)),
            shape=(n, n),
            dtype=np.int64,
        )
        upper.sum_duplicates()
        upper.eliminate_zeros()
        self._upper = upper
        couplings = (upper + upper.T).tocsr()
        couplings.eliminate_zeros()
        self._couplings = couplings
        self._linear = linear
        self.name = name or f"sparse-qubo-{n}"

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of binary variables."""
        return self._linear.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Arithmetic dtype (always int64 for sparse models)."""
        return np.dtype(np.int64)

    @property
    def couplings(self) -> sp.csr_array:
        """Symmetric off-diagonal couplings as CSR."""
        return self._couplings

    @property
    def linear(self) -> np.ndarray:
        """Linear terms."""
        v = self._linear.view()
        v.flags.writeable = False
        return v

    @property
    def num_interactions(self) -> int:
        """Number of non-zero off-diagonal couplings (graph edges)."""
        return int(self._upper.nnz)

    @property
    def density(self) -> float:
        """Fraction of possible couplings present."""
        possible = self.n * (self.n - 1) // 2
        return self.num_interactions / possible if possible else 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, model: QUBOModel) -> "SparseQUBOModel":
        """Convert a dense model (must have integer weights)."""
        if not np.issubdtype(model.dtype, np.integer):
            raise ValueError("sparse models require integer weights")
        out = cls.__new__(cls)
        upper = sp.csr_array(sp.triu(np.asarray(model.upper), k=1, format="csr"))
        out._upper = upper.astype(np.int64)
        couplings = (out._upper + out._upper.T).tocsr()
        couplings.eliminate_zeros()
        out._couplings = couplings
        out._linear = np.asarray(model.linear, dtype=np.int64).copy()
        out.name = model.name
        return out

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of the upper-triangular form (linear terms on the
        diagonal) as ``(rows, cols, weights)`` int64 arrays in row-major
        order — equal to :meth:`QUBOModel.triples` of :meth:`to_dense`."""
        coo = self._upper.tocoo()
        diag = np.flatnonzero(self._linear)
        rows = np.concatenate((coo.row, diag)).astype(np.int64)
        cols = np.concatenate((coo.col, diag)).astype(np.int64)
        weights = np.concatenate((coo.data, self._linear[diag])).astype(np.int64)
        keep = weights != 0
        order = np.lexsort((cols[keep], rows[keep]))
        return rows[keep][order], cols[keep][order], weights[keep][order]

    def to_dense(self) -> QUBOModel:
        """Materialize the equivalent dense model."""
        mat = self._upper.toarray() + np.diag(self._linear)
        return QUBOModel(mat, name=self.name)

    # ------------------------------------------------------------------
    def energy(self, x) -> int:
        """Exact energy of one solution vector."""
        x = check_bit_vector(x, self.n)
        xi = x.astype(np.int64)
        quad = xi @ (self._upper @ xi)
        return int(quad + self._linear @ xi)

    def energies(self, xs) -> np.ndarray:
        """Energies of a ``(B, n)`` batch."""
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"expected shape (B, {self.n}), got {xs.shape}")
        xi = xs.astype(np.int64)
        quad = ((self._upper @ xi.T).T * xi).sum(axis=1)
        return quad + xi @ self._linear

    def delta_vector(self, x) -> np.ndarray:
        """All one-bit flip gains Δ_k(X) (Eq. 3), computed sparsely."""
        x = check_bit_vector(x, self.n)
        xi = x.astype(np.int64)
        contrib = self._couplings @ xi + self._linear
        return (1 - 2 * xi) * contrib

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseQUBOModel(name={self.name!r}, n={self.n}, "
            f"interactions={self.num_interactions}, density={self.density:.4f})"
        )


def sparse_ising_to_qubo(model: IsingModel) -> tuple[SparseQUBOModel, int]:
    """Sparse counterpart of :func:`repro.core.ising.ising_to_qubo`.

    Returns ``(qubo, offset)`` with ``E(X) = H(S) + offset``; weights follow
    the identical construction (``W_ij = 4J_ij`` etc.) so energies agree
    exactly with the dense conversion.
    """
    j = np.asarray(model.interactions)
    h = np.asarray(model.biases)
    n = model.n
    terms: dict[tuple[int, int], int] = {}
    ii, jj = np.nonzero(j)
    for a, b in zip(ii.tolist(), jj.tolist()):
        terms[(a, b)] = 4 * int(j[a, b])
    row_strength = j.sum(axis=1) + j.sum(axis=0)
    for i in range(n):
        diag = 2 * int(h[i]) - 2 * int(row_strength[i])
        if diag:
            terms[(i, i)] = diag
    offset = int(h.sum() - j.sum())
    return SparseQUBOModel(n, terms, name=f"{model.name}-as-sparse-qubo"), offset
