"""QUBO model: energy definition and canonical matrix forms.

A QUBO model (paper §I.A, Eq. 2) is a weighted graph stored as a square matrix
``W``; the energy of a binary vector ``X`` is

    E(X) = sum_{(i,j)} W[i,j] * x_i * x_j

with diagonal entries acting as linear terms (``x_i^2 = x_i``).  Arbitrary
square input is folded into a canonical **upper-triangular** matrix ``U``
(``U[i,j] = W[i,j] + W[j,i]`` for ``i < j``), which leaves the energy function
unchanged.  Two derived views are precomputed once because the incremental
search engine (:mod:`repro.core.delta`) consumes them on every flip:

* ``couplings`` — symmetric off-diagonal matrix ``S`` (zero diagonal),
* ``linear`` — the diagonal of ``U``.

All benchmark generators in this repository emit integer weights, so models
default to exact ``int64`` arithmetic; float input is preserved as ``float64``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_bit_vector, check_square_matrix

__all__ = ["QUBOModel", "brute_force", "require_integer_weights"]

#: Enumerating more than this many bits is refused by :func:`brute_force`.
_BRUTE_FORCE_MAX_BITS = 24


class QUBOModel:
    """A dense QUBO model ``W`` with exact energy evaluation.

    Parameters
    ----------
    matrix:
        Square weight matrix.  Any (possibly asymmetric) matrix is accepted
        and folded into upper-triangular canonical form.
    name:
        Optional human-readable instance name (used in reports).
    """

    __slots__ = ("_upper", "_couplings", "_linear", "name", "__weakref__")

    def __init__(self, matrix, name: str = "") -> None:
        arr = check_square_matrix(matrix, "matrix")
        if np.issubdtype(arr.dtype, np.floating):
            if np.allclose(arr, np.rint(arr)):
                arr = np.rint(arr).astype(np.int64)
            else:
                arr = arr.astype(np.float64)
        else:
            arr = arr.astype(np.int64)
        upper = np.triu(arr) + np.tril(arr, -1).T
        self._upper = np.ascontiguousarray(upper)
        sym = upper + upper.T
        np.fill_diagonal(sym, 0)
        self._couplings = np.ascontiguousarray(sym)
        self._linear = np.ascontiguousarray(np.diagonal(upper).copy())
        self.name = name or f"qubo-{self.n}"

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of binary variables."""
        return self._upper.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """Arithmetic dtype (``int64`` for integer models)."""
        return self._upper.dtype

    @property
    def upper(self) -> np.ndarray:
        """Canonical upper-triangular weight matrix ``U`` (read-only view)."""
        v = self._upper.view()
        v.flags.writeable = False
        return v

    @property
    def couplings(self) -> np.ndarray:
        """Symmetric off-diagonal couplings ``S = U + U.T`` with zero diagonal."""
        v = self._couplings.view()
        v.flags.writeable = False
        return v

    @property
    def linear(self) -> np.ndarray:
        """Linear terms (the diagonal of ``U``)."""
        v = self._linear.view()
        v.flags.writeable = False
        return v

    @property
    def num_interactions(self) -> int:
        """Number of non-zero off-diagonal couplings (graph edges)."""
        return int(np.count_nonzero(np.triu(self._couplings, 1)))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, n: int, terms: dict, name: str = "") -> "QUBOModel":
        """Build a model from ``{(i, j): weight}``; ``(i, i)`` are linear terms.

        Duplicate keys ``(i, j)`` and ``(j, i)`` accumulate, matching the sum
        in Eq. (2).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        mat = np.zeros((n, n), dtype=np.float64)
        for (i, j), w in terms.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index ({i}, {j}) out of range for n={n}")
            mat[i, j] += w
        return cls(mat, name=name)

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of ``U`` as ``(rows, cols, weights)`` arrays in
        row-major order (int64 indices, weights in :attr:`dtype`)."""
        rows, cols = np.nonzero(self._upper)
        return rows.astype(np.int64), cols.astype(np.int64), self._upper[rows, cols]

    def to_dict(self) -> dict:
        """Return the canonical upper-triangular terms as ``{(i, j): w}``."""
        rows, cols, weights = self.triples()
        return dict(zip(zip(rows.tolist(), cols.tolist()), weights.tolist()))

    # ------------------------------------------------------------------
    # Energy evaluation
    # ------------------------------------------------------------------
    def energy(self, x) -> int | float:
        """Exact energy ``E(X)`` of one solution vector (Eq. 2)."""
        x = check_bit_vector(x, self.n)
        xi = x.astype(self._upper.dtype)
        return (xi @ self._upper @ xi).item()

    def energies(self, xs) -> np.ndarray:
        """Energies of a batch of solution vectors, shape ``(B, n) -> (B,)``."""
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"expected shape (B, {self.n}), got {xs.shape}")
        xi = xs.astype(self._upper.dtype)
        return np.einsum("bi,ij,bj->b", xi, self._upper, xi)

    def delta_vector(self, x) -> np.ndarray:
        """All one-bit flip gains ``Δ_k(X) = E(f_k(X)) − E(X)`` (Eq. 3).

        Computed non-incrementally in O(n²); the incremental engine in
        :mod:`repro.core.delta` maintains the same vector in O(n) per flip.
        """
        x = check_bit_vector(x, self.n)
        xi = x.astype(self._upper.dtype)
        contrib = self._couplings @ xi + self._linear
        sign = 1 - 2 * xi  # σ of the flipped value
        return sign * contrib

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QUBOModel(name={self.name!r}, n={self.n}, "
            f"interactions={self.num_interactions}, dtype={self.dtype})"
        )


def require_integer_weights(model) -> None:
    """Refuse a fractional-weight *model* with one ``ValueError``: the
    search kernels accumulate Δ and energies in int64.  Checked once for
    every kernel consumer in :func:`~repro.backends.resolve_backend`
    and, so a job fails before it is accepted, at every submit
    (``SolveService.submit``, ``Federation.submit``) and by the CLI for
    every ``--solver``.  An object without a ``dtype`` is not judged
    here; it fails where it is used."""
    dtype = getattr(model, "dtype", None)
    if dtype is not None and not np.issubdtype(dtype, np.integer):
        raise ValueError(
            f"the solvers need integer weights; {model.name!r} has "
            f"fractional ones (scale them to integers first)"
        )


def brute_force(model: QUBOModel, chunk_bits: int = 16):
    """Exhaustively find ``(best_x, best_energy)`` of a small model.

    Enumerates all ``2^n`` vectors in vectorized chunks; refuses models with
    more than 24 bits.  Intended for validating heuristic solvers in tests.
    """
    n = model.n
    if n > _BRUTE_FORCE_MAX_BITS:
        raise ValueError(
            f"brute_force supports n <= {_BRUTE_FORCE_MAX_BITS}, got {n}"
        )
    total = 1 << n
    step = 1 << min(chunk_bits, n)
    bit_cols = np.arange(n, dtype=np.uint64)
    best_energy = None
    best_code = 0
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total), dtype=np.uint64)
        xs = ((codes[:, None] >> bit_cols[None, :]) & 1).astype(np.uint8)
        energies = model.energies(xs)
        k = int(np.argmin(energies))
        if best_energy is None or energies[k] < best_energy:
            best_energy = energies[k].item()
            best_code = int(codes[k])
    best_x = ((best_code >> np.arange(n)) & 1).astype(np.uint8)
    return best_x, best_energy
