"""Dense complex linear algebra for operators on tensor-product spaces.

Everything downstream leans on the conventions fixed here:

* matrices are numpy ``complex128`` arrays, row-major, and the composite
  index of a Kronecker product ``A (x) B`` is ``i * cols(B) + k``;
* transposes and partial transposes are taken in the computational basis;
* an index is an integer, never a bool or a float, in range (``require_index``);
* Hermiticity is checked entrywise to ``HERMITIAN_TOL``; positivity (the
  smallest eigenvalue, ``require_psd``), normalization and every other input
  check on a quantum object to the one tolerance ``TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod

import numpy as np

HERMITIAN_TOL = 1e-12
TOL = 1e-9


class DimensionError(ValueError):
    """Operand shapes do not match the declared tensor structure."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_integer(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def require_index(i, n: int, what: str):
    """Raise ``DimensionError`` naming ``what`` and ``i`` unless ``i`` is an integer in 0..n-1."""
    if not (is_integer(i) and 0 <= i < n):
        raise DimensionError(f"{what} {i!r}: not an integer in [0, {n})")


def _dims_of(shape) -> tuple[int, ...]:
    dims = tuple(shape)
    if not dims or not all(is_integer(d) and d >= 1 for d in dims):
        raise DimensionError(f"factor dimensions must be positive integers, got {dims}")
    return tuple(int(d) for d in dims)


def _positions(positions, n: int) -> tuple[int, ...]:
    positions = tuple(positions)
    if not all(map(is_integer, positions)):
        raise DimensionError(f"factor positions must be integers, got {positions}")
    if not all(0 <= p < n for p in positions):
        raise DimensionError(f"positions {list(positions)} out of range for {n} factors")
    return tuple(int(p) for p in positions)


def partial_trace(a, shape, keep) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``keep`` is a set of factor indices; the result is ordered by ascending
    factor index.  Works on arbitrary (not necessarily Hermitian) matrices.
    """
    dims = _dims_of(shape)
    a = as_matrix(a)
    n = len(dims)
    if a.shape[0] != prod(dims):
        raise DimensionError(f"matrix of shape {a.shape} does not act on factors {dims}")
    keep = sorted(set(_positions(keep, n)))
    if not keep:
        raise ContractError("keep must name at least one factor")
    t = a.reshape(dims + dims)
    ket = list(range(n))
    bra = [i if i not in keep else n + i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    r = np.einsum(t, ket + bra, out)
    dk = prod(dims[i] for i in keep)
    return np.ascontiguousarray(r.reshape(dk, dk))


def partial_transpose(a, shape, positions) -> np.ndarray:
    """Transpose the listed tensor factors in the computational basis."""
    dims = _dims_of(shape)
    a = as_matrix(a)
    n = len(dims)
    if a.shape[0] != prod(dims):
        raise DimensionError(f"matrix of shape {a.shape} does not act on factors {dims}")
    t = a.reshape(dims + dims)
    axes = list(range(2 * n))
    for p in _positions(positions, n):
        axes[p], axes[n + p] = axes[n + p], axes[p]
    return np.ascontiguousarray(t.transpose(axes).reshape(a.shape))


def embed_operator(op, shape, positions) -> np.ndarray:
    """Embed ``op`` acting on the listed factors into the full space.

    Identity is placed on every other factor.  ``op``'s own factor order is
    the order in which ``positions`` are listed.
    """
    op, positions = as_matrix(op), tuple(positions)
    if not positions and op.shape != (1, 1):
        raise DimensionError(f"operator shape {op.shape} does not match factors []")
    return Lift(_dims_of(shape), positions)(op)


@dataclass(frozen=True)
class Lift:
    """The linear map h -> scale * (I (x) h) into the operators on ``dims``.

    h, or its transpose when ``transpose`` is set, acts on the factors listed
    in ``keep`` (in h's own factor order, as in ``embed_operator``), and the
    identity on every other factor.  With ``keep`` empty, h enters through
    its trace: h -> scale * Tr(h) * I.  So ``Lift((), ())`` maps h to the 1 x 1
    matrix [Tr h], the coupling of an operator equation to a scalar.

    Every marginal of a joint device is the adjoint of such a map, so the
    solver can build a program's rows, and their Schur complement, from
    ``dims`` and ``keep`` alone.  A lift is applied to one operator or to a
    stack (..., d, d) of them.
    """

    dims: tuple[int, ...]
    keep: tuple[int, ...]
    transpose: bool = False
    scale: float = 1.0

    def __post_init__(self):
        dims = _dims_of(self.dims) if len(self.dims) else ()
        keep = _positions(self.keep, len(dims))
        if len(set(keep)) != len(keep):
            raise DimensionError(f"repeated positions in {list(keep)}")
        if not np.isfinite(self.scale):
            raise ContractError(f"lift scale {self.scale} is not finite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "scale", float(self.scale))

    @staticmethod
    def identity(dim: int, scale: float = 1.0) -> "Lift":
        return Lift((dim,), (0,), scale=scale)

    @staticmethod
    def trace(scale: float = 1.0) -> "Lift":
        return Lift((), (), scale=scale)

    @property
    def size(self) -> int:
        """Side of the lifted operators."""
        return prod(self.dims)

    @property
    def arg_dim(self) -> int | None:
        """Side of the operators lifted, or None for a trace (any side)."""
        return prod(self.dims[k] for k in self.keep) if self.keep else None

    def __neg__(self) -> "Lift":
        return replace(self, scale=-self.scale)

    def __call__(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=complex)
        lead, n = h.shape[:-2], len(self.dims)
        if not self.keep:
            tr = np.trace(h, axis1=-2, axis2=-1)[..., None, None]
            return self.scale * tr * np.eye(self.size)
        dk = self.arg_dim
        if h.shape[-2:] != (dk, dk):
            raise DimensionError(f"operator shape {h.shape[-2:]} does not match factors {list(self.keep)}")
        if self.transpose:
            h = np.swapaxes(h, -1, -2)
        # one product writes scale * h (x) I with every factor in its place:
        # factor f is axis f of the rows and n + f of the columns
        h = (self.scale * h).reshape(lead + tuple(self.dims[k] for k in self.keep) * 2)
        args = [h, [...] + list(self.keep) + [n + k for k in self.keep]]
        for f in range(n):
            if f not in self.keep:
                args += [np.eye(self.dims[f]), [f, n + f]]
        out = np.einsum(*args, [...] + list(range(2 * n)))
        return out.reshape(lead + (self.size, self.size))


def hermitize(a) -> np.ndarray:
    a = as_matrix(a)
    return (a + a.conj().T) / 2


def require_hermitian(a, tol: float = HERMITIAN_TOL, what: str = "matrix") -> np.ndarray:
    """Check Hermiticity to ``tol`` and return the symmetrized matrix.

    Symmetrizing after the check absorbs round-off without masking modeling
    errors.
    """
    a = as_matrix(a)
    dev = np.abs(a - a.conj().T).max()
    if not np.isfinite(dev):
        # a NaN or infinite entry makes its own deviation non-finite
        raise ContractError(f"{what} has non-finite entries")
    if dev > tol:
        raise ContractError(f"{what} is not Hermitian (deviation {dev:.3e} > {tol:.1e})")
    return (a + a.conj().T) / 2


def require_psd(a, what: str, tol: float = TOL) -> np.ndarray:
    """Check Hermiticity (``require_hermitian``) and that the smallest
    eigenvalue is at least -tol; return the symmetrized matrix."""
    a = require_hermitian(a, what=what)
    w = np.linalg.eigvalsh(a)[0]
    if w < -tol:
        raise ContractError(f"{what} is not PSD (min eigenvalue {w:.3e})")
    return a


def op_norm(a, tol: float = TOL) -> float:
    """Largest eigenvalue of a Hermitian PSD matrix."""
    return float(max(np.linalg.eigvalsh(require_psd(a, "op_norm input", tol))[-1], 0.0))


def hermitian_entries(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (Frobenius) basis of d x d Hermitian matrices as two
    read-only (d^2, 2) lists: element k is coef[k, 0] at the row-major entry
    idx[k, 0] plus coef[k, 1] at idx[k, 1].  First the d units E_jj (their
    second entry a zero at the same place), then for each j < k in row-major
    order (E_jk + E_kj)/sqrt 2 and i (E_jk - E_kj)/sqrt 2."""
    if not (is_integer(d) and d >= 1):
        raise DimensionError(f"dimension must be a positive integer, got {d!r}")
    j, k = np.triu_indices(d, 1)
    diag, s = np.arange(d) * (d + 1), 1.0 / np.sqrt(2.0)
    idx = np.concatenate([np.c_[diag, diag], np.repeat(np.c_[j * d + k, k * d + j], 2, axis=0)])
    coef = np.zeros((d * d, 2), dtype=complex)
    coef[:d, 0], coef[d::2], coef[d + 1::2] = 1.0, s, (1j * s, -1j * s)
    for a in (idx, coef):
        a.flags.writeable = False
    return idx, coef


def hermitian_basis(d: int) -> list[np.ndarray]:
    """The elements of ``hermitian_entries(d)`` as dense d x d matrices."""
    idx, coef = hermitian_entries(d)
    basis = np.zeros((d * d, d * d), dtype=complex)
    np.add.at(basis, (np.arange(d * d)[:, None], idx), coef)  # a unit's zero adds nothing
    return list(basis.reshape(d * d, d, d))


def swap_matrix(d: int) -> np.ndarray:
    """Exchange operator on C^d (x) C^d."""
    w = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            w[i * d + j, j * d + i] = 1.0
    return w


def matrix_to_json(a) -> dict:
    """Encode a complex matrix as ``{"rows", "cols", "data"}`` with row-major [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    data = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


class _JsonObject(dict):
    """A decoded JSON object that reports a missing field by its name."""

    def __init__(self, obj, what):
        super().__init__(obj)
        self.what = what

    def __missing__(self, field):
        raise ContractError(f"{self.what} has no field {field!r}")


def json_object(v, what: str) -> dict:
    """``v`` if it is a JSON object, as a dict whose missing field raises
    ``ContractError`` naming ``what`` and the field; anything else is
    rejected, naming ``what``."""
    if not isinstance(v, dict):
        raise ContractError(f"{what} must be a JSON object, got {type(v).__name__}")
    return _JsonObject(v, what)


def json_list(v, what: str) -> list:
    """``v`` if it is a JSON list; anything else is rejected, naming ``what``."""
    if not isinstance(v, list):
        raise ContractError(f"{what} must be a list, got {type(v).__name__}")
    return v


def json_int(obj, field: str, what: str) -> int:
    """``obj[field]`` if it is a JSON integer; a bool or a number with a
    fractional part or exponent is rejected, naming the field, rather than
    truncated."""
    v = obj[field]
    if not is_integer(v):
        raise ContractError(f"{what} field {field!r} must be an integer, got {v!r}")
    return v


def json_number(v, what: str) -> float:
    """``v`` as a float if it is a finite JSON number; a string, a bool,
    null, a list, a non-finite number or an integer too large for a float is
    rejected, naming ``what``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ContractError(f"{what} has {v!r}, not a number")
    try:
        v = float(v)
    except OverflowError:
        raise ContractError(f"{what} is too large for a float") from None
    if not np.isfinite(v):
        raise ContractError(f"{what} is non-finite")
    return v


def matrix_from_json(obj) -> np.ndarray:
    """Decode ``{"rows", "cols", "data"}``: ``data`` is a list of rows * cols
    row-major [re, im] pairs of finite numbers.  A string, a bool, null, a
    nested list or an integer too large for a float is rejected, naming the
    entry."""
    obj = json_object(obj, "matrix")
    rows, cols, data = json_int(obj, "rows", "matrix"), json_int(obj, "cols", "matrix"), obj["data"]
    if rows < 1 or cols < 1:
        raise ContractError(f"matrix dimensions must be positive, got {rows}x{cols}")
    json_list(data, "matrix field 'data'")
    if len(data) != rows * cols:
        raise ContractError(f"matrix data has {len(data)} entries, expected {rows * cols}")
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ContractError(f"matrix entry {i} is not a [re, im] pair")
        re, im = (json_number(part, f"matrix entry {i}") for part in pair)
        flat[i] = re + 1j * im
    return flat.reshape(rows, cols)
