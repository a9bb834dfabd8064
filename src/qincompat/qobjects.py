"""Quantum objects: states, POVMs, channels in Choi form, instruments, and
multi-output joint channels, plus canonical constructions and samplers.

Choi matrices are normalized to unit trace and ordered output-first: the
matrix of a channel from an input space of dimension ``dim_in`` to an output
space of dimension ``dim_out`` acts on (output) (x) (input).  A joint channel
with n outputs acts on (out_1) (x) ... (x) (out_n) (x) (input), each output
of its own dimension.  A measure-and-record channel writes outcome i into
the basis state |i> of an output space with one dimension per outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .linalg import (
    TOL,
    ContractError,
    DimensionError,
    hermitize,
    is_integer,
    json_int,
    json_list,
    json_object,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    partial_transpose,
    require_hermitian,
    require_psd,
    swap_matrix,
)


def _check_sizes(obj, *fields):
    """Raise ``DimensionError`` naming the first of ``fields`` of ``obj``
    that is not an integer >= 1 (a bool is not)."""
    for name in fields:
        v = getattr(obj, name)
        if not (is_integer(v) and v >= 1):
            raise DimensionError(f"{type(obj).__name__} field {name!r} must be an integer >= 1, got {v!r}")


def max_entangled_state(d: int) -> np.ndarray:
    """Density matrix of the canonical maximally entangled state on C^d (x) C^d."""
    if d < 2:
        raise DimensionError(f"maximally entangled state needs dimension >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    v /= np.sqrt(d)
    return np.outer(v, v.conj())


@dataclass(eq=False)
class ChoiMatrix:
    """Trace-one Choi matrix of a channel, on (output) (x) (input)."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_sizes(self, "dim_in", "dim_out")
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.dim_in * self.dim_out
        if self.matrix.shape != (d, d):
            raise DimensionError(
                f"Choi matrix shape {self.matrix.shape} does not match dims "
                f"{self.dim_out}x{self.dim_in}"
            )

    def validate(self) -> "ChoiMatrix":
        m = require_psd(self.matrix, "Choi matrix")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TOL:
            raise ContractError(f"Choi matrix trace is {tr}, expected 1")
        marg = partial_trace(m, (self.dim_out, self.dim_in), (1,))
        dev = np.abs(marg - np.eye(self.dim_in) / self.dim_in).max()
        if dev > TOL:
            raise ContractError(f"input marginal deviates from I/d by {dev:.3e}")
        return self

    def to_json(self) -> dict:
        return {
            "kind": "choi",
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
            "matrix": matrix_to_json(self.matrix),
        }

    @staticmethod
    def from_json(obj) -> "ChoiMatrix":
        obj = json_object(obj, "channel")
        return ChoiMatrix(json_int(obj, "dim_in", "channel"), json_int(obj, "dim_out", "channel"),
                          matrix_from_json(obj["matrix"])).validate()


def choi_from_kraus(kraus) -> ChoiMatrix:
    """Choi matrix of the channel with the given Kraus operators."""
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise ContractError("need at least one Kraus operator")
    dout, din = ops[0].shape
    tp = sum(k.conj().T @ k for k in ops)
    if np.abs(tp - np.eye(din)).max() > TOL:
        raise ContractError("Kraus operators are not trace preserving")
    j = np.zeros((dout * din, dout * din), dtype=complex)
    for k in ops:
        v = k.ravel()
        j += np.outer(v, v.conj())
    return ChoiMatrix(din, dout, j / din)


def identity_channel(d: int) -> ChoiMatrix:
    return ChoiMatrix(d, d, max_entangled_state(d))


def unitary_channel(u) -> ChoiMatrix:
    u = np.asarray(u, dtype=complex)
    return choi_from_kraus([u])


def depolarizing_channel(d: int, visibility: float) -> ChoiMatrix:
    """rho -> visibility * rho + (1 - visibility) * I/d."""
    if not 0.0 <= visibility <= 1.0:
        raise ContractError(f"visibility must lie in [0, 1], got {visibility}")
    j = visibility * max_entangled_state(d) + (1 - visibility) * np.eye(d * d) / d**2
    return ChoiMatrix(d, d, j)


def constant_channel(d_in: int, sigma) -> ChoiMatrix:
    """Channel discarding its input and preparing the state ``sigma``."""
    sigma = require_psd(sigma, "prepared state")
    if abs(np.trace(sigma).real - 1.0) > TOL:
        raise ContractError("prepared state must have unit trace")
    return ChoiMatrix(d_in, sigma.shape[0], kron(sigma, np.eye(d_in) / d_in))


def apply_channel(choi: ChoiMatrix, rho) -> np.ndarray:
    """Image of a state under the channel: d * Tr_in[J (I (x) rho^T)], whose
    entry (a, b) is d * sum_ij J_(a,i),(b,j) rho_ij."""
    rho = np.asarray(rho, dtype=complex)
    d = choi.dim_in
    if rho.shape != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match input dimension {d}")
    j = choi.matrix.reshape(choi.dim_out, d, choi.dim_out, d)
    return d * np.einsum("aibj,ij->ab", j, rho)


def apply_channel_extended(choi: ChoiMatrix, rho) -> np.ndarray:
    """Apply the channel to the first half of a state on (input) (x) (input)."""
    rho = np.asarray(rho, dtype=complex)
    d = choi.dim_in
    if rho.shape != (d * d, d * d):
        raise DimensionError(f"state shape {rho.shape} does not match two copies of dim {d}")
    rho_ta = partial_transpose(rho, (d, d), (0,))
    op = kron(choi.matrix, np.eye(d)) @ kron(np.eye(choi.dim_out), rho_ta)
    return d * partial_trace(op, (choi.dim_out, d, d), (0, 2))


@dataclass(eq=False)
class Povm:
    """Positive operator valued measure: PSD effects summing to the identity."""

    elements: list

    def __post_init__(self):
        self.elements = [np.asarray(m, dtype=complex) for m in self.elements]
        if not self.elements:
            raise DimensionError("a measurement needs at least one outcome")
        d = self.elements[0].shape[0]
        for m in self.elements:
            if m.shape != (d, d):
                raise DimensionError("all effects must be square with a common dimension")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def outcomes(self) -> int:
        return len(self.elements)

    def validate(self) -> "Povm":
        total = sum(require_psd(m, f"effect {i}") for i, m in enumerate(self.elements))
        if np.abs(total - np.eye(self.dim)).max() > TOL:
            raise ContractError("effects do not sum to the identity")
        return self

    def to_json(self) -> dict:
        return {"kind": "povm", "dim": self.dim,
                "elements": [matrix_to_json(m) for m in self.elements]}

    @staticmethod
    def from_json(obj) -> "Povm":
        obj = json_object(obj, "measurement")
        elements = json_list(obj["elements"], "measurement field 'elements'")
        return Povm([matrix_from_json(m) for m in elements]).validate()


@dataclass(eq=False)
class PovmCollection:
    """Finite family of measurements on a common space, one per setting."""

    povms: list

    def __post_init__(self):
        for x, p in enumerate(self.povms):
            if not isinstance(p, Povm):
                raise ContractError(f"measurement {x} needs a Povm, got {type(p).__name__}")
        if not self.povms:
            raise DimensionError("a collection needs at least one measurement")
        d = self.povms[0].dim
        if any(p.dim != d for p in self.povms):
            raise DimensionError("all measurements must share one space")

    @property
    def n(self) -> int:
        return len(self.povms)

    @property
    def dim(self) -> int:
        return self.povms[0].dim

    def validate(self) -> "PovmCollection":
        for p in self.povms:
            p.validate()
        return self

    def to_json(self) -> dict:
        return {"kind": "povm_collection", "povms": [p.to_json() for p in self.povms]}

    @staticmethod
    def from_json(obj) -> "PovmCollection":
        obj = json_object(obj, "measurement collection")
        povms = json_list(obj["povms"], "measurement collection field 'povms'")
        return PovmCollection([Povm.from_json(json_object(p, f"measurement {x}")) for x, p in enumerate(povms)])


def basis_povm(d: int) -> Povm:
    """Projective measurement in the computational basis."""
    els = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        els.append(e)
    return Povm(els)


def projective_from_hermitian(h) -> Povm:
    """Rank-one projective measurement onto the eigenbasis of ``h``."""
    h = require_hermitian(h, what="observable")
    _, v = np.linalg.eigh(h)
    return Povm([np.outer(v[:, k], v[:, k].conj()) for k in range(h.shape[0])])


def qc_channel(povm: Povm) -> ChoiMatrix:
    """Measure-and-record channel writing the outcome into basis states."""
    d, o = povm.dim, povm.outcomes
    j = np.zeros((o * d, o * d), dtype=complex)
    for i, m in enumerate(povm.elements):
        e = np.zeros((o, o), dtype=complex)
        e[i, i] = 1.0
        j += kron(e, m.T)
    return ChoiMatrix(d, o, j / d)


@dataclass(eq=False)
class Instrument:
    """Measurement with a quantum output: one subnormalized Choi per outcome."""

    dim_in: int
    dim_out: int
    elements: list

    def __post_init__(self):
        _check_sizes(self, "dim_in", "dim_out")
        self.elements = [np.asarray(m, dtype=complex) for m in self.elements]
        d = self.dim_in * self.dim_out
        if not self.elements:
            raise DimensionError("an instrument needs at least one outcome")
        for m in self.elements:
            if m.shape != (d, d):
                raise DimensionError("instrument element has wrong shape")

    @property
    def outcomes(self) -> int:
        return len(self.elements)

    def validate(self) -> "Instrument":
        for i, m in enumerate(self.elements):
            require_psd(m, f"instrument element {i}")
        ChoiMatrix(self.dim_in, self.dim_out, sum(self.elements)).validate()
        return self

    def to_json(self) -> dict:
        return {"kind": "instrument", "dim_in": self.dim_in, "dim_out": self.dim_out,
                "elements": [matrix_to_json(m) for m in self.elements]}

    @staticmethod
    def from_json(obj) -> "Instrument":
        obj = json_object(obj, "instrument")
        elements = json_list(obj["elements"], "instrument field 'elements'")
        return Instrument(json_int(obj, "dim_in", "instrument"), json_int(obj, "dim_out", "instrument"),
                          [matrix_from_json(m) for m in elements]).validate()


def instrument_povm(instr: Instrument) -> Povm:
    """The measurement the instrument induces on its input."""
    els = []
    for m in instr.elements:
        els.append(instr.dim_in * partial_trace(m, (instr.dim_out, instr.dim_in), (1,)).T)
    return Povm(els)


def instrument_total(instr: Instrument) -> ChoiMatrix:
    """The overall channel obtained by forgetting the outcome."""
    return ChoiMatrix(instr.dim_in, instr.dim_out, sum(instr.elements))


def lueders_instrument(povm: Povm) -> Instrument:
    """Square-root instrument of a measurement, outcome state kept on the same space."""
    d = povm.dim
    roots = _spectral(np.array([hermitize(m) for m in povm.elements]),
                      lambda w: np.sqrt(np.clip(w, 0.0, None)))
    return Instrument(d, d, [np.outer(r.ravel(), r.ravel().conj()) / d for r in roots])


@dataclass(eq=False)
class JointChannel:
    """One channel with one output per member, of dimensions ``dims_out``,
    stored as a Choi matrix."""

    dim_in: int
    dims_out: tuple
    choi: np.ndarray

    def __post_init__(self):
        _check_sizes(self, "dim_in")
        dims = self.dims_out
        if not (isinstance(dims, (tuple, list)) and dims and all(is_integer(v) and v >= 1 for v in dims)):
            raise DimensionError(f"JointChannel field 'dims_out' must be a nonempty list of integers >= 1, "
                                 f"got {dims!r}")
        self.dims_out = tuple(dims)
        self.choi = np.asarray(self.choi, dtype=complex)
        d = prod(self.dims_out) * self.dim_in
        if self.choi.shape != (d, d):
            raise DimensionError(f"joint Choi shape {self.choi.shape} does not match dims")

    @property
    def shape(self):
        return self.dims_out + (self.dim_in,)

    def validate(self) -> "JointChannel":
        # one channel into the product of its outputs
        ChoiMatrix(self.dim_in, prod(self.dims_out), self.choi).validate()
        return self

    def to_json(self) -> dict:
        return {"kind": "joint_channel", "dim_in": self.dim_in, "dims_out": list(self.dims_out),
                "choi": matrix_to_json(self.choi)}

    @staticmethod
    def from_json(obj) -> "JointChannel":
        obj = json_object(obj, "joint channel")
        dims = json_list(obj["dims_out"], "joint channel field 'dims_out'")
        if not all(map(is_integer, dims)):
            raise ContractError(f"joint channel field 'dims_out' must list integers, got {dims!r}")
        return JointChannel(json_int(obj, "dim_in", "joint channel"), dims,
                            matrix_from_json(obj["choi"])).validate()


def marginal(joint: JointChannel, x: int) -> ChoiMatrix:
    """Choi matrix of the x-th output (1-based), the others traced out."""
    n = len(joint.dims_out)
    if not (is_integer(x) and 1 <= x <= n):
        raise DimensionError(f"output index {x!r}: not an integer in 1..{n}")
    m = partial_trace(joint.choi, joint.shape, (x - 1, n))
    return ChoiMatrix(joint.dim_in, joint.dims_out[x - 1], m)


def symmetric_projector(d: int) -> np.ndarray:
    return (np.eye(d * d) + swap_matrix(d)) / 2


def cloning_channel(d: int) -> JointChannel:
    """Optimal symmetric 1-to-2 cloner on C^d."""
    s = symmetric_projector(d)
    scale = np.sqrt(2.0 / (d + 1))
    kraus = []
    for k in range(d):
        e = np.zeros((d, 1), dtype=complex)
        e[k, 0] = 1.0
        kraus.append(scale * (s @ kron(np.eye(d), e)))
    c = choi_from_kraus(kraus)
    return JointChannel(d, (d, d), c.matrix)


# -- polish helpers for solver output ---------------------------------------
#
# Interior point iterates satisfy the defining equalities only to solver
# tolerance.  A POVM, a Choi matrix and an instrument are all PSD blocks on
# (output) (x) (input) whose input marginals sum to I / k (k = 1 for a POVM,
# whose output is trivial; k = dim_in for a channel or an instrument), so one
# rule snaps them all: clip each block to PSD, form S = k * sum_b Tr_out B_b
# and conjugate every block by I (x) S^-1/2.  The result is PSD with exact
# marginals by construction, and moves by the order of the solver residual.

def _spectral(stack, f) -> np.ndarray:
    """f applied to the eigenvalues of each Hermitian matrix in ``stack``."""
    w, v = np.linalg.eigh(stack)
    return (v * f(w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def _inv_sqrt(w) -> np.ndarray:
    if w[0] <= 1e-12:
        raise ContractError("input marginal is singular, cannot renormalize")
    return 1.0 / np.sqrt(w)


def _normalize(blocks, dim_in: int, k: int) -> np.ndarray:
    """The blocks, stacked, snapped onto the PSD blocks whose input marginals
    sum to I / k; ``ContractError`` if that sum is singular after clipping."""
    b = np.asarray(blocks, dtype=complex)
    b = _spectral(hermitize(b), lambda w: np.clip(w, 0.0, None))
    dim_out = b.shape[-1] // dim_in
    s = k * np.trace(b.sum(axis=0).reshape(dim_out, dim_in, dim_out, dim_in), axis1=0, axis2=2)
    x = kron(np.eye(dim_out), _spectral(hermitize(s), _inv_sqrt))
    return x @ b @ x


def snap_povm(elements) -> Povm:
    """Effects clipped and conjugated by S^-1/2, S their sum: a valid POVM."""
    return Povm(list(_normalize(elements, len(elements[0]), 1)))


def snap_choi_matrix(matrix, dim_in: int) -> np.ndarray:
    """A valid Choi matrix on (output) (x) (input), by the same rule."""
    return _normalize([matrix], dim_in, dim_in)[0]


def snap_instrument(elements, dim_in: int) -> Instrument:
    """A valid instrument on C^dim_in, by the same rule on all its elements at once."""
    return Instrument(dim_in, len(elements[0]) // dim_in, list(_normalize(elements, dim_in, dim_in)))


# -- samplers ----------------------------------------------------------------


def random_pure_state(d: int, rng) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_state(d: int, rng) -> np.ndarray:
    """Full-rank state: partial trace of a random pure state on two copies."""
    pure = random_pure_state(d * d, rng)
    return partial_trace(pure, (d, d), (0,))


def random_unitary(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_povm(d: int, outcomes: int, rng) -> Povm:
    """Projective effects from a random eigenbasis, grouped round-robin; past d
    outcomes, the rank-one V^H|i><i|V of a random isometry V: C^d -> C^outcomes."""
    if outcomes > d:
        v, _ = np.linalg.qr(rng.standard_normal((outcomes, d)) + 1j * rng.standard_normal((outcomes, d)))
        return Povm([np.outer(row.conj(), row) for row in v])
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    _, v = np.linalg.eigh(hermitize(g))
    return Povm([sum(np.outer(v[:, k], v[:, k].conj()) for k in range(i, d, outcomes))
                 for i in range(outcomes)])


def random_channel(d_in: int, d_out: int, kraus_rank: int, rng) -> ChoiMatrix:
    """Channel from a random isometry into output (x) environment."""
    if d_out * kraus_rank < d_in:
        raise DimensionError("d_out * kraus_rank must be at least d_in")
    g = rng.standard_normal((d_out * kraus_rank, d_in)) + 1j * rng.standard_normal(
        (d_out * kraus_rank, d_in)
    )
    v, _ = np.linalg.qr(g)
    v3 = v.reshape(d_out, kraus_rank, d_in)
    return choi_from_kraus([v3[:, k, :] for k in range(kraus_rank)])


def random_joint_channel(d_in: int, n_outputs: int, d_out: int, rng,
                         kraus_rank: int = 2) -> JointChannel:
    big = random_channel(d_in, d_out**n_outputs, kraus_rank, rng)
    return JointChannel(d_in, (d_out,) * n_outputs, big.matrix)


def object_from_json(obj):
    """Dispatch on the ``kind`` tag of a serialized quantum object."""
    kinds = {
        "choi": ChoiMatrix.from_json,
        "povm": Povm.from_json,
        "povm_collection": PovmCollection.from_json,
        "instrument": Instrument.from_json,
        "joint_channel": JointChannel.from_json,
    }
    kind = json_object(obj, "object")["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ContractError(f"unknown object kind {kind!r}")
    return kinds[kind](obj)
