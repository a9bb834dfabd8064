import numpy as np
import pytest

from qincompat.linalg import (
    ContractError,
    DimensionError,
    Lift,
    eig_hermitian,
    embed_operator,
    hermitian_basis,
    is_psd,
    kron,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    partial_trace,
    partial_transpose,
    swap_matrix,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def pt_bruteforce(a, dims, keep):
    # independent index-sum implementation of the partial trace
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)
    t = a.reshape(tuple(dims) * 2)
    for ki in np.ndindex(*(dims[i] for i in keep)):
        for kj in np.ndindex(*(dims[i] for i in keep)):
            s = 0.0
            for tr in np.ndindex(*(dims[i] for i in traced)):
                idx_row = [0] * n
                idx_col = [0] * n
                for pos, f in enumerate(keep):
                    idx_row[f] = ki[pos]
                    idx_col[f] = kj[pos]
                for pos, f in enumerate(traced):
                    idx_row[f] = tr[pos]
                    idx_col[f] = tr[pos]
                s += t[tuple(idx_row) + tuple(idx_col)]
            ri = np.ravel_multi_index(ki, [dims[i] for i in keep]) if keep else 0
            ci = np.ravel_multi_index(kj, [dims[i] for i in keep]) if keep else 0
            out[ri, ci] = s
    return out


def test_kron_pauli():
    got = kron(SX, SX)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 3] = want[1, 2] = want[2, 1] = want[3, 0] = 1.0
    assert np.abs(got - want).max() == 0.0


def test_kron_mixed_product():
    rng = np.random.default_rng(11)
    a, b, c, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_against_bruteforce():
    rng = np.random.default_rng(7)
    dims = (2, 3, 2)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for keep in [(0,), (1,), (2,), (0, 2), (0, 1), (1, 2), (0, 1, 2)]:
        got = partial_trace(a, dims, keep)
        want = pt_bruteforce(a, dims, list(keep))
        assert np.abs(got - want).max() < 1e-12


def test_partial_trace_of_product():
    rng = np.random.default_rng(3)
    a = random_herm(rng, 2)
    b = random_herm(rng, 3)
    got = partial_trace(kron(a, b), (2, 3), (0,))
    assert np.abs(got - a * np.trace(b)).max() < 1e-12
    got = partial_trace(kron(a, b), (2, 3), (1,))
    assert np.abs(got - b * np.trace(a)).max() < 1e-12


def test_partial_trace_shape_mismatch():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(5), (2, 3), (0,))
    with pytest.raises(ContractError):
        partial_trace(np.eye(6), (2, 3), ())


def test_tensor_shape_validation():
    # factor dimensions must be positive, and the matrix must act on them
    for op in (lambda a, dims: partial_trace(a, dims, (0,)),
               lambda a, dims: partial_transpose(a, dims, (0,))):
        # a float or a bool is rejected, not truncated
        for dims in ((2, 0), (0,), (2, -3), (), (2.9, 2), (2, True), (2.0, 3)):
            with pytest.raises(DimensionError, match="factor dimensions must be positive"):
                op(np.eye(6), dims)
        with pytest.raises(DimensionError, match=r"does not act on factors \(2, 3\)"):
            op(np.eye(5), (2, 3))
        assert op(np.eye(6), (2, 3)).shape in ((2, 2), (6, 6))
        assert op(np.eye(6), (np.int64(2), np.int32(3))).shape in ((2, 2), (6, 6))
    for positions in ((0.5,), (True,), (0, 1.0)):
        with pytest.raises(DimensionError, match="positions must be integers"):
            partial_trace(np.eye(4), (2, 2), positions)
        with pytest.raises(DimensionError, match="positions must be integers"):
            partial_transpose(np.eye(4), (2, 2), positions)
    assert partial_trace(np.eye(4), (2, 2), (np.int64(1),)).shape == (2, 2)


def test_embed_operator_adjacent():
    got = embed_operator(SX, (2, 2), (1,))
    assert np.abs(got - kron(np.eye(2), SX)).max() == 0
    got = embed_operator(SX, (2, 2), (0,))
    assert np.abs(got - kron(SX, np.eye(2))).max() == 0


def test_embed_operator_nonadjacent():
    rng = np.random.default_rng(5)
    a = random_herm(rng, 2)
    b = random_herm(rng, 2)
    got = embed_operator(kron(a, b), (2, 3, 2), (0, 2))
    # factor order (2,3,2) with a on factor 0, b on factor 2
    want = np.einsum("ac,jk,bd->ajbckd", a, np.eye(3), b).reshape(12, 12)
    assert np.abs(got - want).max() < 1e-12


def test_embed_partial_trace_adjoint():
    # Tr[embed(A) G] == Tr[A Tr_rest(G)], the identity the SDP builders rely on
    rng = np.random.default_rng(9)
    dims = (2, 2, 3)
    g = random_herm(rng, 12)
    for keep in [(0,), (1, 2), (0, 2)]:
        dk = int(np.prod([dims[i] for i in keep]))
        a = random_herm(rng, dk)
        lhs = np.trace(embed_operator(a, dims, keep) @ g)
        rhs = np.trace(a @ partial_trace(g, dims, keep))
        assert abs(lhs - rhs) < 1e-10


def test_partial_transpose():
    rng = np.random.default_rng(13)
    a = random_herm(rng, 2)
    b = random_herm(rng, 3)
    got = partial_transpose(kron(a, b), (2, 3), (0,))
    assert np.abs(got - kron(a.T, b)).max() < 1e-12
    got = partial_transpose(kron(a, b), (2, 3), (1,))
    assert np.abs(got - kron(a, b.T)).max() < 1e-12
    full = partial_transpose(kron(a, b), (2, 3), (0, 1))
    assert np.abs(full - kron(a, b).T).max() < 1e-12


def test_eig_hermitian_descending_and_reconstructs():
    rng = np.random.default_rng(21)
    a = random_herm(rng, 5)
    w, v = eig_hermitian(a)
    assert np.all(np.diff(w) <= 1e-14)
    assert np.abs(v @ np.diag(w) @ v.conj().T - a).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-10


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(ContractError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_op_norm():
    p = np.diag([3.0, 1.0, 0.0]).astype(complex)
    assert abs(op_norm(p) - 3.0) < 1e-14
    with pytest.raises(ContractError):
        op_norm(SZ)  # negative eigenvalue


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd(SZ)
    assert is_psd(np.zeros((2, 2)))
    # tolerance window
    assert is_psd(np.diag([1.0, -1e-10]))
    assert not is_psd(np.diag([1.0, -1e-6]))


def test_hermitian_basis_orthonormal():
    for d in (2, 3):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        for i, a in enumerate(basis):
            assert np.array_equal(a, a.conj().T)
            for j, b in enumerate(basis):
                ip = np.trace(a @ b).real
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12
        # spans: random Hermitian reconstructed from coefficients
        rng = np.random.default_rng(d)
        h = random_herm(rng, d)
        coeffs = [np.trace(b @ h).real for b in basis]
        rec = sum(c * b for c, b in zip(coeffs, basis))
        assert np.abs(rec - h).max() < 1e-12


def test_swap_matrix():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        w = swap_matrix(d)
        a = random_herm(rng, d)
        b = random_herm(rng, d)
        assert np.abs(w @ kron(a, b) @ w - kron(b, a)).max() < 1e-12
        assert np.abs(partial_trace(w, (d, d), (0,)) - np.eye(d)).max() < 1e-12


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    obj = matrix_to_json(a)
    assert obj["rows"] == 3 and obj["cols"] == 2
    back = matrix_from_json(obj)
    assert np.abs(back - a).max() == 0.0


def test_matrix_json_malformed():
    with pytest.raises(ContractError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ContractError):
        matrix_from_json({"rows": 2, "data": []})
    with pytest.raises(ContractError):
        matrix_from_json({"rows": 0, "cols": 1, "data": []})
    with pytest.raises(ContractError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[float("nan"), 0]]})
    with pytest.raises(ContractError):
        matrix_from_json({"rows": 1, "cols": 2, "data": [[1, 0], [0, float("inf")]]})


@pytest.mark.parametrize("entry, match", [
    (["0.5", 0], "entry 1 has '0.5', not a number"),
    ([True, 0], "entry 1 has True, not a number"),
    ([0, None], "entry 1 has None, not a number"),
    ([[0.5], 0], r"entry 1 has \[0.5\], not a number"),
    ([[0.5, 0]], "entry 1 is not a"),
    ([10**400, 0], "entry 1 is too large for a float"),
], ids=["string", "bool", "null", "nested-list", "pair-of-one", "oversized-int"])
def test_matrix_json_accepts_only_finite_numbers(entry, match):
    # JSON strings and booleans used to pass as numbers, and an integer too
    # large for a float escaped as an OverflowError
    obj = {"rows": 1, "cols": 2, "data": [[1, 0], entry]}
    with pytest.raises(ContractError, match=match):
        matrix_from_json(obj)
    obj["data"] = "ab"
    with pytest.raises(ContractError, match="'data' must be a list"):
        matrix_from_json(obj)


@pytest.mark.parametrize("obj, match", [
    ("x", "matrix must be a JSON object, got str"),
    ([[1, 0]], "matrix must be a JSON object, got list"),
    ({"rows": 1, "cols": 1, "data": {"a": 1}}, "matrix field 'data' must be a list, got dict"),
    ({"rows": 1, "data": [[1, 0]]}, "matrix has no field 'cols'"),
], ids=["string", "list", "dict-data", "missing-cols"])
def test_matrix_json_names_a_non_object_or_non_list(obj, match):
    # Python's own TypeError text used to leak into the message
    with pytest.raises(ContractError, match=match):
        matrix_from_json(obj)


def embed_by_index(op, dims, keep):
    """I (x) op with op on the factors ``keep`` (in op's factor order), entry
    by entry: <i|out|j> = <i_keep|op|j_keep> when i and j agree elsewhere."""
    n, size = len(dims), int(np.prod(dims))
    out = np.zeros((size, size), dtype=complex)
    sub = [dims[k] for k in keep]
    for i in np.ndindex(*dims):
        for j in np.ndindex(*dims):
            if all(i[f] == j[f] for f in range(n) if f not in keep):
                a = np.ravel_multi_index([i[k] for k in keep], sub)
                b = np.ravel_multi_index([j[k] for k in keep], sub)
                out[np.ravel_multi_index(i, dims), np.ravel_multi_index(j, dims)] = op[a, b]
    return out


@pytest.mark.parametrize("dims, keep", [
    ((2, 2, 3), (0, 2)), ((2, 2, 3), (1, 2)), ((2, 2, 3), (2,)), ((3, 3, 3, 2), (1, 3)),
    ((2, 3, 2), (2, 0)), ((6,), (0,)),
])
def test_lift_matches_the_embedding_entry_by_entry(dims, keep):
    rng = np.random.default_rng(61)
    d = int(np.prod([dims[k] for k in keep]))
    stack = np.array([random_herm(rng, d) for _ in range(3)])
    lift = Lift(dims, keep)
    assert lift.size == int(np.prod(dims)) and lift.arg_dim == d
    for h in stack:
        want = embed_by_index(h, dims, keep)
        assert np.array_equal(lift(h), want)
        assert np.array_equal(embed_operator(h, dims, keep), want)
        assert np.array_equal(Lift(dims, keep, transpose=True, scale=-2.5)(h), -2.5 * embed_by_index(h.T, dims, keep))
    # a stack is lifted member by member
    assert np.array_equal(lift(stack), np.array([lift(h) for h in stack]))
    assert np.array_equal((-lift)(stack), -lift(stack))


def test_lift_reproduces_the_device_maps():
    # the instrument maps kron(I, h) and d * kron(I, h^T), the identity and
    # the trace couplings of the robustness programs
    rng = np.random.default_rng(67)
    dp, d = 3, 2
    for h in [random_herm(rng, d) for _ in range(3)]:
        assert np.array_equal(Lift((dp, d), (1,))(h), kron(np.eye(dp), h))
        assert np.array_equal(Lift((dp, d), (1,), transpose=True, scale=d)(h), d * kron(np.eye(dp), h.T))
        assert np.array_equal(Lift.identity(d)(h), h)
        assert np.array_equal(Lift.trace(-1.0)(h), np.array([[-np.trace(h)]]))
        assert np.array_equal(Lift((dp,), ())(h), np.trace(h) * np.eye(dp))
        assert Lift.trace().arg_dim is None and Lift.trace().size == 1


def test_lift_rejects_bad_input():
    with pytest.raises(DimensionError, match="repeated"):
        Lift((2, 2), (1, 1))
    with pytest.raises(DimensionError, match="out of range"):
        Lift((2, 2), (2,))
    with pytest.raises(DimensionError):
        Lift((2, 0), (0,))
    for dims, keep in (((2.7, True), (0,)), ((2.0, 2), (0,)), ((2, 2), (0.5,)), ((2, 2), (True,))):
        with pytest.raises(DimensionError, match="must be positive integers|must be integers"):
            Lift(dims, keep)
    lift = Lift((np.int64(2), 3), (np.int64(1),))
    assert lift.dims == (2, 3) and lift.keep == (1,) and type(lift.dims[0]) is int
    with pytest.raises(ContractError, match="not finite"):
        Lift((2,), (0,), scale=np.nan)
    with pytest.raises(DimensionError, match="does not match"):
        Lift((2, 3), (1,))(np.eye(2))
    with pytest.raises(DimensionError, match="does not match"):
        embed_operator(np.eye(2), (2, 3), ())
