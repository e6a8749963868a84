"""Structured operators: application, adjoint, norms, oracle, dual sups."""

from __future__ import annotations

import numpy as np
import pytest

from lplab.operators import (
    ColumnRule,
    RuleEntry,
    StructuredOperator,
    UnboundedRowSums,
    UnrepresentableImage,
    adjoint,
    apply,
    _J,
    dual_sup_norm,
    fixed_point_restarts,
    materialize,
    op_norm,
    op_norm_batch,
    op_norm_oracle,
    op_norm_oracle_batch,
    truncate,
)
from lplab import operators
from lplab.spaces import (
    GeometricTail,
    IndexDomain,
    PNorm,
    SpVector,
    dense_norm,
    norm,
    pairing,
    row_norms,
)

TOL = 1e-10
TOL_EXACT = 1e-12


def _dense_by_columns(T: StructuredOperator, nrows: int, ncols: int) -> np.ndarray:
    """Independent materialization through the column accessor."""
    M = np.zeros((nrows, ncols), dtype=complex)
    for j in range(ncols):
        for r, v in T.column(j).entries:
            if 0 <= r < nrows:
                M[r, j] = v
    return M


def _random_operator(rng: np.random.Generator, with_rules: bool = True) -> StructuredOperator:
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    block = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    ro, co = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    rules = []
    if with_rules:
        for _ in range(int(rng.integers(0, 3))):
            start = int(rng.integers(0, 7))
            b = int(rng.integers(-start, 6))
            c = (rng.normal() + 1j * rng.normal()) * 0.8
            rho = 0.8 * rng.random() * np.exp(2j * np.pi * rng.random())
            d = (rng.normal() + 1j * rng.normal()) * 0.5 if rng.random() < 0.6 else 0.0
            rules.append(
                ColumnRule(start, 1, (RuleEntry("affine", 1, b, c, rho, d),))
            )
    return StructuredOperator.from_dense(block, ro, co, tuple(rules))


def _column_bits(col: SpVector) -> list[tuple[int, bytes]]:
    return [(j, np.complex128(v).tobytes()) for j, v in col.entries]


class TestColumnMemo:
    def test_memoised_column_equals_a_fresh_operators(self):
        rng = np.random.default_rng(111)
        for _ in range(30):
            T = _random_operator(rng)
            for j in range(-2, 30):
                first = T.column(j)
                assert T.column(j) is first  # built once, then looked up
                fresh = StructuredOperator(T.block, T.row_offset, T.col_offset, T.rules)
                assert _column_bits(first) == _column_bits(fresh.column(j))

    def test_columns_past_the_memo_cap_are_still_right(self, monkeypatch):
        monkeypatch.setattr(operators, "_COLUMN_MEMO_MAX", 3)
        T = _random_operator(np.random.default_rng(112))
        cols = {j: T.column(j) for j in range(12)}
        assert len(T._columns) == 3
        fresh = StructuredOperator(T.block, T.row_offset, T.col_offset, T.rules)
        for j, col in cols.items():
            assert _column_bits(T.column(j)) == _column_bits(col) == _column_bits(fresh.column(j))

    def test_block_is_read_only(self):
        T = StructuredOperator.from_dense(np.ones((2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            T.block[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            T.block *= 2.0

    def test_callers_array_stays_writeable_and_detached(self):
        M = np.arange(4.0).reshape(2, 2) + 0j
        T = StructuredOperator.from_dense(M)
        D = StructuredOperator(M)
        assert M.flags.writeable
        before = _column_bits(T.column(1))
        M[:, 1] = 9.0  # changes neither operator
        assert _column_bits(T.column(1)) == before
        assert _column_bits(D.column(1)) == before
        assert np.array_equal(T.block, D.block)
        assert T.block[0, 1] == 1.0

    def test_a_read_only_view_is_copied_in_its_memory_order(self):
        M = np.arange(6.0).reshape(2, 3) + 0j
        view = M.T
        view.flags.writeable = False
        T = StructuredOperator(view)
        M[0, 0] = 7.0  # a write to the viewed array leaves T as it was
        assert T.block[0, 0] == 0.0
        assert T.block.flags.f_contiguous and not T.block.flags.c_contiguous


def _J_masked(z: np.ndarray, p: float) -> np.ndarray:
    """Reference: ``_J`` as the masked scatter on every input."""
    a = np.abs(z)
    nz = a > 0
    out = np.zeros_like(z)
    out[nz] = np.conj(z[nz]) * a[nz] ** (p - 2.0)
    return out


class TestDualityMap:
    @pytest.mark.parametrize("p", [1.5, 4.0 / 3.0, 3.0, 4.0])
    @pytest.mark.parametrize("zeros", [False, True], ids=["no-zeros", "zeros"])
    def test_equals_the_masked_path_bitwise(self, p, zeros):
        rng = np.random.default_rng(313)
        for shape in ((7,), (5, 3), (32, 24)):
            z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            z[rng.random(size=shape) < 0.1] *= 1e-160  # tiny moduli, still non-zero
            if zeros:
                z.flat[::4] = 0.0
            assert (np.abs(z) > 0).all() != zeros  # zeros take the masked path
            assert _J(z, p).tobytes() == _J_masked(z, p).tobytes()
            # given the moduli, _J writes its result over z
            w = z.copy()
            assert _J(w, p, np.abs(z)) is w and w.tobytes() == _J_masked(z, p).tobytes()

    def test_nan_coordinates_map_to_zero(self):
        z = np.array([1.0 + 1.0j, np.nan, 2.0])
        assert np.array_equal(_J(z, 3.0), np.array([np.sqrt(2) * (1.0 - 1.0j), 0.0, 4.0]))


class TestApply:
    def test_matches_dense_on_finite_vectors(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            T = _random_operator(rng)
            n_idx = int(rng.integers(1, 5))
            x = SpVector.make(
                {int(j): complex(rng.normal(), rng.normal()) for j in rng.choice(30, n_idx, replace=False)}
            )
            R, C = 80, 40
            M = _dense_by_columns(T, R, C)
            want = M @ x.window(0, C)
            got = apply(T, x).window(0, R)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_shift_rule_maps_tail_to_tail(self):
        # forward shift on columns >= 2: e_j -> e_{j+1}
        T = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0, (ColumnRule(2, 1, (RuleEntry("affine", 1, 1, 0.0, 1.0, 1.0),)),)
        )
        x = SpVector.make({0: 5.0}, GeometricTail(2, 2.0, 0.5))
        y = apply(T, x)
        assert y.tail is not None
        np.testing.assert_allclose(y.window(0, 30)[3:], x.window(0, 30)[2:-1], atol=TOL_EXACT)

    def test_geometric_weight_on_tail(self):
        # weight 0.5^k on columns k >= 0 mapped to row j+2
        T = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0, (ColumnRule(0, 1, (RuleEntry("affine", 1, 2, 1.0, 0.5, 0.0),)),)
        )
        x = SpVector.make({}, GeometricTail(0, 1.0, 0.25))
        y = apply(T, x)
        want = np.zeros(30)
        for j in range(28):
            want[j + 2] += 0.5**j * 0.25**j
        np.testing.assert_allclose(y.window(0, 30).real, want, atol=TOL_EXACT)

    def test_mixed_weight_tail_unrepresentable(self):
        T = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0,
            (ColumnRule(0, 1, (RuleEntry("affine", 1, 0, 1.0, 0.5, 1.0),)),),
        )
        x = SpVector.make({}, GeometricTail(0, 1.0, 0.25))
        with pytest.raises(UnrepresentableImage):
            apply(T, x)

    def test_overridden_tail_columns(self):
        T = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0, (ColumnRule(0, 1, (RuleEntry("affine", 1, 1, 0.0, 1.0, 1.0),)),)
        )
        x = SpVector.make({3: 9.0}, GeometricTail(0, 1.0, 0.5))
        y = apply(T, x)
        w = y.window(0, 12)
        assert w[4] == pytest.approx(9.0)
        assert w[3] == pytest.approx(0.25)


class TestAdjointCompose:
    def test_adjoint_pairing_identity(self):
        rng = np.random.default_rng(202)
        for _ in range(40):
            T = _random_operator(rng)
            Tt = adjoint(T)
            f = SpVector.make({int(j): complex(rng.normal(), rng.normal()) for j in rng.choice(40, 3, replace=False)})
            x = SpVector.make({int(j): complex(rng.normal(), rng.normal()) for j in rng.choice(40, 3, replace=False)})
            lhs = pairing(f, apply(T, x))
            rhs = pairing(apply(Tt, f), x)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_adjoint_of_triangle_rows_raises(self):
        T = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0, (ColumnRule(0, 1, (RuleEntry("diag_enum", 0, 0, 0.0, 0.5, 1.0),)),)
        )
        with pytest.raises(UnrepresentableImage):
            adjoint(T)

    def test_adjoint_of_backward_rule_below_row_zero_raises(self):
        # T e_j = e_{j+2} for j = 3, 2, 1, 0: T* e_0 and T* e_1 would need rows
        # -2 and -1, which the naturals do not have
        rule = ColumnRule(3, -1, (RuleEntry("affine", 1, 2, 1.0, 1.0, 0.0),))
        T = StructuredOperator.from_dense(np.zeros((1, 1)), 0, 0, (rule,))
        with pytest.raises(ValueError, match="rows below 0"):
            adjoint(T)
        # the same rule on the integers, and an unshifted one on the naturals, stay fine
        T_int = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0, (rule,), IndexDomain.INTEGERS
        )
        assert apply(adjoint(T_int), SpVector.basis(0, IndexDomain.INTEGERS)).entries == ((-2, 1.0),)
        flat = ColumnRule(3, -1, (RuleEntry("affine", 1, 0, 1.0, 1.0, 0.0),))
        T0 = StructuredOperator.from_dense(np.zeros((1, 1)), 0, 0, (flat,))
        assert apply(adjoint(T0), SpVector.basis(0)).entries == ((0, 1.0),)

    def test_truncate_matches_columns(self):
        rng = np.random.default_rng(204)
        T = _random_operator(rng)
        D = 25
        np.testing.assert_allclose(truncate(T, D), _dense_by_columns(T, D, D), atol=0)

    @pytest.mark.parametrize(
        "entry",
        [RuleEntry("affine", 1, 0, 0.7 + 0.2j, rho, 0.1) for rho in (0.9137, 0.77 + 0.3j, -0.6543)]
        + [RuleEntry("diag_enum", 0, 0, 0.7 + 0.2j, 0.77 + 0.3j, 0.1)],
        ids=["real", "complex", "negative", "diag_enum"],
    )
    def test_materialize_is_the_columns_to_the_bit(self, entry):
        """A dense window holds what T.column(j) holds, to the last bit."""
        T = StructuredOperator.from_dense(np.zeros((1, 1)), 0, 0, (ColumnRule(0, 1, (entry,)),))
        assert np.array_equal(materialize(T, 0, 400, 0, 400), _dense_by_columns(T, 400, 400))


class TestNorms:
    def test_l1_norm_is_sup_column_sums(self):
        rng = np.random.default_rng(301)
        for _ in range(30):
            T = _random_operator(rng)
            cert = op_norm(T, PNorm.lp(1))
            brute = 0.0
            for j in range(250):
                brute = max(brute, sum(abs(v) for _, v in T.column(j).entries))
            lim = sum(abs(e.d) for rule in T.rules for e in rule.entries)
            assert cert.value == pytest.approx(max(brute, lim), abs=1e-9)
            assert cert.method == "exact"

    def test_l1_limit_only_attained_in_the_limit(self):
        # column sums increase strictly to |d| = 1
        T = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0,
            (ColumnRule(0, 1, (RuleEntry("affine", 1, 0, -0.5, 0.5, 1.0),)),),
        )
        cert = op_norm(T, PNorm.lp(1))
        assert cert.value == pytest.approx(1.0, abs=TOL_EXACT)

    def test_c0_norm_is_sup_row_sums(self):
        rng = np.random.default_rng(302)
        for _ in range(30):
            T = _random_operator(rng)
            cert = op_norm(T, PNorm.c0())
            M = _dense_by_columns(T, 420, 800)
            brute = np.abs(M).sum(axis=1).max()
            lim = sum(abs(e.d) for rule in T.rules for e in rule.entries)
            assert cert.value == pytest.approx(max(brute, lim), abs=1e-8)

    def test_c0_unbounded_rows_raise(self):
        T = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0,
            (ColumnRule(0, 1, (RuleEntry("diag_enum", 0, 0, -0.5, 0.5, 1.0),)),),
        )
        with pytest.raises(UnboundedRowSums):
            op_norm(T, PNorm.c0())
        T2 = StructuredOperator.from_dense(
            np.zeros((1, 1)), 0, 0,
            (ColumnRule(0, 1, (RuleEntry("affine", 0, 0, 0.0, 1.0, 0.5),)),),
        )
        with pytest.raises(UnboundedRowSums):
            op_norm(T2, PNorm.c0())

    def test_l2_dense_matches_svd(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            T = StructuredOperator.from_dense(M)
            s = np.linalg.svd(M, compute_uv=False)[0]
            assert op_norm(T, PNorm.lp(2)).value == pytest.approx(s, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_l2_non_finite_block_raises(self, bad):
        # 2x2 with inf: np.linalg.svd alone would return NaN without raising
        M = np.array([[1.0, bad], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            op_norm(StructuredOperator.from_dense(M), PNorm.lp(2))

    @pytest.mark.parametrize("pn", [PNorm.lp(1.0), PNorm.c0()], ids=lambda pn: pn.label())
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_exact_routes_refuse_a_non_finite_block(self, pn, bad):
        # the column and row sums would give inf, or pass over the NaN,
        # under an "exact" label
        M = np.ones((4, 4), dtype=complex)
        M[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            op_norm(StructuredOperator.from_dense(M), pn)

    @pytest.mark.parametrize("pn", [PNorm.lp(1.0), PNorm.c0()], ids=lambda pn: pn.label())
    def test_exact_routes_refuse_a_non_finite_rule_weight(self, pn):
        rule = ColumnRule(5, 1, (RuleEntry("affine", 1, 1, 0.0, 0.5, np.inf),))
        T = StructuredOperator.from_dense(np.eye(2), 0, 0, (rule,))
        with pytest.raises(ValueError, match="finite"):
            op_norm(T, pn)

    def test_l2_split_block_plus_shift(self):
        M = np.array([[0.3, 0.1], [0.0, 0.2]])
        rule = ColumnRule(5, 1, (RuleEntry("affine", 1, 1, 0.0, 1.0, 0.9),))
        T = StructuredOperator.from_dense(M, 0, 0, (rule,))
        assert op_norm(T, PNorm.lp(2)).value == pytest.approx(0.9, abs=TOL_EXACT)

    def test_lp_fixed_point_vs_oracle_dim3(self):
        rng = np.random.default_rng(304)
        for p in (1.5, 3.0):
            pn = PNorm.lp(p)
            for _ in range(8):
                M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                got = op_norm(StructuredOperator.from_dense(M), pn).value
                want = op_norm_oracle(M, pn).value
                assert got == pytest.approx(want, abs=1e-4)

    def test_norm_witness_attains(self):
        rng = np.random.default_rng(305)
        M = rng.normal(size=(3, 3))
        T = StructuredOperator.from_dense(M)
        for pn in (PNorm.lp(1), PNorm.lp(2), PNorm.lp(3)):
            cert = op_norm(T, pn)
            if cert.witness is None:
                continue
            gain = norm(apply(T, cert.witness), pn) / norm(cert.witness, pn)
            assert gain == pytest.approx(cert.value, abs=1e-8)

    def test_c0_witness_attains_row_sum(self):
        rng = np.random.default_rng(306)
        pn = PNorm.c0()
        for _ in range(10):
            M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            cert = op_norm(StructuredOperator.from_dense(M), pn)
            assert cert.witness is not None
            gain = norm(apply(StructuredOperator.from_dense(M), cert.witness), pn)
            assert norm(cert.witness, pn) == pytest.approx(1.0, abs=TOL_EXACT)
            assert gain == pytest.approx(cert.value, abs=TOL_EXACT)


def _restarts_one_by_one(M: np.ndarray, p: float) -> list[tuple[float, np.ndarray, float]]:
    """Reference: the fixed-point ascent run one restart at a time, one
    matrix-vector product per Python step, from the module's starts."""
    m, n = M.shape
    q = p / (p - 1.0)
    pn = PNorm.lp(p)
    rng = np.random.default_rng(operators._FIXED_POINT_SEED)
    starts = [np.eye(n, dtype=complex)[:, i] for i in range(n)]
    starts.append(np.ones(n, dtype=complex))
    while len(starts) < operators._FIXED_POINT_RESTARTS:
        starts.append(rng.normal(size=n) + 1j * rng.normal(size=n))
    out: list[tuple[float, np.ndarray, float]] = []
    for x0 in starts:
        nx = float(dense_norm(x0, pn))
        if nx == 0:
            continue
        x = x0 / nx
        v_prev = float(dense_norm(M @ x, pn))
        res = v_prev
        for _ in range(500):
            g = M.T @ _J(M @ x, p)
            y = _J(g, q)
            ny = float(dense_norm(y, pn))
            if ny == 0:
                break
            x = y / ny
            v = float(dense_norm(M @ x, pn))
            if v < v_prev - 1e-12 * max(1.0, v_prev):
                raise ValueError("fixed-point ascent lost monotonicity")
            res = v - v_prev
            if res <= 1e-15 * max(v, 1e-30):
                v_prev = v
                break
            v_prev = v
        out.append((v_prev, x, abs(res)))
    return out


def _bits(runs: list[tuple[float, np.ndarray, float]]) -> list[tuple]:
    return [
        (np.float64(v).tobytes(), x.dtype, x.shape, x.tobytes(), np.float64(r).tobytes())
        for v, x, r in runs
    ]


def _fixed_point_cases() -> list:
    rng = np.random.default_rng(307)
    cases = []
    kinds = ("real", "complex", "nonneg", "zero-column")
    for n in (1, 2, 3, 5, 8, 24, 40):
        for p in (1.25, 1.5, 3.0, 4.0, 7.0):
            kind = kinds[len(cases) % len(kinds)]
            M = rng.normal(size=(n, n))
            if kind == "complex":
                M = M + 1j * rng.normal(size=(n, n))
            elif kind == "nonneg":
                M = np.abs(M)
            elif kind == "zero-column":
                M[:, int(rng.integers(n))] = 0.0
            cases.append(pytest.param(M, p, id=f"{kind}-{n}x{n}-p{p}"))
    for shape in ((2, 5), (5, 2), (24, 30)):
        for p in (1.5, 3.0):
            M = rng.normal(size=shape)
            cases.append(pytest.param(M, p, id=f"real-{shape[0]}x{shape[1]}-p{p}"))
    cases.append(pytest.param(np.zeros((3, 3)), 3.0, id="zero-3x3-p3.0"))
    return cases


class TestFixedPointBatch:
    @pytest.mark.parametrize("M, p", _fixed_point_cases())
    def test_bitwise_equal_to_one_restart_at_a_time(self, M, p):
        want = _restarts_one_by_one(M, p)
        got = fixed_point_restarts(M, p)
        assert _bits(got) == _bits(want)

    def test_monotonicity_error_as_in_the_loop(self):
        # the duality map |z|^(p-1) of this matrix's images overflows at p = 7
        M = np.array([[7e29 + 8e29j, 1e-27], [-0.01, 1e57 + 5e57j]])
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="monotonicity"):
                _restarts_one_by_one(M, 7.0)
            with pytest.raises(ValueError, match="monotonicity"):
                fixed_point_restarts(M, 7.0)

    def test_a_nan_row_stops_at_once(self, monkeypatch):
        # NaN is absorbing: a matrix with an inf entry stops after its first
        # step, with the ValueError text the full 500 steps gave
        slices = operators._matvec_slices
        calls = []

        def counted(*args):
            calls.append(None)
            return slices(*args)

        monkeypatch.setattr(operators, "_matvec_slices", counted)
        M = np.random.default_rng(310).normal(size=(6, 6)) + 0j
        M[2, 3] = np.inf
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="^fixed-point ascent at p = 3.0 gave a non-finite value nan$"):
                op_norm(StructuredOperator.from_dense(M), PNorm.lp(3.0))
        assert len(calls) == 3  # the first image, then one step's two products

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, "c0"])
    def test_row_norms_match_dense_norm(self, p):
        # Fails if a NumPy upgrade changes how a row is summed or how pow
        # rounds, before that can move the bytes of a report.
        rng = np.random.default_rng(308)
        pn = PNorm.c0() if p == "c0" else PNorm.lp(p)
        for n in range(1, 257):
            Z = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
            for z, v in zip(Z, row_norms(Z, pn)):
                assert np.float64(v).tobytes() == np.float64(dense_norm(z, pn)).tobytes()


def _cert_bits(cert) -> tuple:
    witness = None
    if cert.witness is not None:
        witness = [(j, np.complex128(v).tobytes()) for j, v in cert.witness.entries]
    return (
        np.float64(cert.value).tobytes(),
        np.float64(cert.residual).tobytes(),
        cert.method,
        witness,
    )


def _stack(rng: np.random.Generator, K: int, shape: tuple[int, int]) -> np.ndarray:
    """K complex Gaussian matrices; the first is zero, the second has a zero column."""
    Ms = rng.normal(size=(K, *shape)) + 1j * rng.normal(size=(K, *shape))
    Ms[0] = 0.0
    if K > 1:
        Ms[1][:, shape[1] // 2] = 0.0
    return Ms


_BATCH_SPACES = [PNorm.lp(1.0), PNorm.lp(1.5), PNorm.lp(2.0), PNorm.lp(3.0), PNorm.lp(4.0), PNorm.c0()]


class TestOpNormBatch:
    @pytest.mark.parametrize("pn", _BATCH_SPACES, ids=lambda pn: pn.label())
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (8, 8), (24, 24), (8, 24)])
    def test_each_member_gets_its_lone_bits(self, pn, shape):
        Ms = _stack(np.random.default_rng(shape[0] * 100 + shape[1]), 20, shape)
        want = [_cert_bits(op_norm(StructuredOperator.from_dense(M), pn)) for M in Ms]
        for K in (1, 5, 20):
            got = op_norm_batch(Ms[-K:], pn)
            assert [_cert_bits(c) for c in got] == want[-K:], K
        assert op_norm_batch(Ms[:2], pn)[0].value == 0.0

    @pytest.mark.parametrize("pn", _BATCH_SPACES, ids=lambda pn: pn.label())
    def test_empty_stack(self, pn):
        assert op_norm_batch(np.zeros((0, 3, 3), dtype=complex), pn) == []

    def test_rejects_a_lone_matrix(self):
        with pytest.raises(ValueError, match="stack"):
            op_norm_batch(np.eye(3), PNorm.lp(3.0))

    @pytest.mark.parametrize("p", [3.0, 7.0])
    def test_a_failing_member_fails_alone(self, p):
        # a matrix that loses monotonicity at p = 7 (its duality map
        # |z|^(p-1) overflows) and one with an inf entry sit between ordinary
        # ones; each failure is that member's own error
        rng = np.random.default_rng(409)
        Ms = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        Ms[1] = [[7e29 + 8e29j, 1e-27], [-0.01, 1e57 + 5e57j]]
        Ms[3, 0, 1] = np.inf
        pn = PNorm.lp(p)
        with np.errstate(all="ignore"):
            got = op_norm_batch(Ms, pn)
            for M, cert in zip(Ms, got):
                try:
                    want = op_norm(StructuredOperator.from_dense(M), pn)
                except ValueError as exc:
                    assert type(cert) is type(exc) and str(cert) == str(exc)
                else:
                    assert _cert_bits(cert) == _cert_bits(want)
        assert isinstance(got[3], ValueError) and "non-finite" in str(got[3])
        if p == 7.0:
            assert isinstance(got[1], ValueError) and "monotonicity" in str(got[1])
        assert all(not isinstance(got[k], Exception) for k in (0, 2, 4))


    @pytest.mark.parametrize("pn", [PNorm.lp(1.0), PNorm.c0()], ids=lambda pn: pn.label())
    def test_a_non_finite_member_of_an_exact_route_fails_alone(self, pn):
        Ms = _stack(np.random.default_rng(411), 4, (3, 3))
        Ms[2, 1, 1] = np.inf
        got = op_norm_batch(Ms, pn)
        assert isinstance(got[2], ValueError) and "finite" in str(got[2])
        for k in (0, 1, 3):
            assert _cert_bits(got[k]) == _cert_bits(op_norm(StructuredOperator.from_dense(Ms[k]), pn))


# Members 100 and 110 of _pool_stack(): the p = 7 matrix whose duality map
# overflows, and one with rows that run to the 500-step cap at p = 7.
_LOSES_MONOTONICITY = [[7e29 + 8e29j, 1e-27], [-0.01, 1e57 + 5e57j]]
_RUNS_TO_THE_CAP = [[1.0, 1e-3], [0.0, 0.995j]]


def _pool_stack() -> np.ndarray:
    """120 2 x 2 matrices, more than the fixed-point pool holds at once."""
    Ms = _stack(np.random.default_rng(412), 120, (2, 2))
    Ms[100], Ms[110] = _LOSES_MONOTONICITY, _RUNS_TO_THE_CAP
    return Ms


class TestFixedPointPool:
    def test_the_stack_overflows_the_pool(self):
        # members 100 and 110 enter only after the first matrices have left
        Ms = _pool_stack()
        assert 100 * 32 * 2 > operators._POOL_ENTRIES
        with np.errstate(all="ignore"):
            order = [k for k, _ in operators._fixed_point_pool(Ms, 7.0)]
        assert sorted(order) == list(range(len(Ms)))
        assert order.index(100) > 0 and order.index(110) > 0

    def test_late_members_get_their_lone_bits(self, monkeypatch):
        Ms, pn = _pool_stack(), PNorm.lp(7.0)
        M = np.array(_RUNS_TO_THE_CAP)
        monkeypatch.setattr(operators, "_FIXED_POINT_STEPS", operators._FIXED_POINT_STEPS + 1)
        longer = fixed_point_restarts(M, 7.0)
        monkeypatch.undo()
        lone = fixed_point_restarts(M, 7.0)
        assert _bits(lone) != _bits(longer)  # some row did stop at the cap
        with np.errstate(all="ignore"):
            pooled = dict(operators._fixed_point_pool(Ms, 7.0))
            certs = op_norm_batch(Ms, pn)
            with pytest.raises(ValueError, match="monotonicity") as lost:
                op_norm(StructuredOperator.from_dense(Ms[100]), pn)
        assert _bits(pooled[110]) == _bits(lone)
        assert _cert_bits(certs[110]) == _cert_bits(op_norm(StructuredOperator.from_dense(M), pn))
        assert type(pooled[100]) is ValueError and str(pooled[100]) == str(lost.value)
        assert type(certs[100]) is ValueError and str(certs[100]) == str(lost.value)
        for k in range(0, 120, 7):
            assert _bits(pooled[k]) == _bits(fixed_point_restarts(Ms[k], 7.0)), k

    def test_live_row_entries_stay_under_the_bound(self, monkeypatch):
        slices = operators._matvec_slices
        entries = []

        def recording(Ms, Z, bounds):
            entries.append(Z.shape[0] * Z.shape[1])
            return slices(Ms, Z, bounds)

        monkeypatch.setattr(operators, "_matvec_slices", recording)
        with np.errstate(all="ignore"):
            op_norm_batch(_pool_stack(), PNorm.lp(7.0))
        # the pool fills to within one matrix's restarts of the bound
        assert operators._POOL_ENTRIES - 32 * 2 < max(entries) <= operators._POOL_ENTRIES

    def test_draws_only_what_fits(self):
        # a lazy stream is read only as far as the pool has room
        drawn = []

        def draws():
            for k, M in enumerate(_pool_stack()):
                drawn.append(k)
                yield M

        stream = operators.op_norm_stream(draws(), PNorm.lp(3.0))
        next(stream)
        assert len(drawn) < 120
        assert len(list(stream)) == 119 and len(drawn) == 120

    def test_refuses_a_second_shape(self):
        with pytest.raises(ValueError, match="shape"):
            list(operators.op_norm_stream([np.eye(2), np.eye(3)], PNorm.lp(3.0)))


def _gain_and_direction(
    A: np.ndarray, AH: np.ndarray, X: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gain ||A[r] x||_p / ||x||_p at each row x of X, ||x||_p, and the unit
    gradient direction, as the fixed-step ascent below took them."""
    aX = np.abs(X)
    Gp = (aX**p).sum(axis=-1)
    Y = (A * X[:, None, :]).sum(axis=-1)
    aY = np.abs(Y)
    gp = (aY**p).sum(axis=-1) / Gp
    dx = np.maximum(aX, operators._TINY) ** (p - 2.0) * X
    dy = np.maximum(aY, operators._TINY) ** (p - 2.0) * Y
    g = (AH * dy[:, None, :]).sum(axis=-1) - gp[:, None] * dx
    size = np.sqrt((np.abs(g) ** 2).sum(axis=-1))
    return gp ** (1.0 / p), Gp ** (1.0 / p), g / np.maximum(size, operators._TINY)[:, None]


def _ascend_to_1e_15(A: np.ndarray, X: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's ascent as it was with a fixed unit-direction step rule
    (t grows 1.5x on a rise and halves on a miss) and a step floor of 1e-15,
    verbatim: the reference that the Barzilai-Borwein ascent must agree with."""
    AH = np.conj(np.swapaxes(A, 1, 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value, G, D = _gain_and_direction(A, AH, X, p)
        X = X / G[:, None]
        best, out = value.copy(), X.copy()
        t = np.full(len(X), 0.1)
        act = np.arange(len(X))
        for _ in range(1000):
            Xt = X + t[:, None] * D
            vt, Gt, Dt = _gain_and_direction(A, AH, Xt, p)
            up = vt > value
            np.copyto(value, vt, where=up)
            np.copyto(X, Xt / Gt[:, None], where=up[:, None])
            np.copyto(D, Dt, where=up[:, None])
            t *= 0.5 + up
            if t.min() < 1e-15:
                stop = t < 1e-15
                best[act[stop]], out[act[stop]] = value[stop], X[stop]
                keep = ~stop
                act, A, AH, X, D, t, value = (a[keep] for a in (act, A, AH, X, D, t, value))
                if not act.size:
                    break
        best[act], out[act] = value, X
    return best, out


class TestOracle:
    def test_exact_routes(self):
        rng = np.random.default_rng(401)
        for _ in range(25):
            M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            col_sums = np.abs(M).sum(axis=0).max()
            row_sums = np.abs(M).sum(axis=1).max()
            assert op_norm_oracle(M, PNorm.lp(1)).value == pytest.approx(col_sums, abs=TOL_EXACT)
            assert op_norm_oracle(M, PNorm.c0()).value == pytest.approx(row_sums, abs=TOL_EXACT)

    def test_l2_matches_svd(self):
        rng = np.random.default_rng(402)
        for _ in range(15):
            M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            s = np.linalg.svd(M, compute_uv=False)[0]
            assert op_norm_oracle(M, PNorm.lp(2)).value == pytest.approx(s, abs=1e-7)

    def test_rejects_large_matrices(self):
        with pytest.raises(ValueError):
            op_norm_oracle(np.eye(4), PNorm.lp(2))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (2, 3), (3, 1)])
    def test_batch_gives_each_member_its_lone_bits(self, shape, p):
        # complex and non-negative real members (two different grids) and a
        # zero matrix share one batch
        rng = np.random.default_rng(403)
        Ms = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3)]
        Ms += [np.abs(rng.normal(size=shape)).astype(complex) for _ in range(2)]
        Ms.append(np.zeros(shape, dtype=complex))
        pn = PNorm.lp(p)
        batch = op_norm_oracle_batch(np.array(Ms), pn)
        assert len(batch) == len(Ms)
        for M, got in zip(Ms, batch):
            want = op_norm_oracle(M, pn)
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()
            assert [(j, np.complex128(v).tobytes()) for j, v in got.witness.entries] == [
                (j, np.complex128(v).tobytes()) for j, v in want.witness.entries
            ]
        assert batch[-1].value == 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_independent_of_the_fixed_point(self, monkeypatch, p):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not use the fixed-point route")

        monkeypatch.setattr(operators, "fixed_point_restarts", refuse)
        monkeypatch.setattr(operators, "_J", refuse)
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        cert = op_norm_oracle(M, PNorm.lp(p))
        assert cert.method == "oracle" and 1.0 < cert.value < 2.0

    def test_never_calls_scipy_minimize(self, monkeypatch):
        import scipy.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not call scipy.optimize.minimize")

        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        monkeypatch.setattr(operators, "minimize", refuse)
        rng = np.random.default_rng(404)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for pn in (PNorm.lp(1.5), PNorm.lp(3.0), PNorm.lp(1.0), PNorm.c0()):
            assert op_norm_oracle(M, pn).value > 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_single_column_is_its_exact_norm(self, monkeypatch, p):
        # every unit vector of C^1 is a phase times e_0, so the norm is
        # ||M e_0||_p, with no grid and no ascent
        def refuse(*args, **kwargs):
            raise AssertionError("a single column needs no grid and no ascent")

        monkeypatch.setattr(operators, "_ascend", refuse)
        monkeypatch.setattr(operators, "_oracle_grid", refuse)
        rng = np.random.default_rng(405)
        cols = [rng.normal(size=(m, 1)) + 1j * rng.normal(size=(m, 1)) for m in (1, 2, 3)]
        cols += [np.zeros((2, 1)), np.array([[1e-200], [-3e-200j]]), np.array([[1e200], [2e200j]])]
        pn = PNorm.lp(p)
        for col in cols:
            cert = op_norm_oracle(col, pn)
            assert cert.value == dense_norm(col[:, 0], pn)
            # the root's rounded exponent 1/p costs about |ln s| ulps at a
            # p-th power sum s near 1e-300
            scale = np.abs(col).max()
            want = scale * np.sum((np.abs(col) / scale) ** p) ** (1.0 / p) if scale else 0.0
            assert cert.value == pytest.approx(want, rel=1e-13, abs=0.0)
            assert cert.method == "oracle" and cert.residual == 0.0
            assert cert.witness.entries == ((0, 1.0),)
        tall = [col for col in cols if col.shape == (2, 1)]
        assert len(tall) == 4
        batch = op_norm_oracle_batch(np.array(tall), pn)
        assert [c.value for c in batch] == [op_norm_oracle(col, pn).value for col in tall]

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_the_step_floor_stays_below_the_long_ascent(self, monkeypatch, d, p):
        # the 2^-27 step floor costs no more than 1e-13 relative against the
        # fixed-step ascent run to t < 1e-15; the Barzilai-Borwein path is not
        # that one, so its value may land on either side
        rng = np.random.default_rng([406, d])
        Ms = rng.normal(size=(20, d, d)) + 1j * rng.normal(size=(20, d, d))
        pn = PNorm.lp(p)
        new = [c.value for c in op_norm_oracle_batch(Ms, pn)]
        monkeypatch.setattr(operators, "_ascend", _ascend_to_1e_15)
        ref = [c.value for c in op_norm_oracle_batch(Ms, pn)]
        for got, want in zip(new, ref):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_converges_where_a_coordinate_is_tiny(self):
        # criterion 1 at seed 11, l^1.5, draw 64 (3 x 3): the maximiser has a
        # coordinate of modulus 6e-4, and the fixed-step ascent ran every
        # start to the 1,000-trial cap and ended 4.5e-8 below op_norm
        rng = np.random.default_rng(11)
        draws = []
        for _ in range(2 * 200):  # the l1 draws, then the l1.5 draws
            d = int(rng.integers(1, 4))
            draws.append(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        M = draws[200 + 64]
        assert M.shape == (3, 3)
        pn = PNorm.lp(1.5)
        engine = op_norm(StructuredOperator.from_dense(M), pn).value
        assert op_norm_oracle(M, pn).value == pytest.approx(engine, rel=1e-12, abs=0.0)

    def test_the_cached_grid_is_read_only(self):
        X, den = operators._oracle_grid(3, 3.0, False)
        assert operators._oracle_grid(3, 3.0, False)[0] is X
        assert not X.flags.writeable and not den.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0] = 2.0
        np.testing.assert_array_equal(den, dense_norm(X, PNorm.lp(3.0)))

    @pytest.mark.parametrize("pn", [PNorm.lp(3.0), PNorm.lp(1.5), PNorm.lp(1.0), PNorm.c0()])
    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 1, 1), (0, 3, 1)])
    def test_an_empty_stack_gives_no_certificates(self, pn, shape):
        assert op_norm_oracle_batch(np.zeros(shape), pn) == []
        assert op_norm_batch(np.zeros(shape), pn) == []

    @pytest.mark.parametrize("pn", [PNorm.lp(3.0), PNorm.lp(1.5), PNorm.lp(1.0), PNorm.c0()])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_a_non_finite_entry_is_refused(self, pn, bad):
        # the grid and the ascent would turn it into a NaN value labelled
        # "oracle", with RuntimeWarnings
        with pytest.raises(ValueError, match="finite"):
            op_norm_oracle(np.array([[bad, 1.0], [0.0, 1.0]]), pn)
        with pytest.raises(ValueError, match="finite"):
            op_norm_oracle_batch(np.array([np.eye(2), [[1.0, 0.0], [bad, 1.0]]]), pn)


class TestDualSup:
    def test_matches_brute_force_columns(self):
        rng = np.random.default_rng(601)
        for _ in range(20):
            T = _random_operator(rng)
            xs = SpVector.make({int(j): complex(rng.normal(), rng.normal()) for j in rng.choice(12, 3, replace=False)})
            got = dual_sup_norm(T, xs)
            brute = max(abs(pairing(xs, T.column(j))) for j in range(400))
            assert got >= brute - 1e-9
            assert got == pytest.approx(brute, abs=1e-8)

    def test_triangle_rows_limit(self):
        # columns k: weight (1 - 0.5^(k+1)) at row phi(k) -> sup approaches max |x*|
        rule = ColumnRule(0, 1, (RuleEntry("diag_enum", 0, 0, -1.0, 0.5, 1.0),))
        T = StructuredOperator.from_dense(np.zeros((1, 1)), 0, 0, (rule,))
        xs = SpVector.make({0: 0.3, 2: -0.7})
        got = dual_sup_norm(T, xs)
        assert got == pytest.approx(0.7, abs=TOL_EXACT)

    def test_a_nan_block_entry_is_refused(self):
        # the column sweep would pass over the NaN column (v > best is false)
        # and return 1.0 from column 1
        T = StructuredOperator.from_dense([[np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            dual_sup_norm(T, SpVector.basis(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_operator_is_refused_on_every_call(self, bad):
        # the check and the scale are kept per operator, the refusal too
        rule = ColumnRule(2, 1, (RuleEntry("affine", 1, 0, bad, 0.5, 0.0),))
        T = StructuredOperator.from_dense([[1.0, 0.5], [0.0, 1.0]], rules=(rule,))
        for _ in range(2):
            with pytest.raises(ValueError, match="dual sup needs finite"):
                dual_sup_norm(T, SpVector.basis(0))
        with pytest.raises(ValueError, match="l1 norm needs finite"):
            op_norm(T, PNorm.lp(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_a_non_finite_functional_is_refused(self, bad):
        T = StructuredOperator.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            dual_sup_norm(T, SpVector.make({0: bad, 1: 0.5}))
