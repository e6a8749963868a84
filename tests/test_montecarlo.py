from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from lplab.montecarlo import (
    ExperimentConfig,
    ExperimentKind,
    ap_gain_profile,
    ap_grid_points,
    exp_apspectrum_grid,
    exp_disjoint_support,
    exp_eigen_stats,
    exp_isometry_defect,
    exp_orbit_decay,
    isometry_defect,
    run_suite,
    sample_contraction,
    space_from_token,
    space_to_token,
)
from lplab.operators import StructuredOperator, op_norm
from lplab import montecarlo, operators
from lplab.reports import canonical_json, check, exit_code
from lplab.spaces import PNorm, dense_norm

NORM_SLACK = 1e-9


def _cfg(experiment, space=None, dim=8, samples=4, seed=3):
    return ExperimentConfig(
        space=space if space is not None else PNorm.lp(3.0),
        dim=dim,
        samples=samples,
        seed=seed,
        experiment=experiment,
    )


class TestExperimentConfig:
    def test_dim_cap(self):
        with pytest.raises(ValueError):
            _cfg(ExperimentKind.ORBIT_DECAY, dim=257)
        with pytest.raises(ValueError):
            _cfg(ExperimentKind.ORBIT_DECAY, dim=0)

    def test_samples_cap(self):
        with pytest.raises(ValueError):
            _cfg(ExperimentKind.ORBIT_DECAY, samples=100_001)
        with pytest.raises(ValueError):
            _cfg(ExperimentKind.ORBIT_DECAY, samples=-1)

    def test_dict_roundtrip(self):
        cfg = _cfg(ExperimentKind.EIGEN_STATS, space=PNorm.c0(), seed=99)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_space_tokens(self):
        assert space_from_token("c0").is_c0
        assert space_from_token("2.5").p == 2.5
        assert space_to_token(PNorm.lp(1.5)) == "1.5"
        assert space_from_token(space_to_token(PNorm.c0())).is_c0


class TestSampleContraction:
    @pytest.mark.parametrize("token", ["1.0", "2.0", "3.0", "c0"])
    def test_norm_at_most_one(self, token):
        pn = space_from_token(token)
        rng = np.random.default_rng(5)
        for _ in range(5):
            M = sample_contraction(6, pn, rng)
            cert = op_norm(StructuredOperator.from_dense(M), pn)
            assert cert.value <= 1.0 + NORM_SLACK

    def test_deterministic_given_stream(self):
        a = sample_contraction(5, PNorm.lp(2.0), np.random.default_rng(1))
        b = sample_contraction(5, PNorm.lp(2.0), np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_complex_entries(self):
        M = sample_contraction(4, PNorm.lp(2.0), np.random.default_rng(2))
        assert np.abs(M.imag).max() > 0.0


class TestChunkedNormalisation:
    """_map_samples draws each sample's G from its own stream and streams
    the configuration's samples through one op_norm_stream pool."""

    @staticmethod
    def _one_at_a_time(monkeypatch, cfg):
        # a pool with room for one matrix's restarts normalises one sample at a time
        monkeypatch.setattr(operators, "_POOL_ENTRIES", 1)
        text = canonical_json(run_suite([cfg]))
        monkeypatch.undo()
        return text

    @pytest.mark.parametrize("token", ["1.5", "3.0", "c0"])
    def test_same_bytes_as_one_sample_at_a_time(self, monkeypatch, token):
        cfg = _cfg(ExperimentKind.EIGEN_STATS, space=space_from_token(token), dim=6, samples=23)
        want = self._one_at_a_time(monkeypatch, cfg)
        assert canonical_json(run_suite([cfg])) == want

    def test_a_failing_sample_is_its_own_error(self, monkeypatch):
        cfg = _cfg(ExperimentKind.ORBIT_DECAY, dim=6, samples=13)
        clean = run_suite([cfg]).sections[0].records
        draw = montecarlo._gaussian
        calls = []

        def poisoned(dim, rng):
            G = draw(dim, rng)
            calls.append(len(calls))
            if len(calls) == 3:  # sample 2
                G[1, 4] = np.inf
            return G

        monkeypatch.setattr(montecarlo, "_gaussian", poisoned)
        with np.errstate(all="ignore"):
            batched = run_suite([cfg])
            calls.clear()
            alone = self._one_at_a_time(monkeypatch, cfg)
        assert canonical_json(batched) == alone
        records = batched.sections[0].records
        assert records[2] == check(
            "sample_error",
            1,
            "exact",
            "==",
            0,
            sample=2,
            error="ValueError: fixed-point ascent at p = 3.0 gave a non-finite value nan",
        )
        for k in range(cfg.samples):
            if k != 2:
                assert canonical_json(records[k]) == canonical_json(clean[k]), k
        assert records[-1]["errors"] == 1

    @pytest.mark.parametrize("token", ["1.0", "c0"])
    def test_a_non_finite_sample_on_an_exact_route_is_its_own_error(self, monkeypatch, token):
        cfg = _cfg(ExperimentKind.ORBIT_DECAY, space=space_from_token(token), dim=6, samples=5)
        clean = run_suite([cfg]).sections[0].records
        draw = montecarlo._gaussian
        calls = []

        def poisoned(dim, rng):
            G = draw(dim, rng)
            calls.append(None)
            if len(calls) == 2:  # sample 1
                G[3, 0] = np.inf
            return G

        monkeypatch.setattr(montecarlo, "_gaussian", poisoned)
        records = run_suite([cfg]).sections[0].records
        label = "l1" if token == "1.0" else "c0"
        assert records[1] == check(
            "sample_error",
            1,
            "exact",
            "==",
            0,
            sample=1,
            error=f"ValueError: the exact {label} norm needs finite entries",
        )
        for k in (0, 2, 3, 4):
            assert canonical_json(records[k]) == canonical_json(clean[k]), k
        assert records[-1]["errors"] == 1

    def test_memory_is_bounded_by_the_pool(self, monkeypatch):
        # a sample is drawn only when the pool has room for its restarts: at
        # dim 24 the first eight fill it, and the rest wait for rows to leave
        draw, slices = montecarlo._gaussian, operators._matvec_slices
        drawn, products = [], []

        def counted_draw(dim, rng):
            drawn.append(None)
            return draw(dim, rng)

        def counted_slices(Ms, Z, bounds):
            products.append((len(drawn), len(Z)))
            return slices(Ms, Z, bounds)

        monkeypatch.setattr(montecarlo, "_gaussian", counted_draw)
        monkeypatch.setattr(operators, "_matvec_slices", counted_slices)
        sec = run_suite([_cfg(ExperimentKind.DISJOINT_SUPPORT, dim=24, samples=20)]).sections[0]
        assert len(drawn) == 20 and len(sec.records) == 21
        # the first product is the first eight samples' images, a full pool
        assert products[0] == (8, 8 * 32) and 8 * 32 * 24 == operators._POOL_ENTRIES
        assert all(rows * 24 <= operators._POOL_ENTRIES for _, rows in products)


class TestOrbitDecay:
    def test_section_passes_and_decays(self):
        sec = exp_orbit_decay(
            _cfg(ExperimentKind.ORBIT_DECAY, space=PNorm.lp(2.0), dim=12)
        )
        assert sec.status == "pass"
        agg = sec.records[-1]
        assert agg["aggregate"] is True
        assert agg["fraction_decayed"] == 1.0
        assert agg["errors"] == 0

    def test_per_sample_monotone(self):
        sec = exp_orbit_decay(_cfg(ExperimentKind.ORBIT_DECAY, samples=3))
        body = [r for r in sec.records if r.get("name") == "monotone"]
        assert len(body) == 3
        assert all(r["value"] is True and r["ok"] for r in body)

    def test_illustrative_label(self):
        sec = exp_orbit_decay(_cfg(ExperimentKind.ORBIT_DECAY, samples=1))
        assert "illustrative" in sec.records[-1]["note"]

    @pytest.mark.parametrize("token", ["1.5", "3.0", "4.0", "c0"])
    def test_same_bits_as_a_norm_per_step(self, token):
        cfg = _cfg(ExperimentKind.ORBIT_DECAY, space=space_from_token(token), dim=24, samples=20, seed=9)

        def per_step(i, M):
            v = np.zeros(cfg.dim, dtype=complex)
            v[0] = 1.0
            norms = [dense_norm(v, cfg.space)]
            for _ in range(montecarlo.ORBIT_STEPS):
                v = M @ v
                norms.append(dense_norm(v, cfg.space))
            norms = np.array(norms)
            monotone = bool(np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-9) + 1e-15))
            return check(
                "monotone",
                monotone,
                "exact",
                "==",
                True,
                final_norm=float(norms[-1]),
                half_norm=float(norms[montecarlo.ORBIT_STEPS // 2]),
            )

        want = montecarlo._map_samples(cfg, per_step)
        got = list(exp_orbit_decay(cfg).records[:-1])
        assert repr(got) == repr(want)


class TestEigenStats:
    def test_radii_within_disk(self):
        sec = exp_eigen_stats(_cfg(ExperimentKind.EIGEN_STATS, dim=10))
        assert sec.status == "pass"
        agg = sec.records[-1]
        assert agg["spectral_radius"]["max"] <= 1.0 + 1e-8

    def test_histogram_counts_all_eigenvalues(self):
        cfg = _cfg(ExperimentKind.EIGEN_STATS, dim=10, samples=4)
        sec = exp_eigen_stats(cfg)
        total = sum(sec.records[-1]["modulus_histogram"])
        assert total == cfg.dim * cfg.samples


class TestIsometryDefect:
    def test_guarded_exponents(self):
        with pytest.raises(ValueError):
            exp_isometry_defect(
                _cfg(ExperimentKind.ISOMETRY_DEFECT, space=PNorm.lp(2.0))
            )
        with pytest.raises(ValueError):
            exp_isometry_defect(
                _cfg(ExperimentKind.ISOMETRY_DEFECT, space=PNorm.lp(1.0))
            )

    def test_c0_and_other_exponents_allowed(self):
        for pn in (PNorm.c0(), PNorm.lp(4.0)):
            sec = exp_isometry_defect(
                _cfg(ExperimentKind.ISOMETRY_DEFECT, space=pn, samples=2)
            )
            assert sec.records[-1]["errors"] == 0

    def test_shift_has_zero_defect(self):
        shift = np.zeros((5, 5), dtype=complex)
        for j in range(4):
            shift[j + 1, j] = 1.0
        assert isometry_defect(shift) == 0.0

    def test_random_defect_positive(self):
        sec = exp_isometry_defect(
            _cfg(ExperimentKind.ISOMETRY_DEFECT, space=PNorm.lp(3.0))
        )
        assert sec.records[-1]["fraction_positive"] == 1.0
        assert sec.records[-1]["defect"]["min"] > 0.0

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            isometry_defect(np.ones((1, 3)))


def _dense_window(A, D):
    """Reference window: A on the head, the backward shift on the tail."""
    dim = A.shape[0]
    M = np.zeros((D, D), dtype=complex)
    M[:dim, :dim] = A
    for j in range(dim + 1, D):
        M[j - 1, j] = 1.0
    return M


def _sigma_min(M):
    return np.linalg.svd(M, compute_uv=False)[-1]


def _dense_gains(A, D):
    """sigma_min(M - lambda) of the dense window at every grid point."""
    M = _dense_window(A, D)
    eye = np.eye(D, dtype=complex)
    return np.array([_sigma_min(M - lam * eye) for lam in ap_grid_points()])


class TestApGrid:
    def test_grid_shape(self):
        pts = ap_grid_points()
        # the origin once, then 20 angles on each of 19 positive radii
        assert len(pts) == len(set(pts)) == 381
        assert max(abs(z) for z in pts) == pytest.approx(1.0, abs=1e-12)
        assert [z for z in pts if z == 0] == [0j] and pts[0] == 0

    def test_matrix_blocks(self):
        A = np.arange(9, dtype=complex).reshape(3, 3)
        M = _dense_window(A, D=8)
        assert np.array_equal(M[:3, :3], A)
        # column dim is annihilated; tail columns shift down by one
        assert not M[:, 3].any()
        for j in range(4, 8):
            col = M[:, j]
            assert col[j - 1] == 1.0 and np.count_nonzero(col) == 1
        with pytest.raises(ValueError):
            ap_gain_profile(A, D=4)
        with pytest.raises(ValueError):
            ap_gain_profile(np.ones((2, 3), dtype=complex), D=8)

    def test_shift_alone_interior_gains_tiny(self):
        prof = ap_gain_profile(np.zeros((1, 1), dtype=complex), D=80)
        assert prof["interior_max_gain"] <= 1e-3
        # a D-window cannot resolve the unit circle better than ~pi/(2D)
        assert prof["boundary_max_gain"] <= 5.0 / 80

    def test_identity_head_no_worse_than_shift(self):
        shift = ap_gain_profile(np.zeros((1, 1), dtype=complex), D=60)
        ident = ap_gain_profile(np.eye(1, dtype=complex), D=60)
        assert ident["max_gain"] <= shift["max_gain"] + 1e-12

    def test_tail_depends_on_modulus_only(self):
        J = np.eye(30, k=1)
        for lam in (0.3j, -0.5 + 0.5j, 0.9 * np.exp(2.0j), -1.0, 1j):
            twisted = _sigma_min(J - lam * np.eye(30))
            radial = _sigma_min(J - abs(lam) * np.eye(30))
            assert twisted == pytest.approx(radial, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "head",
        ["zero", "identity", "unitary", ("3", 6), ("c0", 24), ("2", 40)],
        ids=["zero", "identity", "unitary", "l3-dim6", "c0-dim24", "l2-dim40"],
    )
    def test_split_matches_dense_window(self, head):
        pts = ap_grid_points()
        if head == "zero":
            A = np.zeros((1, 1), dtype=complex)
        elif head == "identity":
            A = np.eye(3, dtype=complex)
        elif head == "unitary":
            # an eigenvalue on each boundary grid point zeroes those gains
            A = np.diag(pts[-20:])
        else:
            token, dim = head
            A = sample_contraction(
                dim, space_from_token(token), np.random.default_rng(dim)
            )
        D = max(80, A.shape[0] + 40)
        prof = ap_gain_profile(A, D=D)
        ref = _dense_gains(A, D)
        moduli = np.abs(np.asarray(pts))
        expected = {
            "max_gain": ref.max(),
            "min_gain": ref.min(),
            "interior_max_gain": ref[moduli <= 0.9 + 1e-12].max(),
            "boundary_max_gain": ref[moduli >= 1.0 - 1e-12].max(),
        }
        for key, val in expected.items():
            assert prof[key] == pytest.approx(val, rel=1e-12, abs=1e-15), key
        if head == "unitary":
            assert prof["boundary_max_gain"] == 0.0
        assert prof["window"] == D

    def test_argmax_is_first_tied_grid_point(self):
        pts = ap_grid_points()
        # with a zero head the tail sets every gain and depends on |lambda|
        # only, so all 20 boundary points tie and the first one is reported
        zero = ap_gain_profile(np.zeros((1, 1), dtype=complex))
        assert zero["argmax_lambda"] == 1 + 0j
        # an identity head pins the gain at lambda = 1 to zero, so the tie
        # moves on to the next boundary point
        ident = ap_gain_profile(np.eye(1, dtype=complex))
        assert ident["argmax_lambda"] == pts[362]
        assert ident["max_gain"] == zero["max_gain"]

    def test_head_binding_points(self):
        zero = ap_gain_profile(np.zeros((1, 1), dtype=complex))
        assert zero["head_binding_points"] == 0
        ident = ap_gain_profile(np.eye(1, dtype=complex))
        assert ident["head_binding_points"] > 0

    def test_experiment_interior_bound(self):
        sec = exp_apspectrum_grid(
            _cfg(
                ExperimentKind.AP_SPECTRUM_GRID,
                space=PNorm.lp(2.0),
                dim=6,
                samples=2,
            )
        )
        agg = sec.records[-1]
        assert agg["interior_max_gain"]["max"] <= 1e-3
        assert agg["window"] == 80
        assert agg["errors"] == 0
        body = sec.records[:-1]
        assert all(isinstance(r["head_binding_points"], int) for r in body)


def _reference_profile(A, D):
    """ap_gain_profile computed in full: all 381 head SVDs, and the tail
    recomputed on every call."""
    dim = A.shape[0]
    lams = ap_grid_points()
    n_tail = D - dim
    shift = np.eye(n_tail, k=1)
    tail = np.array([
        np.linalg.svd(shift - r * np.eye(n_tail), compute_uv=False)[-1]
        for r in np.linspace(0.0, 1.0, 20)
    ])
    eye = np.eye(dim, dtype=complex)
    head = np.empty(len(lams))
    for idx, lam in enumerate(lams):
        head[idx] = np.linalg.svd(A - lam * eye, compute_uv=False)[-1]
    # the origin, then 20 points on each positive radius
    tail_at = np.concatenate([tail[:1], np.repeat(tail[1:], 20)])
    gains = np.minimum(head, tail_at)
    moduli = np.abs(np.asarray(lams))
    interior = moduli <= 0.9 + 1e-12
    boundary = moduli >= 1.0 - 1e-12
    kmax = int(np.argmax(gains))
    return {
        "max_gain": float(gains.max()),
        "argmax_lambda": complex(lams[kmax]),
        "min_gain": float(gains.min()),
        "interior_max_gain": float(gains[interior].max()),
        "boundary_max_gain": float(gains[boundary].max()),
        "head_binding_points": int(np.count_nonzero(head < tail_at)),
        "window": D,
    }


def _scaled_unitary(scale, dim=6, seed=1):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return scale * Q


def _tail_at_one(dim, D=80):
    return _sigma_min(np.eye(D - dim, k=1) - np.eye(D - dim))


_RADII = np.linspace(0.0, 1.0, 20)
# grid point 344 has radius 18/19, where a 76-dim shift tail's gain is about 2e-3
_ON_GRID = 344


def _eigenvalue_on_grid_point():
    """A triangular head whose computed eigenvalues include grid point 344
    exactly, so its gain there is about 0 and binds."""
    A = np.diag([ap_grid_points()[_ON_GRID], 0.2, -0.1j, 0.5]).astype(complex)
    A[0, 1:] = [0.3, -0.2j, 0.1]
    A[1, 3] = 0.25
    return A


def _head_svd_points(calls, A):
    """The non-zero grid points lambda whose A - lambda I was an SVD argument,
    one per call.  The SVD of A - 0 I = A itself is the one for sigma_max(A);
    at lambda = 0 the tail's gain is 0, so no head SVD is ever needed there."""
    eye = np.eye(A.shape[0], dtype=complex)
    shifted = {lam: A - lam * eye for lam in ap_grid_points() if lam != 0}
    return [
        lam
        for a in calls
        for lam, X in shifted.items()
        if np.shape(a) == X.shape and np.array_equal(a, X)
    ]


_REFERENCE_HEADS = {
    "zero": lambda: np.zeros((1, 1), dtype=complex),
    "identity": lambda: np.eye(3, dtype=complex),
    "nilpotent": lambda: np.eye(4, k=1, dtype=complex),
    "boundary-diagonal": lambda: np.diag(ap_grid_points()[-20:]),
    "unitary-on-radius": lambda: _scaled_unitary(_RADII[7]),
    "unitary-below-radius": lambda: _scaled_unitary(_RADII[7] - 1e-13),
    "norm-above-one": lambda: _scaled_unitary(1.0) @ np.diag([3.0, 2.0, 1.5, 1.2, 1.0, 0.5]),
    # s * I attains the Weyl bound: at lambda = 1 its gain 1 - s sits a hair
    # below (the head binds) or above the tail's gain t there
    "weyl-tight-below": lambda: (1.0 - _tail_at_one(2) + 1e-12) * np.eye(2, dtype=complex),
    "weyl-tight-above": lambda: (1.0 - _tail_at_one(2) - 1e-12) * np.eye(2, dtype=complex),
    # heads whose eigenvector bound is negative somewhere, so the SVD decides
    "jordan": lambda: 0.3 * np.eye(6, dtype=complex) + np.eye(6, k=1),
    "eigenvalue-on-grid-point": _eigenvalue_on_grid_point,
    "non-normal-triangular": lambda: (
        np.diag(np.linspace(-0.3, 0.3, 8)).astype(complex) + 2.0 * np.triu(np.ones((8, 8)), 1)
    ),
}
_REFERENCE_HEADS.update({
    f"{token}-dim{dim}": (
        lambda token=token, dim=dim: sample_contraction(
            dim, space_from_token(token), np.random.default_rng(dim)
        )
    )
    for token in ("c0", "3", "2")
    for dim in (1, 6, 24, 40)
})


class TestApGainSkip:
    """ap_gain_profile skips the head SVD wherever the Weyl bound
    |lambda| - sigma_max(A) or the eigenvector bound
    (sigma_min(V) d(lambda) - ||R||) / ||V||, less the margin, already
    reaches the tail's gain."""

    @pytest.mark.parametrize("name", list(_REFERENCE_HEADS))
    def test_same_bits_as_the_full_grid(self, name):
        A = _REFERENCE_HEADS[name]()
        if name == "norm-above-one":
            assert np.linalg.norm(A, 2) > 1.0
        D = max(80, A.shape[0] + 40)
        got = ap_gain_profile(A, D=D)
        want = _reference_profile(A, D)
        assert got == want
        assert repr(got) == repr(want)  # also tells -0.0 from 0.0

    @staticmethod
    def _svd_args(monkeypatch):
        svd = np.linalg.svd
        args = []

        def recording(a, *rest, **kwargs):
            args.append(np.array(a))
            return svd(a, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return args

    def test_the_skip_is_live(self, monkeypatch):
        heads = [
            sample_contraction(24, PNorm.c0(), np.random.default_rng(seed))
            for seed in range(8)
        ]
        montecarlo._shift_tail_gains.cache_clear()
        args = self._svd_args(monkeypatch)
        head_calls, tail_calls = [], []
        for A in heads:
            args.clear()
            ap_gain_profile(A, D=80)
            head_calls.append(len(_head_svd_points(args, A)))
            tail_calls.append(sum(np.shape(a) == (56, 56) for a in args))
        # the full grid takes 381 head SVDs per sample, the Weyl bound alone 120-140
        assert head_calls == [0] * 8
        assert tail_calls == [20] + [0] * 7

    def test_an_eigenvalue_on_a_grid_point_takes_its_svd(self, monkeypatch):
        A = _eigenvalue_on_grid_point()
        assert ap_grid_points()[_ON_GRID] in np.linalg.eigvals(A)
        args = self._svd_args(monkeypatch)
        prof = ap_gain_profile(A)
        assert ap_grid_points()[_ON_GRID] in _head_svd_points(args, A)
        assert prof["head_binding_points"] >= 1

    @pytest.mark.parametrize("name", ["c0-dim6", "3-dim24", "jordan", "non-normal-triangular"])
    def test_an_inaccurate_eigendecomposition_only_costs_svds(self, monkeypatch, name):
        # the bound holds for any mu and V, through the residual R = A V - V diag(mu)
        A = _REFERENCE_HEADS[name]()
        eig = np.linalg.eig

        def perturbed(a):
            mu, V = eig(a)
            return mu + 0.05, V + 0.01

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        lams = np.asarray(ap_grid_points())
        smax = np.linalg.svd(A, compute_uv=False)[0]
        floor = montecarlo._head_gain_floor(A, lams, smax)
        eye = np.eye(A.shape[0], dtype=complex)
        assert all(f <= _sigma_min(A - lam * eye) for lam, f in zip(lams, floor))
        D = max(80, A.shape[0] + 40)
        assert repr(ap_gain_profile(A, D=D)) == repr(_reference_profile(A, D))

    def test_the_floor_is_below_every_computed_head_gain(self):
        tokens = ("c0", "1", "1.5", "2", "3", "4")
        heads = [make() for make in _REFERENCE_HEADS.values()]
        for k in range(48):
            rng = np.random.default_rng(1000 + k)
            dim = int(rng.integers(1, 41))
            scale = 10.0 ** rng.uniform(-2.0, 2.0)
            heads.append(scale * sample_contraction(dim, space_from_token(tokens[k % 6]), rng))
        lams = np.asarray(ap_grid_points())
        positive = 0
        for A in heads:
            smax = np.linalg.svd(A, compute_uv=False)[0]
            floor = montecarlo._head_gain_floor(A, lams, smax)
            eye = np.eye(A.shape[0], dtype=complex)
            for lam, f in zip(lams, floor):
                assert f <= _sigma_min(A - lam * eye), (A.shape, lam)
            positive += np.count_nonzero(floor > 0.0)
        # the check has content: most floors are positive
        assert positive > 0.5 * len(heads) * len(lams)

    def test_tail_cache_is_read_only_and_keyed_by_window(self):
        tail = montecarlo._shift_tail_gains(56)
        assert montecarlo._shift_tail_gains(56) is tail
        with pytest.raises(ValueError):
            tail[0] = 1.0
        assert not np.array_equal(montecarlo._shift_tail_gains(40), tail)

    def test_mc_report_is_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # a c0 and an l3 head: the eigendecomposition takes zgeev on both
        cfg.write_text(json.dumps([
            {"space": space, "dim": 24, "samples": 3, "seed": 5,
             "experiment": "ApSpectrumGrid"}
            for space in ("c0", "l3")
        ]))
        outs = []
        for threads in ("1", "1", "2"):
            out = tmp_path / f"mc_{len(outs)}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "lplab", "mc", "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True,
                text=True,
                timeout=300,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestNonFiniteHead:
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_refused_before_any_svd(self, monkeypatch, bad):
        A = np.eye(4, dtype=complex)
        A[1, 2] = bad
        svd = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        with pytest.raises(ValueError, match="finite entries"):
            ap_gain_profile(A)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_is_that_samples_error_record(self, monkeypatch, bad):
        cfg = _cfg(ExperimentKind.AP_SPECTRUM_GRID, space=PNorm.c0(), dim=6, samples=5)
        clean = run_suite([cfg]).sections[0].records
        contractions = montecarlo._contractions

        def poisoned(Gs, pn):
            for k, M in contractions(Gs, pn):
                if k == 2:
                    M = M.copy()
                    M[1, 2] = bad
                yield k, M

        monkeypatch.setattr(montecarlo, "_contractions", poisoned)
        sec = run_suite([cfg]).sections[0]
        assert sec.records[2] == check(
            "sample_error",
            1,
            "exact",
            "==",
            0,
            sample=2,
            error="ValueError: the head A must have finite entries",
        )
        for k in (0, 1, 3, 4):
            assert canonical_json(sec.records[k]) == canonical_json(clean[k]), k
        assert sec.records[-1]["errors"] == 1
        assert sec.status == "fail"


class TestDisjointSupport:
    def test_random_samples_have_none(self):
        sec = exp_disjoint_support(
            _cfg(ExperimentKind.DISJOINT_SUPPORT, space=PNorm.c0())
        )
        assert sec.records[-1]["fraction_with_disjoint_pair"] == 0.0

    def test_single_column_trivial(self):
        sec = exp_disjoint_support(
            _cfg(ExperimentKind.DISJOINT_SUPPORT, dim=1, samples=2)
        )
        body = [r for r in sec.records if "n_disjoint_pairs" in r]
        assert all(r["n_disjoint_pairs"] == 0 for r in body)


class TestRunSuite:
    def _suite(self):
        return [
            ExperimentConfig(
                PNorm.lp(3.0), 40, 3, 11, ExperimentKind.ORBIT_DECAY
            ),
            ExperimentConfig(
                PNorm.c0(), 40, 3, 11, ExperimentKind.EIGEN_STATS
            ),
            ExperimentConfig(
                PNorm.lp(4.0), 40, 3, 11, ExperimentKind.ISOMETRY_DEFECT
            ),
            ExperimentConfig(
                PNorm.lp(2.0), 40, 2, 11, ExperimentKind.AP_SPECTRUM_GRID
            ),
        ]

    def test_dim_40_suite_under_a_minute(self):
        t0 = time.monotonic()
        rep = run_suite(self._suite())
        assert time.monotonic() - t0 < 60.0
        assert rep.ok
        assert len(rep.sections) == 4

    def test_repeat_run_identical(self):
        cfgs = [
            _cfg(ExperimentKind.ORBIT_DECAY, seed=21),
            _cfg(ExperimentKind.AP_SPECTRUM_GRID, dim=6, samples=2, seed=21),
        ]
        assert run_suite(cfgs).to_json() == run_suite(cfgs).to_json()

    def test_empty_suite(self):
        rep = run_suite([])
        assert rep.sections == ()
        assert rep.ok
        assert rep.meta["seed"] is None

    def test_guarded_config_fails_without_aborting(self):
        bad = _cfg(ExperimentKind.ISOMETRY_DEFECT, space=PNorm.lp(2.0))
        good = _cfg(ExperimentKind.ORBIT_DECAY, samples=2)
        rep = run_suite([bad, good])
        assert rep.sections[0].status == "fail"
        assert "error" in rep.sections[0].records[0]
        assert rep.sections[1].status == "pass"
        assert exit_code(rep) == 1

    def test_duplicate_experiments_get_distinct_names(self):
        cfg = _cfg(ExperimentKind.ORBIT_DECAY, samples=1)
        rep = run_suite([cfg, cfg])
        names = [s.name for s in rep.sections]
        assert len(set(names)) == 2

    def test_single_config_accepted(self):
        rep = run_suite(_cfg(ExperimentKind.ORBIT_DECAY, samples=1, seed=5))
        assert rep.meta["seed"] == 5
        assert len(rep.sections) == 1
