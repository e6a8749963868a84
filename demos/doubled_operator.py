"""The doubled operator B: unit norm, an exposed unit vector, localization.

Starting from a small strict contraction A, the doubled construction produces
an operator B of norm exactly one together with a distinguished unit vector
u0 on which B acts isometrically.  B's norming vectors are exactly
(c1 z, c2 z) with z norming A, so the "evenly distributed" check tests on A
alone that u0 is B's only norming direction (at p = 3, by agreeing polished
restarts of A's ascent; at p = 2 the SVD gap of A decides it).  It yields the
gap gamma = min |B u0|, which converts into a ball radius delta: every contraction
within delta of B is close to block-diagonal on a window, quantified by the
coupling norm bracketed at the end: the fixed-point ascent gives a lower
bound and the Riesz-Thorin interpolation bound an upper one.
"""

from __future__ import annotations

import numpy as np

from lplab.constructions import (
    build_B_eta_delta,
    check_evenly_distributed,
    delta_for_B,
)
from lplab.operators import StructuredOperator, op_norm, truncate
from lplab.spaces import PNorm

p = 3.0
pn = PNorm.lp(p)
rng = np.random.default_rng(42)

N = 2
A = rng.standard_normal((N + 1, N + 1)) + 1j * rng.standard_normal((N + 1, N + 1))
A = A / (np.abs(A).sum() + 1.0)

rec = build_B_eta_delta(A, N, eta=0.5, p=p)
print(f"head contraction: {N + 1} x {N + 1}, eta = {rec.eta}, p = {p}")
print(f"closed-form norm : {rec.closed_form_norm:.15f}")
print(f"certified norm   : {op_norm(rec.op, pn).value:.15f}")
print(f"gain on u0       : {rec.gain_u0:.15f}")
print()

passed, gamma, steps = check_evenly_distributed(rec)
print(f"evenly distributed: {passed}, gamma = {gamma:.6f} ({steps} polish steps)")

M, eps = 8, 0.25
delta = delta_for_B(gamma, eps, M, p)
print(f"ball radius delta({eps=}, {M=}) = {delta:.3e}")


def riesz_thorin(C: np.ndarray) -> float:
    """Upper bound ||C||_1^(1/p) ||C||_inf^(1 - 1/p) on the lp norm of C."""
    col, row = np.abs(C).sum(axis=0).max(), np.abs(C).sum(axis=1).max()
    return col ** (1 / p) * row ** (1 - 1 / p)


# Perturb B within delta/3 and bound the off-diagonal coupling on a window.
W = 4 * M
Bd = truncate(rec.op, W)
R = rng.standard_normal((W, W)) + 1j * rng.standard_normal((W, W))
T = (Bd + R * (delta / 3.0 / riesz_thorin(R))) / (1.0 + delta / 3.0)
C = T[:M, M:]
lower = op_norm(StructuredOperator.from_dense(C), pn).value
print("coupling norm of a sampled T in the ball:")
print(f"  fixed-point lower bound : {lower:.3e}")
print(f"  Riesz-Thorin upper bound: {riesz_thorin(C):.3e} < {eps}")
