"""Kernel functions of the transformed transport systems.

Everything here is algebra on one time slice: given a snapshot's
distributed fields, its transition matrices and the delay-estimate rates,
`eval_all` evaluates the source kernels of the error-transport equation
(p1..p4), of the transformed-state equation (q1..q7), and the auxiliary
analytic time derivatives (uhat_t, uhat_xt, phat_t, q1_t).

The work is one pass.  `_Workspace` calls each plant and controller
callback once, as one array call over the M+1 grid nodes, and derives
from those arrays every shared intermediate of the three groups (first
order, x-derivatives, time derivatives); `eval_all` then assembles each
kernel from the workspace, so every quantity is computed in one place.

Conventions, used consistently below:

* B(x)  = what_x + Dhat k1.f  is the spatial derivative of the actuator
  estimate expressed through the transformation (k1 = dkappa/dX at p(x),
  f = f(p(x), uhat(x))).
* The derivative kernels are the exact x-derivatives of their first-order
  parents (p3 = p1_x, ..., q6 = q4_x), expanded analytically by the chain
  rule through f, kappa, p and the transition matrices.  The finite
  difference pair identities in the test-suite arbitrate the expansion.
* The delay mismatch enters relative to the true delay,
  dtil = (D - Dhat)/D, so that the D/Dhat prefactor of p1..p4 satisfies
  the error-transport equation exactly.
* Time derivatives of the transition matrices are included: Phi_t(x, 0)
  solves the variational equation forced by (Dhat A)_t and is composed by
  the same semigroup rule as Phi itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .grid import cumulative_trapezoid, grid_nodes


@dataclass
class KernelSet:
    """All kernels of one snapshot, for the true delay they were built
    with."""

    true_delay: float
    p1: np.ndarray
    p2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    f_mismatch: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    q3: np.ndarray
    q4: np.ndarray
    q5: np.ndarray
    q6: np.ndarray
    f_dp: np.ndarray
    f_du: np.ndarray
    uhat_t: np.ndarray
    uhat_xt: np.ndarray
    phat_t: np.ndarray
    q1_t: float
    q7: float


class _Workspace:
    """The shared intermediates of one snapshot, all computed at once."""

    def __init__(self, model, controller, snap):
        m = snap.num_intervals
        self.h = 1.0 / m
        self.xm1 = grid_nodes(m) - 1.0
        dh, dd = snap.dhat, snap.dhat_dot
        P = snap.phat.reshape(m + 1, -1)
        U = snap.uhat

        def call(fn, *args):
            return np.asarray(fn(*args), dtype=float)

        self.fv = call(model.f, P, U)
        self.A = call(model.df_dX, P, U)
        self.b = call(model.df_du, P, U)
        self.fpu = call(model.d2f_dudX, P, U)
        self.fuu = call(model.d2f_du2, P, U)
        self.fpp = model.hess_X(P, U)
        self.k1 = call(controller.dkappa_dX, P)
        self.k2 = call(controller.d2kappa_dX2, P)
        self.k3 = controller.third(P)

        # first order
        self.B = snap.what_x + dh * np.einsum("ij,ij->i", self.k1, self.fv)
        self.F1 = dh * np.einsum("iab,ib->ia", self.A, self.fv) \
            + self.b * self.B[:, None]
        self.k1x = dh * np.einsum("ijk,ik->ij", self.k2, self.fv)
        self.Bp = snap.what_xx + dh * (
            np.einsum("ij,ij->i", self.k1x, self.fv)
            + np.einsum("ij,ij->i", self.k1, self.F1))
        self.G = self.fv + self.b * (self.xm1 * self.B)[:, None]

        self.Phi = snap.field.matrices
        self.PhiInv = snap.field.inverses
        self.J = np.einsum("iab,ib->ia", self.PhiInv, self.G)
        self.CT = cumulative_trapezoid(self.J, self.h)
        self.I = np.einsum("iab,ib->ia", self.Phi, self.CT)

        # the drift at x = 0 under the true and the estimated actuator value
        p0, u0 = P[0], snap.u[0]
        self.f0_true = call(model.f, p0, u0)
        self.f_mismatch = self.f0_true - self.fv[0]
        self.f_dp = call(model.df_dX, p0, u0) - self.A[0]
        self.f_du = call(model.df_du, p0, u0) - self.b[0]

        # x-derivatives
        self.bx = dh * np.einsum("iaj,ij->ia", self.fpu, self.fv) \
            + self.fuu * self.B[:, None]
        self.Ax = dh * np.einsum("iajk,ik->iaj", self.fpp, self.fv) \
            + self.fpu * self.B[:, None, None]
        self.k2x = dh * np.einsum("ijkl,il->ijk", self.k3, self.fv)
        self.k1xx = dh * (np.einsum("ijk,ik->ij", self.k2x, self.fv)
                          + np.einsum("ijk,ik->ij", self.k2, self.F1))
        self.F1x = dh * (np.einsum("iab,ib->ia", self.Ax, self.fv)
                         + np.einsum("iab,ib->ia", self.A, self.F1)) \
            + self.bx * self.B[:, None] + self.b * self.Bp[:, None]
        self.Bpp = snap.what_xxx + dh * (
            np.einsum("ij,ij->i", self.k1xx, self.fv)
            + 2.0 * np.einsum("ij,ij->i", self.k1x, self.F1)
            + np.einsum("ij,ij->i", self.k1, self.F1x))
        self.Gx = self.F1 + self.bx * (self.xm1 * self.B)[:, None] \
            + self.b * (self.B + self.xm1 * self.Bp)[:, None]
        self.Ix = self.G + dh * np.einsum("iab,ib->ia", self.A, self.I)
        self.Ixx = self.Gx + dh * (
            np.einsum("iab,ib->ia", self.Ax, self.I)
            + np.einsum("iab,ib->ia", self.A, self.Ix))

        # time derivatives
        self.phat_t = self.fv \
            + np.einsum("iab,b->ia", self.Phi, self.f_mismatch) \
            + dd * self.I
        self.uhat_t = (1.0 + dd * self.xm1) / dh * self.B
        self.uhat_xt = (dd * self.B + (1.0 + dd * self.xm1) * self.Bp) / dh
        # variational forcing for Phi_t(x, 0)
        At = np.einsum("iajk,ik->iaj", self.fpp, self.phat_t) \
            + self.fpu * self.uhat_t[:, None, None]
        Mm = dd * self.A + dh * At
        K = np.einsum("iab,ibc,icd->iad", self.PhiInv, Mm, self.Phi)
        CTm = cumulative_trapezoid(K, self.h)
        self.PhiT0 = np.einsum("iab,ibc->iac", self.Phi, CTm)


def eval_all(model, controller, true_delay, snap):
    """Full kernel set of one snapshot (a `SystemSnapshot`, or any object
    with its fields) whose transition field is attached, as
    `simulate.snapshot_kernels` does before calling this."""
    if snap.field is None:
        raise UsageError("the snapshot has no transition field attached")
    w = _Workspace(model, controller, snap)
    D = float(true_delay)
    dh, dd, ddd = snap.dhat, snap.dhat_dot, snap.dhat_ddot
    M = snap.num_intervals
    ratio = D / dh

    # first-order kernels
    p1 = ratio * w.B
    p2 = ratio * w.xm1 * w.B
    q1 = w.xm1 * w.B - dh * np.einsum("ij,ij->i", w.k1, w.I)
    q2 = dh * np.einsum("ia,iab->ib", w.k1, w.Phi)

    # p3..q6: exact x-derivatives of the first-order kernels
    p3 = ratio * w.Bp
    p4 = ratio * (w.B + w.xm1 * w.Bp)
    q3 = w.B + w.xm1 * w.Bp - dh * (
        np.einsum("ij,ij->i", w.k1x, w.I)
        + np.einsum("ij,ij->i", w.k1, w.Ix))
    s1 = np.einsum("ia,iaj->ij", w.fv, w.k2) \
        + np.einsum("ia,iaj->ij", w.k1, w.A)
    q4 = dh * dh * np.einsum("ij,ijb->ib", s1, w.Phi)
    q5 = 2.0 * w.Bp + w.xm1 * w.Bpp - dh * (
        np.einsum("ij,ij->i", w.k1xx, w.I)
        + 2.0 * np.einsum("ij,ij->i", w.k1x, w.Ix)
        + np.einsum("ij,ij->i", w.k1, w.Ixx))
    s1x = np.einsum("ia,iaj->ij", w.F1, w.k2) \
        + np.einsum("ia,iaj->ij", w.fv, w.k2x) \
        + np.einsum("ia,iaj->ij", w.k1x, w.A) \
        + np.einsum("ia,iaj->ij", w.k1, w.Ax)
    Phix = dh * np.einsum("iab,ibc->iac", w.A, w.Phi)
    q6 = dh * dh * (np.einsum("ij,ijb->ib", s1x, w.Phi)
                    + np.einsum("ij,ijb->ib", s1, Phix))

    # q1_t: time derivative of q1 at x = 1, with the transition-matrix rate
    k1M = w.k1[M]
    I_end = w.I[M]
    PhiM = w.Phi[M]
    Gt = np.einsum("iab,ib->ia", w.A, w.phat_t) \
        + w.b * w.uhat_t[:, None] \
        + (np.einsum("iaj,ij->ia", w.fpu, w.phat_t)
           + w.fuu * w.uhat_t[:, None]) * (w.xm1 * w.B)[:, None] \
        + w.b * (w.xm1 * w.uhat_xt)[:, None]
    # d/dt of I(1) = int Phi(1,y) G(y) dy, split into Phi_t and G_t parts
    phiT_part = w.PhiT0[M] @ w.CT[M] - PhiM @ np.trapezoid(
        np.einsum("iab,ibc,ic->ia", w.PhiInv, w.PhiT0, w.J),
        dx=w.h, axis=0)
    gt_part = PhiM @ np.trapezoid(
        np.einsum("iab,ib->ia", w.PhiInv, Gt), dx=w.h, axis=0)
    I_dot = phiT_part + gt_part
    q1_t = -dd * float(k1M @ I_end) \
        - dh * float((w.phat_t[M] @ w.k2[M]) @ I_end) \
        - dh * float(k1M @ I_dot)

    # q7: boundary forcing of the twice-differentiated transformed system,
    # the time derivative of the what_x boundary condition at x = 1
    dtil = (D - dh) / D
    q2_t_row = dd * (k1M @ PhiM) \
        + dh * ((w.phat_t[M] @ w.k2[M]) @ PhiM) \
        + dh * (k1M @ w.PhiT0[M])
    utilde_t0 = (snap.utilde_x[0] - dtil * p1[0] - dd * p2[0]) / D
    f_ut_dot = w.f_dp @ w.f0_true \
        + w.f_du * (snap.u_x[0] / D) \
        + w.b[0] * utilde_t0
    q7 = (-ddd * q1[M]
          - dd * q1_t
          + float(q2_t_row @ w.f_mismatch)
          + float(q2[M] @ f_ut_dot))

    return KernelSet(true_delay=D, p1=p1, p2=p2, q1=q1, q2=q2,
                     f_mismatch=w.f_mismatch, p3=p3, p4=p4, q3=q3, q4=q4,
                     q5=q5, q6=q6, f_dp=w.f_dp, f_du=w.f_du, uhat_t=w.uhat_t,
                     uhat_xt=w.uhat_xt, phat_t=w.phat_t, q1_t=q1_t, q7=q7)
