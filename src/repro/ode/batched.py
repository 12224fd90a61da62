"""Batched BDF integration: every cell of a field advances at once (§3.8).

The paper attributes a large share of Pele's 75× improvement to moving
per-cell stiff chemistry onto batched solvers — CVODE with MAGMA batched
dense LU, Jacobian reuse, and vectorized RHS sweeps.  This module is that
motif made real for the reproduction: instead of a Python loop running a
scalar :class:`~repro.ode.bdf.BdfIntegrator` per cell, a single
:class:`BatchedBdfIntegrator` advances stacked states ``(ncells, nspec)``
with

* one vectorized RHS sweep per Newton iteration covering every cell;
* one-shot finite-difference Jacobians — all columns of all cells are
  perturbed together via broadcasting, no per-column Python loop;
* batched Newton solves through :mod:`repro.linalg.batched` LU factors
  held and reused across Newton iterations and steps (refreshed only when
  convergence degrades, the Jacobian ages out, or gamma drifts);
* per-cell adaptive step/error control with masked convergence: cells
  that converge or finish freeze while stiff cells keep iterating.

The per-cell algorithm is the same variable-step BDF(1,2) with modified
Newton as the scalar integrator, so results agree within solver
tolerances (the ablation bench asserts this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.backend.numpy_backend import NUMPY
from repro.ode.bdf import IntegrationError
from repro.resilience.abft import (
    SdcDetected,
    lu_checksum,
    require_finite,
    verify_lu,
    verify_solve,
)
from repro.resilience.snapshot import Snapshot, require_kind

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.observability.tracer import Tracer

#: Batched RHS: ``f(t, Y)`` with ``Y`` of shape (..., ncells, n); ``t`` a
#: scalar or (ncells,) array.  Leading axes must broadcast (they carry the
#: stacked Jacobian perturbations).
BatchRhsFn = Callable[[object, np.ndarray], np.ndarray]
#: Batched Jacobian: ``jac(t, Y)`` mapping (ncells, n) -> (ncells, n, n).
BatchJacFn = Callable[[object, np.ndarray], np.ndarray]


@dataclass
class BatchedBdfStats:
    """Aggregate work counters for one batched integration.

    ``rhs_sweeps`` counts *batched* evaluations — each one covers every
    cell, which is the whole point: compare against ``ncells ×`` the
    scalar integrator's ``rhs_evals``.
    """

    ncells: int = 0
    steps: int = 0                # accepted BDF steps, summed over cells
    step_rounds: int = 0          # lockstep step-attempt rounds
    rhs_sweeps: int = 0           # batched RHS evaluations
    jac_builds: int = 0           # batched Jacobian constructions
    cells_refactored: int = 0     # LU factorizations, summed over cells
    newton_iters: int = 0         # batched Newton sweeps
    error_test_failures: int = 0  # per-cell step rejections
    newton_failures: int = 0      # per-cell Newton failures


@dataclass
class BatchedBdfResult:
    t: np.ndarray  # (ncells,) final times (== t_end)
    y: np.ndarray  # (ncells, n) final states
    stats: BatchedBdfStats


_STATS_FIELDS = (
    "ncells", "steps", "step_rounds", "rhs_sweeps", "jac_builds",
    "cells_refactored", "newton_iters", "error_test_failures",
    "newton_failures",
)

#: (name, dtype) of every array carried across lockstep rounds — the full
#: resumable state, *including* the Jacobian/LU reuse caches.
_STATE_ARRAYS = (
    ("t", float), ("Y", float), ("F0", float), ("h", float),
    ("Y_prev", float), ("h_prev", float), ("have_prev", bool),
    ("past_t", float), ("past_y", float), ("past_cnt", np.int64),
    ("J", float), ("J_valid", bool), ("jac_age", np.int64),
    ("lu", float), ("piv", np.intp), ("inv", float), ("gamma_fact", float),
    ("fact_valid", bool), ("steps_per_cell", np.int64), ("done", bool),
)


@dataclass
class BatchedBdfState:
    """The complete mid-integration state of a batched BDF advance.

    Everything the lockstep loop carries between rounds lives here — the
    per-cell solution/history arrays *and* the Jacobian/LU reuse caches —
    so an integration can pause after any round and resume (or be
    checkpointed and restored bit-identically on another host).
    """

    t_end: float
    t_scale: float
    t: np.ndarray
    Y: np.ndarray
    F0: np.ndarray
    h: np.ndarray
    Y_prev: np.ndarray
    h_prev: np.ndarray
    have_prev: np.ndarray
    past_t: np.ndarray
    past_y: np.ndarray
    past_cnt: np.ndarray
    J: np.ndarray
    J_valid: np.ndarray
    jac_age: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    inv: np.ndarray
    gamma_fact: np.ndarray
    fact_valid: np.ndarray
    steps_per_cell: np.ndarray
    done: np.ndarray
    stats: BatchedBdfStats = field(default_factory=BatchedBdfStats)

    snapshot_kind = "ode.batched_bdf_state"
    #: v2 added the held Newton inverse (the fast path's factor cache) so
    #: mid-integration restores resume bit-identically on it.
    snapshot_version = 2

    @property
    def finished(self) -> bool:
        return bool(self.done.all())

    def result(self) -> BatchedBdfResult:
        return BatchedBdfResult(t=self.t, y=self.Y, stats=self.stats)

    def snapshot(self) -> Snapshot:
        payload: dict = {
            "t_end": float(self.t_end),
            "t_scale": float(self.t_scale),
            "stats": {f: int(getattr(self.stats, f)) for f in _STATS_FIELDS},
        }
        for name, _ in _STATE_ARRAYS:
            payload[name] = getattr(self, name)
        return Snapshot(self.snapshot_kind, self.snapshot_version, payload)

    def restore(self, snap: Snapshot) -> None:
        require_kind(snap, self)
        self.t_end = snap.payload["t_end"]
        self.t_scale = snap.payload["t_scale"]
        self.stats = BatchedBdfStats(
            **{f: snap.payload["stats"][f] for f in _STATS_FIELDS}
        )
        for name, dtype in _STATE_ARRAYS:
            setattr(self, name,
                    np.array(snap.payload[name], dtype=dtype, copy=True))


class BatchedBdfIntegrator:
    """Variable-step BDF(1,2) over a batch of independent stiff systems.

    ``sdc_guard=True`` arms the silent-data-corruption defenses: fresh
    Newton factorizations are checksum-verified
    (:func:`~repro.resilience.abft.verify_lu`), the first Newton solve of
    every round is residual-checked against the reconstructed iteration
    matrix — the held LU caches live across rounds, which is exactly the
    window a bit flip hits — and accepted states must be finite and pass
    the optional ``plausibility`` predicate (per-cell physical-bounds
    check, e.g. temperature/mass-fraction windows).  Violations raise
    :class:`~repro.resilience.abft.SdcDetected` instead of integrating on
    corrupted state.
    """

    def __init__(
        self,
        rhs: BatchRhsFn,
        *,
        jac: BatchJacFn | None = None,
        rtol: float = 1e-6,
        atol: float | np.ndarray = 1e-9,
        max_steps: int = 100_000,
        newton_tol: float = 0.1,
        max_newton: int = 6,
        max_jac_age: int = 50,
        gamma_drift_tol: float = 0.3,
        sdc_guard: bool = False,
        plausibility: Callable[[np.ndarray], np.ndarray] | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.rhs = rhs
        self.jac = jac
        self.rtol = rtol
        self.atol = atol
        self.max_steps = max_steps
        self.newton_tol = newton_tol
        self.max_newton = max_newton
        self.max_jac_age = max_jac_age
        self.gamma_drift_tol = gamma_drift_tol
        self.sdc_guard = sdc_guard
        self.plausibility = plausibility
        #: observation-only span/metric sink on the tracer's ordinal tick
        #: clock (solver rounds are ordinal, not simulated-time, events)
        self.tracer = tracer

    # -- internals ------------------------------------------------------------

    def _error_weights(self, Y: np.ndarray) -> np.ndarray:
        return 1.0 / (self.rtol * np.abs(Y) + self.atol)

    @staticmethod
    def _wrms(E: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Per-cell weighted RMS norm over the species axis."""
        EW = E * W
        # einsum sidesteps np.mean's reduction machinery on this hot path
        return np.sqrt(np.einsum("...j,...j->...", EW, EW) / EW.shape[-1])

    def _build_jacobian(self, t, Y: np.ndarray,
                        stats: BatchedBdfStats) -> np.ndarray:
        tr = self.tracer
        if tr is None:
            return self._build_jacobian_impl(t, Y, stats)
        with tr.span("ode.jacobian", cat="ode", pid="ode", tid="batched",
                     cells=int(Y.shape[0])):
            out = self._build_jacobian_impl(t, Y, stats)
        tr.metrics.counter("ode.jac_builds").inc()
        return out

    def _build_jacobian_impl(self, t, Y: np.ndarray,
                             stats: BatchedBdfStats) -> np.ndarray:
        """(ncells, n, n) Jacobians: analytic, or one-shot vectorized FD.

        The FD path stacks all n perturbed copies of the whole batch into
        a (n, ncells, n) array and evaluates the RHS once — the batched
        equivalent of perturbing every Jacobian column of every cell in a
        single kernel launch.
        """
        stats.jac_builds += 1
        if self.jac is not None:
            return np.asarray(self.jac(t, Y))
        B, n = Y.shape
        F0 = self.rhs(t, Y)
        stats.rhs_sweeps += 1
        eps = np.sqrt(np.finfo(float).eps)
        dy = eps * np.maximum(np.abs(Y), 1e-8)
        Yp = np.broadcast_to(Y, (n, B, n)).copy()
        cols = np.arange(n)
        Yp[cols, :, cols] += dy.T
        F = np.asarray(self.rhs(t, Yp))  # (n, B, n)
        stats.rhs_sweeps += n
        return (np.transpose(F, (1, 2, 0)) - F0[:, :, None]) / dy[:, None, :]

    def _check_underflow(self, h: np.ndarray, t: np.ndarray,
                         mask: np.ndarray, t_scale: float) -> None:
        bad = mask & (h < 1e-14 * np.maximum(np.abs(t), t_scale))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise IntegrationError(
                f"step size underflow in cell {i} at t={t[i]:.3e}"
            )

    def _error_estimate(self, past_t, past_y, past_cnt, have_prev,
                        t_new, Yn, h, W) -> np.ndarray:
        """Per-cell WRMS local-truncation-error estimate.

        Mirrors the scalar integrator: the highest-order Newton divided
        difference of the last implicit solution points, with the number
        of points selected per cell (ragged histories are handled by
        computing all three candidate differences vectorized and picking
        per cell)."""
        pts_t = np.concatenate([past_t, t_new[:, None]], axis=1)       # (B, 5)
        pts_y = np.concatenate([past_y, Yn[:, None, :]], axis=1)       # (B, 5, n)
        order = np.where(have_prev, 2, 1)
        npts = np.minimum(past_cnt, order + 1) + 1                     # in {2,3,4}
        # only compute the difference levels some cell actually selects —
        # after warmup that is usually just m=4, a third of the old work
        dds = {}
        for m in (2, 3, 4):
            if not (npts == m).any():
                continue
            Tm = pts_t[:, -m:]
            Yv = pts_y[:, -m:, :]
            for level in range(1, m):
                denom = (Tm[:, level:] - Tm[:, :-level])[:, :, None]
                Yv = (Yv[:, 1:, :] - Yv[:, :-1, :]) / denom
            dds[m] = Yv[:, 0, :]
        if len(dds) == 1:
            dd = next(iter(dds.values()))
        else:
            fill = np.zeros_like(pts_y[:, 0, :])
            dd = np.where((npts == 2)[:, None], dds.get(2, fill),
                          np.where((npts == 3)[:, None], dds.get(3, fill),
                                   dds.get(4, fill)))
        err_vec = np.where((order == 1)[:, None],
                           h[:, None] ** 2 * dd,
                           (4.0 / 3.0) * h[:, None] ** 3 * dd)
        return self._wrms(err_vec, W)

    def _newton(self, t_new, Y, Y_prev, Y_pred, a0, a1, a2, h, gamma, active,
                J, J_valid, jac_age, lu, piv, inv, gamma_fact, fact_valid,
                stats) -> tuple[np.ndarray, np.ndarray]:
        tr = self.tracer
        if tr is None:
            return self._newton_impl(
                t_new, Y, Y_prev, Y_pred, a0, a1, a2, h, gamma, active,
                J, J_valid, jac_age, lu, piv, inv, gamma_fact, fact_valid,
                stats)
        iters0 = stats.newton_iters
        refact0 = stats.cells_refactored
        with tr.span("ode.newton", cat="ode", pid="ode", tid="batched",
                     cells=int(active.sum())) as sp:
            converged, Yn = self._newton_impl(
                t_new, Y, Y_prev, Y_pred, a0, a1, a2, h, gamma, active,
                J, J_valid, jac_age, lu, piv, inv, gamma_fact, fact_valid,
                stats)
            sp.args["iters"] = stats.newton_iters - iters0
            sp.args["converged"] = int(converged.sum())
        m = tr.metrics
        m.counter("ode.newton_calls").inc()
        m.counter("ode.newton_iters").inc(stats.newton_iters - iters0)
        refactored = stats.cells_refactored - refact0
        m.counter("ode.cells_refactored").inc(refactored)
        reused = int(active.sum()) - refactored
        if reused > 0:
            # Jacobian/LU reuse hits: cells solved on held factors
            m.counter("ode.lu_reuse_hits").inc(reused)
        return converged, Yn

    def _newton_impl(self, t_new, Y, Y_prev, Y_pred, a0, a1, a2, h, gamma,
                     active, J, J_valid, jac_age, lu, piv, inv, gamma_fact,
                     fact_valid, stats) -> tuple[np.ndarray, np.ndarray]:
        """Masked modified-Newton solve across the batch.

        Returns ``(converged, Yn)``.  Newton factors persist across calls
        and are refactored per cell only when the Jacobian was refreshed
        or gamma drifted; a cell that fails with a *reused* Jacobian gets
        one fresh-Jacobian retry (CVODE's recovery ladder) before its step
        is abandoned.

        Without ``sdc_guard`` the factor cache is the explicit inverse —
        one ``inv`` per refactorization, one matmul per iteration — which
        modified Newton tolerates because each iterate is corrected by the
        next residual.  With ``sdc_guard`` the LU
        factor/solve path is kept: the checksum and residual audits
        (:func:`verify_lu`/:func:`verify_solve`) are contracts on a
        backward-stable triangular solve, which an explicit inverse does
        not honor.
        """
        B, n = Y.shape
        use_inv = not self.sdc_guard
        diag = np.arange(n)
        Yn = np.where(active[:, None], Y_pred, Y)
        W = self._error_weights(Y_pred)
        converged = np.zeros(B, dtype=bool)
        need = active.copy()
        for attempt in range(2):
            stale = need & (~J_valid | (jac_age >= self.max_jac_age)
                            if attempt == 0 else need)
            if stale.any():
                J_new = self._build_jacobian(t_new, Yn, stats)
                J[stale] = J_new[stale]
                J_valid |= stale
                jac_age[stale] = 0
            drifted = ~fact_valid | (
                np.abs(gamma - gamma_fact)
                > self.gamma_drift_tol * np.maximum(np.abs(gamma_fact), 1e-300)
            )
            idx = np.flatnonzero(need & (stale | drifted))
            if idx.size:
                M = -gamma[idx, None, None] * J[idx]
                M[:, diag, diag] += 1.0
                if use_inv:
                    inv[idx] = NUMPY.inv(M)
                else:
                    lu[idx], piv[idx] = NUMPY.lu_factor(M)
                    verify_lu(lu[idx], piv[idx], lu_checksum(M))
                gamma_fact[idx] = gamma[idx]
                fact_valid[idx] = True
                stats.cells_refactored += idx.size
            unconv = need & ~converged
            audited = not self.sdc_guard
            for _ in range(self.max_newton):
                if not unconv.any():
                    break
                F = self.rhs(t_new, Yn)
                stats.rhs_sweeps += 1
                stats.newton_iters += 1
                res = Yn + ((a1[:, None] * Y + a2[:, None] * Y_prev)
                            - h[:, None] * F) / a0[:, None]
                uidx = np.flatnonzero(unconv)
                if use_inv:
                    delta = NUMPY.inv_apply(inv[uidx], -res[uidx])
                else:
                    delta = NUMPY.lu_solve(lu[uidx], piv[uidx], -res[uidx])
                if not audited:
                    # first solve of the round residual-checks the *held*
                    # factors: rebuild the iteration matrix they claim to
                    # factor (J is only refreshed together with a refactor,
                    # so gamma_fact + J reproduce it exactly) and demand
                    # M·delta ≈ −res within the backward-stable envelope.
                    # A bit flip in the cached lu/piv leaves a residual of
                    # order the solve error, far outside roundoff.
                    audited = True
                    M_held = -gamma_fact[uidx, None, None] * J[uidx]
                    M_held[:, diag, diag] += 1.0
                    verify_solve(M_held, delta, -res[uidx], growth=4.0)
                Yn[uidx] += delta
                newly = self._wrms(delta, W[uidx]) < self.newton_tol
                converged[uidx[newly]] = True
                unconv[uidx[newly]] = False
            failed = need & ~converged
            if not failed.any():
                break
            retry = failed & (jac_age > 0)
            if attempt == 0 and retry.any():
                need = retry
                Yn[retry] = Y_pred[retry]  # restart the retried iteration
                continue
            break
        failed = active & ~converged
        J_valid[failed] = False
        return converged, Yn

    # -- public ---------------------------------------------------------------

    def start(self, y0: np.ndarray, t0: float, t_end: float) -> BatchedBdfState:
        """Initialize a resumable integration of ``y0`` (ncells, n)."""
        if t_end <= t0:
            raise IntegrationError("t_end must exceed t0")
        Y = np.array(y0, dtype=float, copy=True)
        if Y.ndim != 2:
            raise IntegrationError(f"batched state must be 2-D, got {Y.shape}")
        B, n = Y.shape
        stats = BatchedBdfStats(ncells=B)

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = np.full(B, float(t0))
            F0 = np.asarray(self.rhs(t0, Y))
            stats.rhs_sweeps += 1
            scale = np.sqrt(np.sum((F0 * self._error_weights(Y)) ** 2,
                                   axis=1)) + 1e-30
            h = np.minimum((t_end - t0) / 100.0, 0.01 / scale)
            # interval-relative step floor: microsecond chemistry advances
            # legitimately need h far below 1e-14
            t_scale = max(abs(t0), abs(t_end))
            h = np.maximum(h, 1e-14 * t_scale)

        # rolling accepted-point history for error estimation; fake
        # pre-history times are distinct so unused divided differences
        # stay finite (they are never selected)
        past_t = np.full((B, 4), t0) - np.arange(4, 0, -1)[None, :]
        past_t[:, -1] = t0
        past_y = np.zeros((B, 4, n))
        past_y[:, -1] = Y

        tiny = 1e-14 * t_scale
        return BatchedBdfState(
            t_end=float(t_end),
            t_scale=t_scale,
            t=t,
            Y=Y,
            F0=F0,
            h=h,
            Y_prev=np.zeros_like(Y),
            h_prev=np.ones(B),
            have_prev=np.zeros(B, dtype=bool),
            past_t=past_t,
            past_y=past_y,
            past_cnt=np.ones(B, dtype=np.int64),
            J=np.zeros((B, n, n)),
            J_valid=np.zeros(B, dtype=bool),
            jac_age=np.zeros(B, dtype=np.int64),
            lu=np.zeros((B, n, n)),
            piv=np.zeros((B, n), dtype=np.intp),
            inv=np.zeros((B, n, n)),
            gamma_fact=np.zeros(B),
            fact_valid=np.zeros(B, dtype=bool),
            steps_per_cell=np.zeros(B, dtype=np.int64),
            done=t >= t_end - tiny,
            stats=stats,
        )

    def step_round(self, s: BatchedBdfState) -> None:
        """One lockstep step-attempt round over all unfinished cells.

        Mutates *s* in place; ``s.finished`` reports completion.  The
        state is self-contained, so a round sequence can be paused,
        checkpointed, restored, and resumed bit-identically.
        """
        if s.finished:
            return
        tr = self.tracer
        if tr is None:
            self._step_round_impl(s)
            return
        with tr.span("ode.step_round", cat="ode", pid="ode", tid="batched",
                     active_cells=int((~s.done).sum())) as sp:
            self._step_round_impl(s)
            sp.args["round"] = s.stats.step_rounds
        tr.metrics.counter("ode.step_rounds").inc()

    def _step_round_impl(self, s: BatchedBdfState) -> None:
        if s.finished:
            return
        t_end, tiny = s.t_end, 1e-14 * s.t_scale
        stats = s.stats
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            stats.step_rounds += 1
            if s.steps_per_cell.max() >= self.max_steps:
                i = int(s.steps_per_cell.argmax())
                raise IntegrationError(
                    f"max_steps={self.max_steps} exceeded in cell {i} "
                    f"at t={s.t[i]:.3e}"
                )
            if stats.step_rounds > 10 * self.max_steps:
                raise IntegrationError("lockstep round budget exceeded")
            active = ~s.done
            h = np.where(active, np.minimum(s.h, t_end - s.t), s.h)
            t_new = s.t + h
            rho = np.where(s.have_prev, h / s.h_prev, 1.0)
            a0 = np.where(s.have_prev, (1 + 2 * rho) / (1 + rho), 1.0)
            a1 = np.where(s.have_prev, -(1 + rho), -1.0)
            a2 = np.where(s.have_prev, rho**2 / (1 + rho), 0.0)
            gamma = h / a0
            Y_pred = np.where(s.have_prev[:, None],
                              s.Y + rho[:, None] * (s.Y - s.Y_prev),
                              s.Y + h[:, None] * s.F0)

            converged, Yn = self._newton(
                t_new, s.Y, s.Y_prev, Y_pred, a0, a1, a2, h, gamma, active,
                s.J, s.J_valid, s.jac_age, s.lu, s.piv, s.inv, s.gamma_fact,
                s.fact_valid, stats)
            newton_failed = active & ~converged
            if newton_failed.any():
                stats.newton_failures += int(newton_failed.sum())
                h = np.where(newton_failed, 0.25 * h, h)
                self._check_underflow(h, s.t, newton_failed, s.t_scale)

            test = active & converged
            if not test.any():
                s.h = h
                return
            W = self._error_weights(s.Y)
            err = self._error_estimate(s.past_t, s.past_y, s.past_cnt,
                                       s.have_prev, t_new, Yn, h, W)
            order = np.where(s.have_prev, 2, 1)
            factor = 0.9 * np.maximum(err, 1e-300) ** (-1.0 / (order + 1))
            reject = test & (err > 1.0)
            accept = test & ~reject
            if reject.any():
                stats.error_test_failures += int(reject.sum())
                h = np.where(reject, h * np.maximum(0.1, factor), h)
                self._check_underflow(h, s.t, reject, s.t_scale)
            if accept.any():
                stats.steps += int(accept.sum())
                s.steps_per_cell[accept] += 1
                s.jac_age[accept] += 1
                s.Y_prev = np.where(accept[:, None], s.Y, s.Y_prev)
                s.h_prev = np.where(accept, h, s.h_prev)
                s.t = np.where(accept, t_new, s.t)
                s.Y = np.where(accept[:, None], Yn, s.Y)
                s.past_t[accept, :-1] = s.past_t[accept, 1:]
                s.past_t[accept, -1] = s.t[accept]
                s.past_y[accept, :-1, :] = s.past_y[accept, 1:, :]
                s.past_y[accept, -1, :] = s.Y[accept]
                s.past_cnt[accept] = np.minimum(s.past_cnt[accept] + 1, 4)
                s.have_prev |= accept
                grow = np.where(err > 0,
                                np.minimum(5.0, np.maximum(0.2, factor)),
                                5.0)
                h = np.where(accept, h * grow, h)
                s.done = s.t >= t_end - tiny
                if self.sdc_guard:
                    require_finite("accepted state", s.Y[accept],
                                   s.t[accept], s.h_prev[accept])
                    if self.plausibility is not None:
                        ok = np.asarray(self.plausibility(s.Y[accept]),
                                        dtype=bool)
                        if not ok.all():
                            cell = int(np.flatnonzero(accept)[
                                int(np.flatnonzero(~ok)[0])])
                            raise SdcDetected(
                                f"accepted state fails plausibility in "
                                f"cell {cell} at t={s.t[cell]:.3e}",
                                location=(cell,),
                            )
            s.h = h

    def integrate(self, y0: np.ndarray, t0: float, t_end: float) -> BatchedBdfResult:
        """Advance every cell of ``y0`` (ncells, n) from *t0* to *t_end*."""
        tr = self.tracer
        if tr is None:
            state = self.start(y0, t0, t_end)
            while not state.finished:
                self.step_round(state)
            return state.result()
        with tr.span("ode.integrate", cat="ode", pid="ode", tid="batched",
                     ncells=int(np.asarray(y0).shape[0])) as sp:
            state = self.start(y0, t0, t_end)
            while not state.finished:
                self.step_round(state)
            sp.args["rounds"] = state.stats.step_rounds
        return state.result()
