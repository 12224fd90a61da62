"""A CVODE-like stiff integrator: variable-order, variable-step BDF.

Implements the SUNDIALS CVODE structure the Pele project depends on
(§3.8): implicit BDF time stepping at orders 1–5, a modified-Newton
nonlinear solve, and a pluggable linear solver — dense LU (the
PeleLM(eX)/MAGMA path, batched over cells elsewhere) or matrix-free GMRES
(the PeleC path).

The solution history is the backward-difference array ``D`` of the
quasi-constant-step formulation (Byrne & Hindmarsh; scipy's ``BDF`` with
the NDF coefficients ``kappa`` set to zero, i.e. CVODE's plain BDF):
``D[0]`` is the last accepted state, ``D[j]`` its j-th scaled backward
difference.  The predictor is ``sum(D[:q+1])``; the local error is
``y_new - y_pred`` times the error constant ``1/(q+1)``.  A step-size
change rescales ``D`` in place; after ``q + 1`` steps of equal size the
orders ``q - 1``, ``q`` and ``q + 1`` are compared on their own error
estimates and the one allowing the largest next step wins.  The first
step comes from one explicit probe of the RHS (scipy's
``select_initial_step`` at order 1).

The helpers below act on a leading batch axis so the scalar integrator
and :class:`~repro.ode.batched.BatchedBdfIntegrator` share every line of
the BDF algebra; in the batched case each cell carries its own order,
step size and equal-step count.  Verified against
``scipy.integrate.solve_ivp(method="BDF")`` on Robertson-class problems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.ode.gmres import gmres

RhsFn = Callable[[float, np.ndarray], np.ndarray]
JacFn = Callable[[float, np.ndarray], np.ndarray]

MAX_ORDER = 5
#: alpha_k = sum_{j<=k} 1/j (with kappa = 0 scipy's gamma and alpha
#: coincide), so the Newton system is y - y_pred + psi - gamma f(y) = 0
#: with gamma = h / alpha_q
ALPHA = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, MAX_ORDER + 1))))
#: local-error constant of order q: 1 / (q + 1)
ERROR_CONST = 1.0 / np.arange(1, MAX_ORDER + 3)
MIN_FACTOR, MAX_FACTOR, SAFETY = 0.2, 10.0, 0.9


def _order_tables():
    """Per-order matrices on the difference rows, indexed by q.

    ``predict[q]`` maps D to (predictor, psi); an accepted step is
    ``D <- fold[q] @ D + lift[q] * d``; ``keep[q]`` marks the (q+1)-block a
    step-size change rescales.
    """
    rows = MAX_ORDER + 3
    predict = np.zeros((MAX_ORDER + 1, 2, rows))
    fold = np.tile(np.eye(rows), (MAX_ORDER + 1, 1, 1))
    lift = np.zeros((MAX_ORDER + 1, rows, 1))
    keep = np.zeros((MAX_ORDER + 1, MAX_ORDER + 1, MAX_ORDER + 1), dtype=bool)
    for q in range(1, MAX_ORDER + 1):
        predict[q, 0, :q + 1] = 1.0
        predict[q, 1, 1:q + 1] = ALPHA[1:q + 1] / ALPHA[q]
        # D[i] = sum(D[i:q+1]) + d for i <= q, D[q+1] = d, D[q+2] = d - D[q+1]
        fold[q, :q + 3] = 0.0
        fold[q, :q + 1, :q + 1] = np.triu(np.ones((q + 1, q + 1)))
        fold[q, q + 2, q + 1] = -1.0
        lift[q, :q + 3] = 1.0
        keep[q, :q + 1, :q + 1] = True
    return predict, fold, lift, keep


_PREDICT, _FOLD, _LIFT, _KEEP = _order_tables()
#: order-selection exponents -1/(q, q+1, q+2) for candidates q-1, q, q+1
_EXPONENTS = -1.0 / np.maximum(np.arange(MAX_ORDER + 1)[:, None]
                               + np.arange(3), 1)


class LinearSolver(enum.Enum):
    DENSE = "dense"  # direct LU on the Newton matrix (MAGMA-style)
    GMRES = "gmres"  # matrix-free Krylov (PeleC-style)


class IntegrationError(RuntimeError):
    pass


@dataclass
class BdfStats:
    """Solver work counters (mirrors CVodeGetNumRhsEvals and friends)."""

    steps: int = 0
    rhs_evals: int = 0
    jac_evals: int = 0
    newton_iters: int = 0
    linear_iters: int = 0
    error_test_failures: int = 0
    newton_failures: int = 0


@dataclass
class BdfResult:
    t: float
    y: np.ndarray
    stats: BdfStats
    t_history: list[float] = field(default_factory=list)
    y_history: list[np.ndarray] = field(default_factory=list)


def wrms(E: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Weighted RMS norm over the last axis."""
    EW = E * W
    # einsum sidesteps np.mean's reduction machinery on this hot path
    return np.sqrt(np.einsum("...j,...j->...", EW, EW) / EW.shape[-1])


def initial_differences(y: np.ndarray, hf: np.ndarray) -> np.ndarray:
    """The (B, MAX_ORDER + 3, n) difference array of an order-1 start."""
    D = np.zeros(y.shape[:1] + (MAX_ORDER + 3,) + y.shape[1:])
    D[:, 0] = y
    D[:, 1] = hf
    return D


def initial_step(Y: np.ndarray, F0: np.ndarray, W: np.ndarray, span: float,
                 rhs_at: Callable[[np.ndarray, np.ndarray], np.ndarray]
                 ) -> np.ndarray:
    """Per-cell first step: scipy's ``select_initial_step`` at order 1.

    One explicit Euler probe ``rhs_at(h0, Y + h0·F0)`` estimates the second
    derivative; the step then puts the order-1 local error near 1 % of
    tolerance, so short integrations do not spend most of their steps
    growing out of a needlessly small start.  An estimate that overflows
    comes back as 0, for the caller's step floor to lift.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d0, d1 = wrms(Y, W), wrms(F0, W)
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6,
                                 0.01 * d0 / d1), span)
        d2 = wrms(rhs_at(h0, Y + h0[:, None] * F0) - F0, W) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      np.sqrt(0.01 / np.maximum(d1, d2)))
        h = np.minimum(np.minimum(100.0 * h0, h1), span)
        return np.where(h > 0.0, h, 0.0)


def predict(D: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell predictor ``sum(D[:q+1])`` and history term ``psi``."""
    P = _PREDICT[order] @ D
    return P[:, 0], P[:, 1]


def _r_matrix(factor: np.ndarray) -> np.ndarray:
    """Byrne–Hindmarsh step-change matrix R(factor) at full order."""
    k = np.arange(1, MAX_ORDER + 1)
    M = np.zeros((factor.size, MAX_ORDER + 1, MAX_ORDER + 1))
    M[:, 1:, 1:] = (k[:, None] - 1 - factor[:, None, None] * k) / k[:, None]
    M[:, 0] = 1.0
    return np.cumprod(M, axis=1)


_U = _r_matrix(np.ones(1))[0]
_EYE = np.eye(MAX_ORDER + 1)


def rescale(D: np.ndarray, order: np.ndarray, factor: np.ndarray) -> None:
    """Rescale each cell's D in place for a step change h -> factor·h.

    U is upper triangular, so the leading (q+1)-block of the full-order
    R·U is exactly the order-q matrix; outside it each cell keeps its rows.
    """
    RU = np.where(_KEEP[order], _r_matrix(factor) @ _U, _EYE)
    D[:, :MAX_ORDER + 1] = np.swapaxes(RU, 1, 2) @ D[:, :MAX_ORDER + 1]


def select_order(D: np.ndarray, order: np.ndarray, err: np.ndarray,
                 W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order q-1, q or q+1, whichever allows the largest next step.

    Called after q + 1 equal steps; the q±1 error estimates come from D
    rows q and q+2.  Returns ``(new_order, factor)``.
    """
    near = order[:, None] + np.array([-1, 1])
    E = ERROR_CONST[near][:, :, None] * D[np.arange(order.size)[:, None],
                                         near + 1]
    norms = np.empty((order.size, 3))
    norms[:, ::2] = np.where((near >= 1) & (near <= MAX_ORDER),
                             wrms(E, W[:, None]), np.inf)
    norms[:, 1] = err
    with np.errstate(divide="ignore"):
        factors = norms ** _EXPONENTS[order]
    new_order = order + np.argmax(factors, axis=1) - 1
    return new_order, np.minimum(MAX_FACTOR, SAFETY * factors.max(axis=1))


def error_test(d: np.ndarray, W: np.ndarray,
               order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell local-error norm of the correction ``d = y_new - y_pred``
    and the step factor a rejected cell (``err > 1``) retries with."""
    err = wrms(ERROR_CONST[order, None] * d, W)
    with np.errstate(divide="ignore", over="ignore"):
        cut = np.maximum(MIN_FACTOR, SAFETY * err ** (-1.0 / (order + 1)))
    return err, cut


def accept_step(D: np.ndarray, order: np.ndarray, n_equal: np.ndarray,
                d: np.ndarray, err: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Fold accepted corrections into D; cells that have now taken q + 1
    equal steps select their next order.

    Updates ``D``, ``order`` and ``n_equal`` in place and returns the
    per-cell step factor (1 where the order was not revisited).
    """
    D[:] = _FOLD[order] @ D + _LIFT[order] * d[:, None, :]
    n_equal += 1
    factor = np.ones(order.size)
    ready = np.flatnonzero(n_equal >= order + 1)
    if ready.size:
        order[ready], factor[ready] = select_order(
            D[ready], order[ready], err[ready], W[ready])
        n_equal[ready] = 0
    return factor


def _numerical_jacobian(f: RhsFn, t: float, y: np.ndarray, fy: np.ndarray,
                        stats: BdfStats, *, columnwise: bool = False) -> np.ndarray:
    """Finite-difference Jacobian; one vectorized sweep when the RHS allows.

    With ``columnwise=True`` the RHS is evaluated once on an (n, n) matrix
    whose column j is ``y + dy_j e_j`` — the batched-perturbation trick the
    batched integrator uses across cells (no per-column Python loop).
    """
    n = y.size
    eps = np.sqrt(np.finfo(float).eps)
    dy = eps * np.maximum(np.abs(y), 1e-8)
    if columnwise:
        Y = y[:, None] + np.diag(dy)
        F = np.asarray(f(t, Y))
        stats.rhs_evals += n
        # non-finite RHS values (diverging problems probed near a failure)
        # legitimately produce NaN differences here; Newton rejects them
        with np.errstate(invalid="ignore"):
            return (F - fy[:, None]) / dy[None, :]
    J = np.empty((n, n))
    with np.errstate(invalid="ignore"):
        for j in range(n):
            yp = y.copy()
            yp[j] += dy[j]
            J[:, j] = (f(t, yp) - fy) / dy[j]
            stats.rhs_evals += 1
    return J


class BdfIntegrator:
    """Variable-order (1–5), variable-step BDF with modified Newton."""

    def __init__(
        self,
        rhs: RhsFn,
        *,
        jac: JacFn | None = None,
        rtol: float = 1e-6,
        atol: float | np.ndarray = 1e-9,
        linear_solver: LinearSolver = LinearSolver.DENSE,
        max_steps: int = 100_000,
        newton_tol: float = 0.1,
        max_newton: int = 6,
        max_jac_age: int = 50,
        gamma_drift_tol: float = 0.3,
    ) -> None:
        self.rhs = rhs
        self.jac = jac
        self.rtol = rtol
        self.atol = atol
        self.linear_solver = linear_solver
        self.max_steps = max_steps
        self.newton_tol = newton_tol
        self.max_newton = max_newton
        self.max_jac_age = max_jac_age
        self.gamma_drift_tol = gamma_drift_tol
        # CVODE-style reuse cache: Jacobian + Newton matrix held across
        # steps until convergence degrades, the step count ages it out, or
        # gamma drifts too far from the value it was assembled with.
        self._J: np.ndarray | None = None
        self._M: np.ndarray | None = None
        self._gamma_M: float | None = None
        self._jac_age = 0
        self._jac_stale = True
        # None = unprobed; True/False = RHS accepts column-stacked states
        self._rhs_columnwise: bool | None = None

    # -- internals ------------------------------------------------------------

    def _error_weights(self, y: np.ndarray) -> np.ndarray:
        return 1.0 / (self.rtol * np.abs(y) + self.atol)

    def _probe_columnwise(self, t: float, y: np.ndarray, fy: np.ndarray) -> bool:
        """Decide (once) whether the RHS evaluates column-stacked states.

        The vectorized FD Jacobian passes all n perturbed states as the
        columns of an (n, n) matrix.  Componentwise RHS expressions (the
        common case: ``A @ y``, chemistry rates, Robertson) broadcast
        correctly; anything else is detected by comparing column 0 against
        a direct scalar evaluation and falls back to the column loop.
        """
        if self._rhs_columnwise is None:
            n = y.size
            eps = np.sqrt(np.finfo(float).eps)
            dy = eps * np.maximum(np.abs(y), 1e-8)
            try:
                F = np.asarray(self.rhs(t, y[:, None] + np.diag(dy)))
                y0 = y.copy()
                y0[0] += dy[0]
                f0 = self.rhs(t, y0)
                ok = (F.shape == (n, n)
                      and np.allclose(F[:, 0], f0, rtol=1e-12, atol=1e-300,
                                      equal_nan=True))
            except Exception:
                ok = False
            self._rhs_columnwise = bool(ok)
        return self._rhs_columnwise

    def _newton_matrix(self, t_new: float, y: np.ndarray, gamma: float,
                       stats: BdfStats, *, force_fresh: bool) -> np.ndarray:
        """Return I - gamma J, reusing the cached Jacobian/matrix when safe."""
        need_jac = (force_fresh or self._J is None or self._jac_stale
                    or self._jac_age >= self.max_jac_age)
        if need_jac:
            if self.jac is not None:
                self._J = self.jac(t_new, y)
            else:
                fy = self.rhs(t_new, y)
                stats.rhs_evals += 1
                self._J = _numerical_jacobian(
                    self.rhs, t_new, y, fy, stats,
                    columnwise=self._probe_columnwise(t_new, y, fy))
            stats.jac_evals += 1
            self._jac_age = 0
            self._jac_stale = False
            self._M = None
        gamma_drifted = (self._gamma_M is None or abs(gamma / self._gamma_M - 1.0)
                         > self.gamma_drift_tol)
        if self._M is None or gamma_drifted:
            self._M = np.eye(y.size) - gamma * self._J
            self._gamma_M = gamma
        return self._M

    def _newton_solve(self, t_new: float, y_pred: np.ndarray, gamma: float,
                      residual: Callable[[np.ndarray], np.ndarray],
                      stats: BdfStats) -> np.ndarray | None:
        """Solve the BDF nonlinear system via modified Newton.

        ``residual(y)`` is ``y - y_pred + psi - gamma f(y)``; its exact
        Jacobian is ``I - gamma J`` — the iteration matrix the dense path
        factors and the CVODE convention that makes Jacobian reuse sound.
        A failed iteration with a reused Jacobian triggers one fresh-J
        retry before the step is abandoned (CVODE's recovery ladder).
        """
        if self.linear_solver is LinearSolver.DENSE:
            attempts = 2 if (self._jac_age > 0 or self._jac_stale
                             or self._J is None) else 1
            for attempt in range(attempts):
                M = self._newton_matrix(t_new, y_pred, gamma, stats,
                                        force_fresh=attempt > 0)
                y = y_pred.copy()
                w = self._error_weights(y_pred)
                for _ in range(self.max_newton):
                    stats.newton_iters += 1
                    res = residual(y)
                    delta = np.linalg.solve(M, -res)
                    y = y + delta
                    if wrms(delta, w) < self.newton_tol:
                        return y
                if attempt + 1 < attempts:
                    continue  # retry once with a freshly built Jacobian
            self._jac_stale = True
            stats.newton_failures += 1
            return None

        # matrix-free GMRES path (PeleC-style)
        y = y_pred.copy()
        w = self._error_weights(y_pred)
        for _ in range(self.max_newton):
            stats.newton_iters += 1
            res = residual(y)
            fy = self.rhs(t_new, y)
            stats.rhs_evals += 1

            def jv(v: np.ndarray) -> np.ndarray:
                """Finite-difference J·v, matrix-free."""
                sigma = 1e-7 * max(np.linalg.norm(y), 1.0) / max(np.linalg.norm(v), 1e-30)
                stats.rhs_evals += 1
                return (self.rhs(t_new, y + sigma * v) - fy) / sigma

            def mop(v: np.ndarray) -> np.ndarray:
                return v - gamma * jv(v)

            sol = gmres(mop, -res, tol=1e-4 * self.newton_tol, restart=20,
                        maxiter=200)
            stats.linear_iters += sol.iterations
            if not sol.converged:
                stats.newton_failures += 1
                return None
            delta = sol.x
            y = y + delta
            if wrms(delta, w) < self.newton_tol:
                return y
        stats.newton_failures += 1
        return None

    # -- public ---------------------------------------------------------------

    def integrate(self, y0: np.ndarray, t0: float, t_end: float, *,
                  first_step: float | None = None,
                  record_history: bool = False) -> BdfResult:
        """Integrate from *t0* to *t_end*; returns the final state and stats."""
        if t_end <= t0:
            raise IntegrationError("t_end must exceed t0")
        y0 = np.asarray(y0, dtype=float)
        stats = BdfStats()
        self._J = None
        self._M = None
        self._gamma_M = None
        self._jac_age = 0
        self._jac_stale = True
        t = t0
        y = y0.copy()
        f0 = self.rhs(t, y)
        stats.rhs_evals += 1
        if first_step is not None:
            h = first_step
        else:
            def rhs_at(h0: np.ndarray, Y1: np.ndarray) -> np.ndarray:
                stats.rhs_evals += 1
                return self.rhs(t0 + h0[0], Y1[0])[None]

            h = float(initial_step(y[None], f0[None],
                                   self._error_weights(y)[None],
                                   t_end - t0, rhs_at)[0])
        # step floor relative to the integration interval, not to O(1):
        # microsecond chemistry advances legitimately need h ~ 1e-16
        h_floor = 1e-14 * max(abs(t0), abs(t_end))
        h = min(max(h, h_floor), t_end - t0)

        t_hist: list[float] = [t0]
        y_hist: list[np.ndarray] = [y0.copy()]
        # the shared batch-axis helpers see this integration as one cell
        D = initial_differences(y[None], h * f0[None])
        order = np.ones(1, dtype=np.int64)
        n_equal = np.zeros(1, dtype=np.int64)

        while t < t_end:
            if stats.steps >= self.max_steps:
                raise IntegrationError(
                    f"max_steps={self.max_steps} exceeded at t={t:.3e}"
                )
            t_new = t + h
            q = int(order[0])
            y_pred, psi = (v[0] for v in predict(D, order))
            gamma = h / ALPHA[q]

            def residual(yn: np.ndarray, y_pred=y_pred, psi=psi, gamma=gamma,
                         t_new=t_new) -> np.ndarray:
                r = self.rhs(t_new, yn)
                stats.rhs_evals += 1
                # Jacobian exactly I - gamma J, the factored iteration
                # matrix; NaN from an infinite RHS is the failure signal
                with np.errstate(invalid="ignore"):
                    return yn - y_pred + psi - gamma * r

            y_new = self._newton_solve(t_new, y_pred, gamma, residual, stats)
            accepted, factor = False, 0.25  # 0.25: the Newton-failure cut
            if y_new is not None:
                d = (y_new - y_pred)[None]
                w = self._error_weights(y_new)[None]
                err, cut = error_test(d, w, order)
                if err[0] > 1.0:
                    stats.error_test_failures += 1
                    factor = float(cut[0])
                else:
                    accepted = True
                    stats.steps += 1
                    self._jac_age += 1
                    t, y = t_new, y_new
                    factor = float(accept_step(D, order, n_equal, d, err, w)[0])
                    if record_history:
                        t_hist.append(t)
                        y_hist.append(y.copy())
            if not accepted and h * factor < 1e-14 * max(abs(t), abs(t_end)):
                raise IntegrationError(f"step size underflow at t={t:.3e}")
            h_next = min(h * factor, t_end - t)
            if t < t_end and h_next != h:
                rescale(D, order, np.array([h_next / h]))
                n_equal[:] = 0
                h = h_next

        return BdfResult(t=t, y=y, stats=stats,
                         t_history=t_hist if record_history else [],
                         y_history=y_hist if record_history else [])
