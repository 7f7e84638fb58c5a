"""Dense active-set QP core and the shared dispatch-clearing solve.

Every constrained clearing in the package reduces to the same template:

    min   sum_j [ ||g_j||^2/(2 alpha_j) + a_j * 1'g_j ]
        + sum_s ||N_s u_s||^2 / (2 beta_s)
    s.t.  sum_j g_j + sum_s u_s = d        (per-interval balance, price lambda)
          1'u_s = 0                        (optional periodicity, dual delta_s)
          lo <= g_j, u_s <= hi             (per-interval boxes)
          0 <= x0_s - cumsum(u_s)/E_s <= 1 (optional SoC corridor)

with the half-cycle map N_s piecewise constant in u_s.  The solve alternates:
freeze the maps, solve the resulting convex QP exactly with a primal
active-set method, recompute the maps, and repeat until the assignment is
stable and the true problem's KKT residual meets the fixed 1e-8 certificate
(``certified``); the maps (``dispatch_map``) read rounding-level storage
dispatch as idle.  A two-map assignment cycle means the optimum sits on an
assignment boundary; a bisection over the blended-curvature weight lands on
it with the matching convex subgradient weights.  A solve that settles
neither way within its round budget (``_MAX_ROUNDS``) raises
``SolverFailureError`` carrying the best iterate.

Every starting point is built from a dispatch pair (g, u): the generators
take up what is left of each interval's balance within their limits, and
the point is used if it meets every constraint.  The pair is a caller's
seed, or the cold start: every participant at the point of its box nearest
0, storage within its corridor and periodicity (``storage_start``).  Where
the generators cannot take up its balance, phase 1 solves the template with
two l1 penalty generators per interval (``elastic_start``), or shows that no
dispatch exists; it starts by the same rule, and raises
``SolverFailureError`` where rounding at the limits' scale breaks that start.

The active-set core (``_ActiveSet``) works in an orthonormal basis of the
equalities' null space.  It eliminates the equalities once per constraint
structure: the template's A and inequality rows G depend only on the
participant counts, the horizon, periodicity, the SoC corridor and which
limits are finite, so ``_structure`` builds them read-only, with their
null-space view, once per such key and keeps the last few in an LRU cache;
every window, round and sweep point of one structure shares them.  It
keeps the working rows factored: one orthogonal Q whose leading rows are an
orthonormal basis of their parts, with its triangular coefficients, and
whose trailing rows are the complement, and a square inverse factor T of
the reduced Hessian M on the complement (T M T' = I), built from a Cholesky
factor of M when a solve starts, with Z'HZ summed over H's diagonal blocks
(one per participant).
Each add and each drop updates Q and T in O(nz^2), a join T by one rank-2
update, so an iteration takes its Newton step in the directions the working
rows leave free without solving anything; multipliers take one back
substitution on L' by blocks of 64 rows.  A step after a drop that moves
toward the dropped row carries the rounding of an updated T, and is taken
again from T factored anew.  A working row that the equalities and the kept
rows already imply parks outside the factorization; a drop frees it
untested, and a later step that moves toward it stops there at length zero.
Every row of the template's G reads one variable or one storage unit's
prefix sum, with a sign, and the view holds the rows in that form alone
(signed picks), never as a matrix: G p is a signed gather from p extended
by the per-unit cumulative sums of its storage block, the rows' null-space
parts GZ are gathered the same way from Z, and G'mu sums the weights per
picked entry, then each unit's prefix-sum entries from the last.  The
ratio test needs G p for each step p, and divides only on the rows that
the step moves toward their limits.  G x is formed once per point: a
problem's start keeps the G x its admission check formed, and a round that
starts where the last solve ended reads the G x that solve tracked.

A market solve runs that core on one active-set state (``_ActiveSet``).  Its
first round forms what depends only on A, b, G and h (x_r, G x_r and the
rows' right-hand sides) and factors its working rows; every later round
starts at the last round's optimum from the rows that round kept, tests
none of the rows parked since its last drop again unless a kept row left,
and rebuilds only what depends on its Hessian (Z'HZ, the reduced gradient
and T).  The kink bisection starts once, and each probe solves from a copy
of that start.  A state starts where it stands, so a start checks nothing;
``solve_qp`` checks its caller's ``x0`` and places a fresh state there, on
a view it reduces from its own A and dense G.
"""

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, InvalidInputError, SolverFailureError
from .rainflow import rainflow_map

__all__ = ["QPSolution", "solve_qp", "MarketQPResult", "solve_market_qp"]

_KKT_TOL = 1e-8  # the certificate: the largest KKT residual a certified answer may carry
_START_TOL = 1e-7  # how far solve_qp's starting point may break a constraint
_MAX_ITER = 2000  # active-set iterations per solve (a solve_qp call or one round)
_MAX_ROUNDS = 200  # alternation rounds per solve_market_qp start
_STRUCTURES = 4  # constraint structures _structure keeps; a sweep point uses 3


@dataclass
class QPSolution:
    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray  # one entry per row of G, zero when inactive
    iterations: int


class _WorkingRows:
    """The working rows of the solves over one G and h, factored for their
    iterations, updated per add and drop, and carried from one solve to the
    next.  The boolean mask ``working`` holds the kept rows and the parked
    ones, which the kept rows imply; the ratio test reads the rows outside.

    One orthogonal ``Q`` splits the null space at ``k``: the kept rows'
    parts satisfy ``GZ[kept] = L @ Q[:k]``, with ``L`` lower triangular,
    and ``y`` solves ``L y = rhs[kept]``, so the point ``Q[:k]' y`` meets
    every kept row exactly.  ``Q[k:]`` spans the directions they leave
    free.  None of this depends on the Hessian, so a solve starts from the
    rows the last one kept (``carry``).  One solve's
    reduced Hessian on the free directions is M = ``Q[k:] Hz Q[k:]'``, and
    ``T[k:, k:]`` is a square inverse factor of it, T M T' = I, so that
    M^-1 = T'T.  A row that joins reflects ``Q[k:]`` once, so that its
    first row becomes the new basis direction; T takes the reflection from
    the right and a second one from the left, which leaves the new factor
    in its trailing block, both as one rank-2 update of that block, in
    O(nz^2).  A drop refactors the rows after the dropped one by one QR of
    their coefficients, which turns ``Q[k-1]`` into the one direction that
    only the dropped row pinned; it becomes the complement's first row, and
    T is bordered there.  ``Q`` stays orthogonal and apart from T, so T's
    rounding stays inside the Newton step.  Every buffer is allocated once,
    when the rows are first made.
    """

    def __init__(self, GZ, rhs, thresholds):
        nz = GZ.shape[1]
        self.GZ, self.rhs, self.thresholds = GZ, rhs, thresholds
        self.k = 0  # kept rows
        self.kept = np.empty(nz, np.intp)
        self.working = np.zeros(GZ.shape[0], bool)
        self.Q = np.eye(nz)
        self.L = np.zeros((nz, nz))
        self.y = np.empty(nz)
        self.T = np.empty((nz, nz))

    def carry(self, active):
        """Make the rows of the boolean mask ``active`` the working set.

        The kept rows stay, in their order, up to the first that is not
        active, and the rows of ``Q`` after them span the complement; the
        other active rows not in the mask join in index order, each parking
        if the basis already implies it.  A parked row that is still active
        is not tested again unless a kept row was cut, since the same basis
        still implies it."""
        still = active[self.kept[:self.k]]
        if not still.all():
            self.k = int(np.argmin(still))
            self._free()
        self.working &= active
        for i in np.flatnonzero(active & ~self.working):
            self._join(i)

    def reduce(self, Hz, grad):
        """Take one solve's reduced Hessian ``Hz`` and gradient ``grad``, and
        factor M = ``Q[k:] Hz Q[k:]'`` = C C' with C lower triangular, so
        that T = C^-1; a Cholesky factorization that fails raises
        LinAlgError (M not positive definite)."""
        self.Hz, self.grad = Hz, grad
        k, U = self.k, self.Q[self.k:]
        if U.size:
            self.T[k:, k:] = np.linalg.inv(np.linalg.cholesky(U @ Hz @ U.T))

    def copy(self):
        """A copy whose updates leave this factorization as it is."""
        other = copy.copy(self)
        for name in ("kept", "working", "Q", "L", "y", "T"):
            setattr(other, name, getattr(self, name).copy())
        return other

    def add(self, i):
        """Append row ``i`` of G if its part ``GZ[i]`` orthogonal to the
        basis exceeds ``thresholds[i]``; otherwise it parks."""
        reflection = self._join(i)
        if reflection:
            # T P factors P M P; the reflection I - beta uu' zeroes its first
            # column below the corner, and the trailing block that is left
            # factors the trailing block of P M P.  With a = t T v, T P is
            # T - av', so both reach that block as one rank-2 update
            v, t = reflection
            T = self.T[self.k - 1:, self.k - 1:]
            a = t * (T @ v)
            u = T[:, 0] - a * v[0]
            u[0] += math.copysign(math.sqrt(u @ u), u[0])
            r = u @ T[:, 1:] - (u @ a) * v[1:]
            T[1:, 1:] -= np.array([a[1:], (2.0 / (u @ u)) * u[1:]]).T @ np.array([v[1:], r])

    def drop(self, j):
        """Drop the ``j``-th kept row; the parked rows leave the mask untested.

        The rows kept after it keep their coefficients on ``Q[:j]``; on
        ``Q[j:k]`` they are R'P' by one QR, so ``P' Q[j:k]`` is their new
        basis followed by the one direction that only row ``j`` pinned,
        which becomes the complement's first row."""
        k, L, Q = self.k, self.L, self.Q
        P, R = np.linalg.qr(L[j + 1:k, j:k].T, mode="complete")
        Q[j:k] = P.T @ Q[j:k]
        self.y[j:k - 1] = (P.T @ self.y[j:k])[:-1]
        L[j:k - 1, :j] = L[j + 1:k, :j]
        L[j:k - 1, j:k] = R.T
        self.kept[j:k - 1] = self.kept[j + 1:k]
        self.k = k - 1
        self._free()
        self._enter_complement()

    def _join(self, i):
        # the reflection P = I - t vv' maps c = Q[k:] GZ[i] to -s|c| e_1, so
        # that -s times the first row of P Q[k:] is row i's part orthogonal
        # to the basis over |c|; L gains row i's coefficients, with |c| on
        # its diagonal, and y its forward-substitution entry.  Row i enters
        # the working mask either way.  Returns (v, t), or None where it parks
        k, Q = self.k, self.Q
        c = Q @ self.GZ[i]
        v = c[k:]
        norm = math.sqrt(v @ v)
        self.working[i] = True
        if norm <= self.thresholds[i]:
            return None
        # the sign of +0.0 is +1: Q starts as the identity, where v[0] is often 0
        s = math.copysign(1.0, v[0])
        v[0] += s * norm
        t = 1.0 / (norm * abs(v[0]))
        U = Q[k:]
        U -= (t * v)[:, None] * (v @ U)
        U[0] *= -s
        self.L[k, :k], self.L[k, k] = c[:k], norm
        self.y[k] = (self.rhs[i] - c[:k] @ self.y[:k]) / norm
        self.kept[k] = i
        self.k = k + 1
        return v, t

    def _free(self):
        self.working[:] = False  # only the kept rows stay in the mask
        self.working[self.kept[:self.k]] = True

    def _enter_complement(self):
        # z = Q[k] becomes the complement's first row, and T gains the border
        # row [1, -x'] / s, with x = M^-1 U Hz z over the complement U after
        # it.  s^2 = z'Hz z - |T U Hz z|^2 would cancel where M is
        # ill-conditioned; the curvature of p = z - U'x, which Hz-projects z
        # off the complement, is the same s^2, and a rounded x only adds to it
        k = self.k
        z, U, T = self.Q[k], self.Q[k + 1:], self.T[k + 1:, k + 1:]
        x = (T @ (U @ (self.Hz @ z))) @ T
        p = z - x @ U
        s2 = p @ (self.Hz @ p)
        if not s2 > 0.0:
            raise np.linalg.LinAlgError("the freed direction has no curvature left")
        s = math.sqrt(s2)
        self.T[k, k] = 1.0 / s
        self.T[k, k + 1:] = x / -s
        self.T[k + 1:, k] = 0.0

    def point(self):
        """The null-space point ``w`` that minimizes the reduced objective on
        the kept rows: ``Q[:k]' y`` plus the Newton step in the free
        directions, ``-U' T'T U (Hz w + grad)`` with U = ``Q[k:]``."""
        k, Q = self.k, self.Q
        w = self.y[:k] @ Q[:k]
        if k < Q.shape[0]:
            U, T = Q[k:], self.T[k:, k:]
            w -= ((T @ (U @ (self.Hz @ w + self.grad))) @ T) @ U
        return w

    def multipliers(self, w):
        """The kept rows' multipliers at the stationary point ``w``, from
        ``L' mu = -Q[:k] (Hz w + grad)``, by back substitution over blocks
        of at most 64 rows from the last: each block is solved densely, and
        its entries leave the right-hand sides of the rows above it."""
        k, L = self.k, self.L
        mu = -(self.Q[:k] @ (self.Hz @ w + self.grad))
        for hi in range(k, 0, -64):
            lo = max(hi - 64, 0)
            mu[lo:hi] = np.linalg.solve(L[lo:hi, lo:hi].T, mu[lo:hi])
            mu[:lo] -= mu[lo:hi] @ L[lo:hi, :lo]
        return mu


def _block_product(H, x):
    """H x for the block-diagonal H given as the stack of its diagonal
    blocks, of shape (B, m, m); ``solve_qp`` passes its H as one block."""
    B, m, _ = H.shape
    return (H @ x.reshape(B, m, 1)).ravel()


def _reduced_hessian(H, Z):
    """Z'HZ for H as in ``_block_product``: Z'H block by block, then one
    product with Z, which skips the zero blocks of a dense Z'H."""
    B, m, _ = H.shape
    nz = Z.shape[1]
    ZH = Z.reshape(B, m, nz).transpose(0, 2, 1) @ H
    return ZH.transpose(1, 0, 2).reshape(nz, B * m) @ Z


class _NullSpace:
    """What ``solve_qp`` derives from its constraint matrices alone.

    One QR of A' = [Y Z] R gives ``Z``, an orthonormal basis of the null
    space of A, and ``A_plus`` = Y R^-T, with ``A_plus b`` the minimum-norm
    solution of Ax = b.  ``GZ`` holds the inequality rows' null-space parts
    and ``thresholds`` 1e-9 ||G_i||, at or below which a working row's part
    orthogonal to the kept rows parks.  ``independent`` is False where A has
    more rows than columns or dependent rows; the rest is then not formed.
    ``Z`` is copied out of the complete QR, whose n x n factor is freed.

    The rows G come in one of two forms.  ``solve_qp`` passes a dense
    ``G``, which ``product`` and ``transpose_product`` multiply by.
    ``_structure`` passes signed picks instead, and no matrix of the rows
    exists: row i is ``sign[i]`` times entry ``pick[i]`` of x followed by
    the cumulative sums of the ``prefix`` = (S, T) storage blocks that end
    x, so it is a bound row of length 1 or a prefix row of length t + 1.
    ``GZ`` is then gathered from Z followed by the cumulative sums of its
    storage rows, and ``thresholds`` are 1e-9 times the rows' square-root
    lengths.
    """

    def __init__(self, A, G=None, pick=None, sign=None, prefix=None):
        m, n = A.shape
        self.A, self.G = A, G
        self.pick, self.sign, self.prefix = pick, sign, prefix
        Q, R = np.linalg.qr(A.T, mode="complete")
        self.independent = not (m > n or (m and np.abs(np.diagonal(R)).min() <= 1e-12))
        if self.independent:
            self.Z, self.A_plus = Q[:, m:].copy(), np.linalg.solve(R[:m], Q[:, :m].T).T
            del Q  # the n x n factor goes before the rows' parts are formed
            if pick is None:
                self.GZ, self.thresholds = G @ self.Z, 1e-9 * np.linalg.norm(G, axis=1)
            else:
                self.GZ = self._extended(self.Z)[pick]
                self.GZ *= sign[:, None]
                lengths = 1 + np.maximum(pick - n, 0) % max(prefix[1], 1)
                self.thresholds = 1e-9 * np.sqrt(lengths)

    def _extended(self, p):
        # p, one entry or one row per variable in x order, followed by the
        # cumulative sums of its storage blocks
        S, T = self.prefix
        tail = p[p.shape[0] - S * T:]
        sums = np.add.accumulate(tail.reshape(S, T, *p.shape[1:]), axis=1)
        return np.concatenate([p, sums.reshape(tail.shape)])

    def product(self, p):
        """G p, gathered through ``pick`` and ``sign`` where the view has
        them."""
        if self.pick is None:
            return self.G @ p
        Gp = self._extended(p)[self.pick]
        Gp *= self.sign
        return Gp

    def transpose_product(self, mu, rows=None):
        """G' mu over the rows ``rows`` (all where None), with one entry of
        ``mu`` per row.  For signed picks: the weights summed per picked
        entry, then each storage block's prefix-sum entries summed from the
        last, since prefix row t reads the unit's entries up to t."""
        if self.pick is None:
            return (self.G if rows is None else self.G[rows]).T @ mu
        pick, sign = (self.pick, self.sign) if rows is None else (self.pick[rows], self.sign[rows])
        S, T = self.prefix
        n = self.A.shape[1]
        v = np.bincount(pick, weights=sign * mu, minlength=n + S * T)
        backward = v[n:].reshape(S, T)[:, ::-1]
        np.add.accumulate(backward, axis=1, out=backward)
        out = v[:n]
        out[n - S * T:] += v[n:]
        return out


class _ActiveSet:
    """The state of the active-set solves over one null-space view of A and
    G (``_Problem.structure``, or the one ``solve_qp`` builds), b and h.

    What depends on them alone is formed once: the minimum-norm solution
    x_r of the equalities, G x_r and the rows' right-hand sides h - G x_r.
    The state stands at one feasible point ``x``, with its ``Gx`` = G x:
    first the point its owner places it at (``_Problem.active_set`` places
    it at the point ``admits`` accepted, ``solve_qp`` at the caller's
    checked ``x0``), later the one its last solve ended at, with the G x
    that solve tracked.  ``start`` carries the working rows to that point
    from wherever the last solve left them (``_WorkingRows.carry``), so a
    solve that starts where the last one ended rebuilds only what depends
    on its Hessian: Z'HZ, the reduced gradient and T.  ``fork`` copies a
    started state, so that solves with different Hessians can run from one
    start.
    """

    def __init__(self, view, b, h):
        self.view, self.h = view, h
        self.x = self.Gx = None
        if view.independent:
            self.x_r = view.A_plus @ b
            self.Gx_r = view.product(self.x_r)
            self.rows = _WorkingRows(view.GZ, h - self.Gx_r, view.thresholds)

    def start(self):
        """Start at the state's point: the rows active there become the working set."""
        if not self.view.independent:
            raise SolverFailureError("solve_qp requires linearly independent equality rows",
                                     best_iterate=self.x)
        self.rows.carry(self.h - self.Gx <= 1e-10 * np.maximum(1.0, np.abs(self.h)))

    def fork(self):
        """A copy of the started state whose solve leaves this one as it is."""
        other = copy.copy(self)
        other.rows = self.rows.copy()
        return other

    def solve(self, H, q):
        """Minimize 0.5 x'Hx + q'x from the start (see ``solve_qp``), with H
        block diagonal and given as the stack of its diagonal blocks
        (``_block_product``); the working rows end where the solve does."""
        view, Z, A_plus = self.view, self.view.Z, self.view.A_plus
        h, x_r = self.h, self.x_r
        x, Gx, rows = self.x, self.Gx, self.rows
        dropped = -1  # the row the last iteration dropped
        try:
            rows.reduce(_reduced_hessian(H, Z), Z.T @ (_block_product(H, x_r) + q))
            for it in range(_MAX_ITER):
                w = rows.point()
                kept = rows.kept[:rows.k]
                p = Z @ w
                p += x_r
                p -= x
                step_scale = max(1.0, abs(x).max())
                if abs(p).max() <= 1e-12 * step_scale:
                    mu_w = rows.multipliers(w)
                    if mu_w.size == 0 or mu_w.min() >= -1e-11 * max(1.0, np.abs(mu_w).max()):
                        mu = np.zeros(h.size)
                        mu[kept] = np.maximum(mu_w, 0.0)
                        y = -A_plus.T @ (_block_product(H, x) + q
                                         + view.transpose_product(mu_w, kept))
                        self.x, self.Gx = x, Gx
                        return QPSolution(x=x, eq_duals=y, ineq_duals=mu, iterations=it)
                    j = int(np.argmin(mu_w))
                    dropped = kept[j]
                    rows.drop(j)
                    continue
                # step toward the EQP optimum, blocked by the nearest inactive row
                # that the step moves toward its limit; ratios within 1e-9 of a
                # full step saturate to one (the leftover violation is far inside
                # feasibility tolerance and re-adding the row at a degenerate
                # vertex would cycle); G x moves along with x
                alpha = 1.0
                Gp = view.product(p)
                if dropped >= 0 and Gp[dropped] > 1e-13 * step_scale:
                    # a step after a drop moves away from the dropped row's
                    # limit; one that moves toward it carries the rounding of
                    # an updated factor of an ill-conditioned M, so T is
                    # factored anew from M and the point taken again
                    dropped = -1
                    rows.reduce(rows.Hz, rows.grad)
                    continue
                dropped = -1
                blocking = (~rows.working & (Gp > 1e-13 * step_scale)).nonzero()[0]
                if blocking.size:
                    gp = Gp[blocking]
                    ratios = (h[blocking] - Gx[blocking]) / gp
                    best_ratio = float(ratios.min())
                    if best_ratio < 1.0 - 1e-9:
                        near = (ratios <= best_ratio + 1e-14 * max(1.0, best_ratio)).nonzero()[0]
                        alpha = max(best_ratio, 0.0)
                        rows.add(blocking[near[np.argmax(gp[near])]])
                x = x + alpha * p
                Gx = Gx + alpha * Gp
        except np.linalg.LinAlgError:
            # M is not positive definite where T is built or bordered
            raise SolverFailureError("active-set QP met a singular KKT system",
                                     best_iterate=x) from None
        raise SolverFailureError("active-set QP exceeded its iteration cap", best_iterate=x)


def solve_qp(H, q, A=None, b=None, G=None, h=None, x0=None):
    """Minimize 0.5 x'Hx + q'x subject to Ax = b and Gx <= h.

    ``x0`` must be feasible; H must be positive definite on the feasible
    subspace (callers add a small ridge to flat directions).  Returns the
    optimum with equality duals ``y`` (stationarity Hx + q + A'y + G'mu = 0)
    and nonnegative inequality duals ``mu``.

    A primal active-set method in the null space of the equalities, run
    from a fresh ``_ActiveSet`` on a ``_NullSpace`` of this call's A and G
    (a market solve runs one state on its structure's view for all its
    rounds).  One QR of A' gives an orthonormal basis Z of that null space
    and the minimum-norm solution x_r of Ax = b; every iterate is x_r + Z w.
    The working rows keep the factors ``_WorkingRows`` describes, which each
    add and drop update in O(nz^2), so an iteration solves nothing.
    Multipliers are formed only on stationary iterations, from L' mu = -B
    (reduced gradient) over the kept rows' basis B, and the equality duals
    once, at the optimum.  The point is optimal when no multiplier is below
    -1e-11 times max(1, largest |multiplier|); otherwise the most negative
    one's row drops.  A row that joins the working set is tested against
    the basis alone: it parks, sitting out of the solve with a zero
    multiplier, when its part orthogonal to the basis is at most
    1e-9 ||G_i||, since it then pins nothing the equalities and the kept
    rows do not.  A drop frees the parked rows untested: they are still at
    their limits, so one that a later step moves toward stops it at length
    zero and joins or parks there (Nocedal and Wright, *Numerical
    Optimization*, 2nd ed., 2006, section 16.5).  The starting working set
    is tested in index order.

    A start that violates a constraint by more than 1e-7 raises
    ``InvalidInputError``; dependent equality rows, the iteration cap and a
    reduced Hessian M that is not positive definite where T is built or
    bordered (H not positive definite on the working subspace) raise
    ``SolverFailureError`` carrying the current iterate.
    """
    n = H.shape[0]
    A = np.zeros((0, n)) if A is None else np.asarray(A, float)
    b = np.zeros(0) if b is None else np.asarray(b, float)
    G = np.zeros((0, n)) if G is None else np.asarray(G, float)
    h = np.zeros(0) if h is None else np.asarray(h, float)
    x = np.zeros(n) if x0 is None else np.asarray(x0, float).copy()
    if A.shape[0] and np.max(np.abs(A @ x - b)) > _START_TOL:
        raise InvalidInputError("solve_qp requires a feasible starting point (equalities)")
    Gx = G @ x
    if h.size and (h - Gx).min() < -_START_TOL:
        raise InvalidInputError("solve_qp requires a feasible starting point (inequalities)")
    state = _ActiveSet(_NullSpace(A, G), b, h)
    state.x, state.Gx = x, Gx
    state.start()
    return state.solve(np.asarray(H, float)[None], q)


@dataclass
class MarketQPResult:
    g: np.ndarray  # (J, T)
    u: np.ndarray  # (S, T)
    price: np.ndarray  # balance dual, $/MWh per interval
    periodicity_duals: np.ndarray  # (S,)
    maps: list  # RainflowDecomposition per storage at the solution
    objective: float
    kkt_residual: float
    iterations: int
    fallback_used: bool = False  # no fallback path remains; perfbench's tracing still reads it
    stationarity_pieces: list = field(default_factory=list)  # per storage: [(weight, map)]


@functools.lru_cache(maxsize=_STRUCTURES)
def _structure(J, S, T, periodic, soc_bounds, finite):
    """The template's constraints for one structure, read-only, as the
    ``_NullSpace`` that every market solve of that structure runs on.

    ``finite`` is the bytes of the boolean mask, per variable in x order,
    of its upper then its lower limit being finite.  A holds the balance
    rows, then the periodicity rows.  The inequality rows are signed picks
    (``_NullSpace``), never a matrix: the finite limits' rows in that
    order, +x then -x, then per storage unit and interval the SoC
    corridor's, +cumsum(u) then -cumsum(u).  A view lives while the cache
    or a ``_Problem`` holds it.
    """
    n = (J + S) * T
    A = np.tile(np.eye(T), J + S)
    if periodic:
        A = np.vstack([A, np.hstack([np.zeros((S, J * T)), np.kron(np.eye(S), np.ones(T))])])
    units = S if soc_bounds else 0
    rows = np.concatenate([np.frombuffer(finite, dtype=bool), np.ones(2 * units * T, bool)])
    pick = np.repeat(np.arange(n + units * T), 2)[rows]
    sign = np.tile([1.0, -1.0], n + units * T)[rows]
    view = _NullSpace(A, pick=pick, sign=sign, prefix=(units, T))
    for arr in vars(view).values():
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return view


class _Problem:
    """Constraint assembly for the dispatch template (variables g then u).

    ``A`` and the inequality rows come from ``_structure`` and are shared,
    read-only, by every problem of one structure; ``b`` and ``h`` are the
    problem's own.
    Demand that is not a finite vector of at least one interval, and a NaN
    limit, raise ``InvalidInputError``; an infinite limit is no limit.
    Limits that cross (a lower limit above its upper limit) raise
    ``InfeasibleError`` naming the first interval where any participant's do.
    Every starting point goes through ``start_from``, and every solve runs
    on an ``active_set`` placed at the last point it admitted; ``maps``
    gives the half-cycle maps of a storage dispatch.
    """

    def __init__(self, alphas, a_lin, betas, capacities, x0s, demand,
                 g_lo, g_hi, u_lo, u_hi, periodic, soc_bounds):
        self.alphas = np.asarray(alphas, float)
        self.a_lin = np.asarray(a_lin, float)
        self.betas = np.asarray(betas, float)
        self.capacities = np.asarray(capacities, float)
        self.x0s = np.asarray(x0s, float)
        self.demand = np.asarray(demand, float)
        if self.demand.ndim != 1 or not self.demand.size or not np.isfinite(self.demand).all():
            raise InvalidInputError("demand must be a finite vector of at least one interval")
        self.J, self.S, self.T = self.alphas.size, self.betas.size, self.demand.size
        self.g_lo, self.g_hi = self._tile(g_lo, self.J), self._tile(g_hi, self.J)
        self.u_lo, self.u_hi = self._tile(u_lo, self.S), self._tile(u_hi, self.S)
        lo, hi = np.vstack([self.g_lo, self.u_lo]), np.vstack([self.g_hi, self.u_hi])
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise InvalidInputError("a participant limit is NaN; an absent limit is +/-inf")
        crossed = np.flatnonzero(np.any(lo > hi, axis=0))
        if crossed.size:
            t = int(crossed[0])
            raise InfeasibleError(f"participant limits cross at interval {t}", interval=t)
        self.periodic = periodic
        self.soc_bounds = soc_bounds
        self.n = (self.J + self.S) * self.T
        self.admitted = (None, None)  # the last point ``admits`` accepted, with its G x
        self._assemble()

    def _tile(self, bound, count):
        if count == 0:
            return np.zeros((0, self.T))
        arr = np.asarray(bound, float)
        if arr.ndim == 0:
            return np.full((count, self.T), float(arr))
        if arr.ndim == 1 and arr.size == count:
            return np.repeat(arr[:, None], self.T, axis=1)
        if arr.shape == (count, self.T):
            return arr.copy()
        raise InvalidInputError("bound must be scalar, per-participant, or (count, T)")

    def g_slice(self, j):
        return slice(j * self.T, (j + 1) * self.T)

    def u_slice(self, s):
        return slice((self.J + s) * self.T, (self.J + s + 1) * self.T)

    def _assemble(self):
        # per variable in x order: its upper row, then its lower row, where finite
        rhs = np.stack([np.vstack([self.g_hi, self.u_hi]).ravel(),
                        -np.vstack([self.g_lo, self.u_lo]).ravel()], axis=1).ravel()
        keep = np.isfinite(rhs)
        self.structure = _structure(self.J, self.S, self.T, bool(self.periodic),
                                    bool(self.soc_bounds), keep.tobytes())
        self.A = self.structure.A
        self.b = self.demand.copy()
        if self.periodic:
            self.b = np.concatenate([self.demand, np.zeros(self.S)])
        self.h = rhs[keep]
        if self.soc_bounds:
            # per storage and interval: 0 <= x0 - cumsum(u)/E <= 1, as E * (x0, 1 - x0)
            corridor = np.stack([np.repeat(self.x0s * self.capacities, self.T),
                                 np.repeat((1.0 - self.x0s) * self.capacities, self.T)], axis=1)
            self.h = np.concatenate([self.h, corridor.ravel()])

    def hessian(self, maps, other=None, gamma=1.0):
        """Fixed-map Hessian, as the stack of its J + S diagonal (T, T)
        blocks, and linear cost; with ``other`` each storage block blends
        the two maps' curvatures with weight ``gamma`` on ``maps``."""
        H = np.zeros((self.J + self.S, self.T, self.T))
        H[:self.J] = np.eye(self.T) / self.alphas[:, None, None]
        q = np.concatenate([np.repeat(self.a_lin, self.T), np.zeros(self.S * self.T)])
        # With a single storage the balance coupling makes the reduced Hessian
        # positive definite on its own; two or more storages share flat
        # depth-preserving swap directions that need a tiny ridge to pin.
        ridge_rel = 1e-12 if self.S >= 2 else 0.0
        scale = (1.0 / self.alphas).max() if self.J else 1.0
        for s in range(self.S):
            N = maps[s].map
            M = N.T @ N
            if other is not None:
                Nb = other[s].map
                M = gamma * M + (1.0 - gamma) * (Nb.T @ Nb)
            Hu = M / self.betas[s]
            block_scale = max(scale, np.abs(Hu).max() if Hu.size else 0.0, 1e-12)
            H[self.J + s] = Hu + ridge_rel * block_scale * np.eye(self.T)
        return H, q

    def objective(self, g, u, maps):
        val = 0.0
        for j in range(self.J):
            val += 0.5 * np.dot(g[j], g[j]) / self.alphas[j] + self.a_lin[j] * g[j].sum()
        for s in range(self.S):
            nu = maps[s].map @ u[s]
            val += 0.5 * np.dot(nu, nu) / self.betas[s]
        return float(val)

    def maps(self, u):
        """The ``dispatch_map`` of each storage's dispatch in ``u`` (S, T)."""
        return [dispatch_map(u[s], self.capacities[s], self.x0s[s]) for s in range(self.S)]

    def split(self, x):
        k = self.J * self.T
        return x[:k].reshape(self.J, self.T).copy(), x[k:].reshape(self.S, self.T).copy()

    def storage_start(self):
        """Storage dispatch (S, T) at each box's point nearest 0, where the
        SoC corridor and periodicity allow; a box that excludes 0 by at most
        ``solve_qp``'s 1e-7 start tolerance counts as holding it.  A forward
        pass bounds the reachable prefix sums, raising ``InfeasibleError``
        where none is left or none nets to 0 (periodic); a backward pass
        then keeps each entry at its box point wherever the next sum allows.
        """
        S, T = self.S, self.T
        want = np.clip(0.0, self.u_lo, self.u_hi)
        want = np.where(np.abs(want) > _START_TOL, want, 0.0)
        room = np.stack([self.x0s - 1.0, self.x0s]) * self.capacities if self.soc_bounds \
            else np.array([[-np.inf], [np.inf]])
        if not want.any() and room[0].max(initial=0.0) <= 0.0 <= room[1].min(initial=0.0):
            return want  # 0 meets every box, the corridor and periodicity
        lo, hi = np.minimum(self.u_lo, want), np.maximum(self.u_hi, want)
        reach = np.zeros((2, S, T + 1))  # the least and the most prefix sum reachable
        for t in range(T):
            reach[0, :, t + 1] = np.maximum(reach[0, :, t] + lo[:, t], room[0])
            reach[1, :, t + 1] = np.minimum(reach[1, :, t] + hi[:, t], room[1])
            if np.any(reach[0, :, t + 1] > reach[1, :, t + 1] + _START_TOL):
                raise InfeasibleError(
                    f"participant limits and the SoC corridor leave no dispatch at interval {t}",
                    interval=t,
                )
        net = np.maximum(reach[0, :, T], -reach[1, :, T])
        if self.periodic and S and net.max() > _START_TOL:
            s = int(np.argmax(net))
            raise InfeasibleError(f"storage {s}'s limits admit no periodic dispatch "
                                  f"(net energy off by {net[s]:.6g} MWh)")
        level = np.clip(0.0 if self.periodic else want.sum(axis=1), *reach[:, :, T])
        u = np.empty((S, T))
        for t in range(T - 1, -1, -1):
            before = np.clip(level - want[:, t], np.maximum(reach[0, :, t], level - hi[:, t]),
                             np.minimum(reach[1, :, t], level - lo[:, t]))
            u[:, t], level = level - before, before
        return u

    def start_from(self, g, u):
        """The flat starting point for dispatch ``(g, u)``, shapes (J, T) and
        (S, T): the generators take up what is left of each interval's
        balance, in order and each within its limits.  Returns None where
        the point still breaks a constraint by more than ``solve_qp``'s
        start tolerance."""
        g = np.array(g, dtype=float)
        residual = self.demand - g.sum(axis=0) - u.sum(axis=0)
        for j in range(self.J):
            move = np.clip(residual, -(g[j] - self.g_lo[j]), self.g_hi[j] - g[j])
            g[j] += move
            residual -= move
        x = np.concatenate([g.ravel(), u.ravel()])
        return x if self.admits(x) else None

    def cold_start(self):
        """``start_from`` every participant at the point of its box nearest 0:
        the generators at ``np.clip(0, lo, hi)``, storage at ``storage_start``."""
        return self.start_from(np.clip(0.0, self.g_lo, self.g_hi), self.storage_start())

    def admits(self, x):
        """Whether ``x`` meets every constraint within ``solve_qp``'s start
        tolerance, so that ``solve_qp`` accepts it as a starting point; an
        admitted ``x`` is kept with its G x (``admitted``)."""
        if not np.all(np.abs(self.A @ x - self.b) <= _START_TOL):
            return False
        Gx = self.structure.product(x)
        if not np.all(Gx - self.h <= _START_TOL):
            return False
        self.admitted = x, Gx
        return True

    def active_set(self):
        """A fresh ``_ActiveSet`` on this problem, at the point ``admits``
        last accepted, so that a start there reads the G x formed once."""
        state = _ActiveSet(self.structure, self.b, self.h)
        state.x, state.Gx = self.admitted
        return state

    def elastic_start(self):
        """Phase 1, where the generators cannot take up the cold start's
        balance (for example a binding generator cap at the peak): one
        active-set solve of this template from its cold start, with a
        shortfall generator in [0, inf) at linear cost +1 and a surplus one
        in (-inf, 0] at -1 per interval, and curvature 1e-3 over the demand
        scale on every variable.  This exact l1 penalty drives both to 0
        wherever a dispatch exists; penalties left above 1e-6 of the demand
        scale raise ``InfeasibleError`` at the worst interval, naming every
        such interval and their total.
        """
        J, T = self.J, self.T
        scale = max(1.0, float(np.max(np.abs(self.demand))))
        zero, inf = np.zeros((1, T)), np.full((1, T), np.inf)
        phase = _Problem(np.full(J + 2, 1e3 * scale), np.r_[np.zeros(J), 1.0, -1.0],
                         self.betas, self.capacities, self.x0s, self.demand,
                         np.vstack([self.g_lo, zero, -inf]), np.vstack([self.g_hi, inf, zero]),
                         self.u_lo, self.u_hi, self.periodic, self.soc_bounds)
        x = phase.cold_start()
        if x is None:
            raise SolverFailureError("rounding at this limit scale breaks phase 1's start")
        state = phase.active_set()
        state.start()
        q = np.concatenate([np.repeat(phase.a_lin, T), np.zeros(self.S * T)])
        H = np.broadcast_to(np.eye(T) / (1e3 * scale), (J + 2 + self.S, T, T))
        g, u = phase.split(state.solve(H, q).x)
        penalty = g[J] + g[J + 1]
        short = np.flatnonzero(np.abs(penalty) > 1e-6 * scale)
        if short.size:
            worst = int(np.argmax(np.abs(penalty)))
            raise InfeasibleError(
                f"demand cannot be met within participant limits at intervals "
                f"{', '.join(map(str, short))}, off by {np.abs(penalty[short]).sum():.6g} MW "
                f"in all; the worst is interval {worst} (shortfall {penalty[worst]:.6g} MW)",
                interval=worst,
            )
        x = self.start_from(g[:J], u)
        if x is None:
            raise InfeasibleError("participant limits leave no dispatch within the start tolerance")
        return x


def certified(residual):
    """Whether a KKT residual meets the fixed certificate ``_KKT_TOL``."""
    return residual <= _KKT_TOL


def idle_dispatch(u):
    """Storage dispatch ``u``, one unit's (T,) or several units' (S, T), with
    the rounding-level entries a solve leaves, |u_s| <= 1e-9 max(1, max |u_s|)
    per unit, set idle."""
    size = np.abs(u)
    scale = np.max(size, axis=-1, keepdims=True, initial=1.0)
    return np.where(size <= 1e-9 * scale, 0.0, u)


def dispatch_map(u_s, capacity, x0):
    """The half-cycle map of one storage's dispatch that every certificate
    reads, with its rounding-level entries idle (``idle_dispatch``)."""
    return rainflow_map(idle_dispatch(u_s), capacity, x0)


def blended_stationarity_gap(target, pieces, u_s, beta):
    """Distance from ``target`` to the piece-gradient hull {sum_k w_k N_k'N_k u / beta}.

    ``pieces`` holds one (weight, map) pair, or two at a kink; for two pieces
    the weight is refit by least squares and clamped to [0, 1], since any
    convex combination of adjacent smooth pieces is a valid subgradient.
    """
    vecs = [(N.T @ (N @ u_s)) / beta for _, N in pieces]
    if len(vecs) == 1:
        return target - vecs[0]
    a, bvec = vecs
    diff = a - bvec
    denom = float(diff @ diff)
    gamma = float(np.clip((target - bvec) @ diff / denom, 0.0, 1.0)) if denom > 0 else 0.5
    return target - (gamma * a + (1 - gamma) * bvec)


def market_kkt_residual(prob, g, u, price, per_duals, maps, mu, pieces=None):
    """Relative residual of the true stationarity/feasibility system.

    Components are normalized by max(1, scale of the terms entering them) so
    the figure is meaningful across price magnitudes.  ``pieces`` optionally
    lists adjacent smooth pieces per storage for kink-seated optima.
    """
    res = []
    d_scale = max(1.0, float(np.max(np.abs(prob.demand))) if prob.demand.size else 1.0)
    balance = (g.sum(axis=0) if prob.J else 0.0) + (u.sum(axis=0) if prob.S else 0.0) - prob.demand
    res.append(np.max(np.abs(balance)) / d_scale if prob.T else 0.0)
    lam_scale = max(1.0, float(np.max(np.abs(price))))
    grad_extra = prob.structure.transpose_product(mu)  # box/soc dual contributions per variable
    for j in range(prob.J):
        stat = g[j] / prob.alphas[j] + prob.a_lin[j] - price + grad_extra[prob.g_slice(j)]
        res.append(np.max(np.abs(stat)) / lam_scale)
    for s in range(prob.S):
        target = price - grad_extra[prob.u_slice(s)]
        if prob.periodic:
            target = target - per_duals[s]
        piece_list = pieces[s] if pieces else [(1.0, maps[s].map)]
        gap = blended_stationarity_gap(target, piece_list, u[s], prob.betas[s])
        res.append(np.max(np.abs(gap)) / lam_scale)
        if prob.periodic:
            res.append(abs(u[s].sum()) / max(1.0, float(np.max(np.abs(u[s])))))
    if prob.h.size:
        viol = prob.structure.product(np.concatenate([g.ravel(), u.ravel()]))
        res.append(max(0.0, float(np.max(viol - prob.h))) / d_scale)
    return float(max(res)) if res else 0.0


def _evaluate(prob, sol, iterations, pieces=None):
    """One fixed-map QP solution with its maps and true objective.  Its
    ``kkt_residual`` stays NaN until ``_certify`` computes it, which only a
    result that may be returned needs."""
    g, u = prob.split(sol.x)
    maps = prob.maps(u)
    price = -sol.eq_duals[: prob.T]
    per_duals = sol.eq_duals[prob.T:] if prob.periodic else np.zeros(prob.S)
    return MarketQPResult(g=g, u=u, price=price, periodicity_duals=per_duals, maps=maps,
                          objective=prob.objective(g, u, maps), kkt_residual=math.nan,
                          iterations=iterations,
                          stationarity_pieces=pieces or [[(1.0, m.map)] for m in maps])


def _certify(prob, res, mu):
    """Whether ``res`` meets the certificate; its ``kkt_residual`` is
    computed the first time, from the QP's inequality duals ``mu``."""
    if math.isnan(res.kkt_residual):
        res.kkt_residual = market_kkt_residual(prob, res.g, res.u, res.price,
                                               res.periodicity_duals, res.maps, mu,
                                               res.stationarity_pieces)
    return certified(res.kkt_residual)


def _kink_bisection(prob, state, maps_a, maps_b, iterations):
    """Resolve a two-map assignment cycle by bisecting the subgradient weight.

    At a kink-seated optimum the stationarity holds with a convex combination
    of the two adjacent pieces' curvatures.  Solving the blended QP and
    bisecting the weight to the region boundary lands on that point exactly.
    ``state`` stands at the optimum under ``maps_a`` alone (weight 1), whose
    own maps are ``maps_b``; it starts there once, and each probe solves from
    a fork of it, since only the Hessian depends on the weight.  Returns
    the (result, QP solution) pair, or None where both endpoints lie in
    one region; the result counts ``iterations`` plus every probe's.
    """
    state.start()
    probe_iterations = 0

    def solve_at(gamma):
        nonlocal probe_iterations
        sol = state.fork().solve(*prob.hessian(maps_a, maps_b, gamma))
        probe_iterations += sol.iterations
        sig = tuple(m.signature() for m in prob.maps(prob.split(sol.x)[1]))
        return sol, sig

    sig_ref = tuple(m.signature() for m in maps_b)
    _, sig_lo = solve_at(0.0)
    if sig_ref == sig_lo:
        return None  # both endpoints in one region: not a two-piece kink
    lo, hi = 0.0, 1.0
    for _ in range(50):  # halving [0, 1] is exact: the bracket ends 2**-50 wide
        mid = 0.5 * (lo + hi)
        sol, sig = solve_at(mid)
        if sig == sig_ref:
            hi = mid
        else:
            lo = mid
    gamma = 0.5 * (lo + hi)
    pieces = [[(gamma, maps_a[s].map), (1.0 - gamma, maps_b[s].map)] for s in range(prob.S)]
    return _evaluate(prob, sol, iterations + probe_iterations, pieces), sol


def solve_market_qp(alphas, a_lin, betas, capacities, x0s, demand,
                    g_lo, g_hi, u_lo, u_hi, periodic=True, soc_bounds=False, start=None):
    """Alternating fixed-map solve of the dispatch template (see module doc).

    ``start`` optionally seeds the solve with a dispatch pair ``(g, u)`` of
    shapes (J, T) and (S, T); other shapes raise ``InvalidInputError``.  The
    generators repair the seed's balance within their limits
    (``_Problem.start_from``).  A seed that still breaks a limit or the SoC
    corridor is ignored, and a seeded solve that fails runs again without
    it.  Without a usable seed the solve starts from the cold start
    (``_Problem.storage_start``), or from phase 1 where the generators
    cannot take up its balance (``_Problem.elastic_start``); a template with
    no feasible point raises ``InfeasibleError`` in either.  The first
    half-cycle maps come from the starting point's storage dispatch, so a
    start near the optimum carries its maps and its active rows with it.
    """
    prob = _Problem(alphas, a_lin, betas, capacities, x0s, demand,
                    g_lo, g_hi, u_lo, u_hi, periodic, soc_bounds)
    if start is not None:
        try:
            g, u = (np.asarray(part, dtype=float) for part in start)
        except (TypeError, ValueError):
            g = u = np.zeros(0)
        if g.shape != (prob.J, prob.T) or u.shape != (prob.S, prob.T):
            raise InvalidInputError(f"start must be a (g, u) pair of shapes ({prob.J}, {prob.T}) "
                                    f"and ({prob.S}, {prob.T})")
        x = prob.start_from(g, u)
        if x is not None:
            try:
                return _alternate(prob, x)
            except SolverFailureError:
                pass  # the seed's maps led to no certified point; start cold
    x = prob.cold_start()
    if x is None:
        x = prob.elastic_start()
    return _alternate(prob, x)


def _alternate(prob, x):
    """Alternate fixed-map QP solves from the feasible point ``x``, every
    round starting from the active-set state the last one ended in."""
    state = prob.active_set()
    maps = prob.maps(prob.split(x)[1])
    sig = tuple(m.signature() for m in maps)
    seen = set()
    best = None  # the (result, QP solution) of least objective, for the failure
    total_iters = 0
    for _ in range(_MAX_ROUNDS):
        state.start()
        sol = state.solve(*prob.hessian(maps))
        total_iters += sol.iterations
        res = _evaluate(prob, sol, total_iters)
        if best is None or res.objective < best[0].objective:
            best = res, sol
        res_sig = tuple(m.signature() for m in res.maps)
        if res_sig == sig:
            if _certify(prob, res, sol.ineq_duals):
                return res
            break  # assignment is stable but the residual is stuck
        if res_sig in seen:
            # assignment cycling: the optimum sits on a two-piece kink
            kink = _kink_bisection(prob, state, maps, res.maps, total_iters)
            if kink is not None:
                if _certify(prob, kink[0], kink[1].ineq_duals):
                    return kink[0]
                if kink[0].objective < best[0].objective:
                    best = kink
            break
        seen.update((sig, res_sig))
        maps, sig = res.maps, res_sig

    res, sol = best
    _certify(prob, res, sol.ineq_duals)
    raise SolverFailureError(
        "dispatch solve did not reach tolerance within its alternation rounds",
        best_iterate=(res.g, res.u), residual=res.kkt_residual,
    )
