"""Energy minimization: Armijo backtracking descent with optional conjugate
directions, periodic gauge re-fixing, and trajectory diagnostics.

Directions are Gradients, the (da, dphi) tangent type, and descent is
measured by its pairing g.dot(d) = <g.da, d.da> + 2 Re<g.dphi, d.dphi> under
which the gradient is exact. The recorded trajectory carries the
per-iterate quantities the convergence theory is about: energy, gradient
norm, sup|phi|, the excess diagnostics of the maximum principle, and the
gauge distance between successive recorded iterates (whose decay is the
Cauchy signature of a convergent minimizing sequence).

Each line search starts from (e0, slope, floor) of its iterate, which the loop
holds, slope = g.dot(d) being its one pairing with the direction. The floor
sums the step polynomial of the energy without |grad phi|^2 from the iterate's
F+, which is then dropped, and the search skips, unbuilt, each trial whose
polynomial less a rounding margin exceeds e0 + c t slope: its computed energy
would too, so trajectories are bit-identical to full evaluation (derived in
functional). The search returns (t, evaluation) of the accepted trial, so each
iterate is evaluated once (iterate 0 on entry, a refixed one by its refix): one
pass of the loop reads its gradient, gradient(cfg, evaluation), and its
record's grad phi from that evaluation (only the record after a line-search
failure rebuilds).

minimize and line_search each run under one numpy error policy, overflow and
invalid ignored: an overflowing trial's NaN or +inf fails the Armijo test and
backtracks, but -inf passes it, so _require_finite judges each accepted iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fields import Configuration
from .functional import Gradient, _evaluate, _line_floor, excess_report, gradient
from .gaugefix import _normal_form_distance, full_gauge_fix
from .lattice import require_int, require_real


class NonDescentDirectionError(ValueError):
    """Raised when a search direction does not pair negatively with the gradient."""


class LineSearchFailure(RuntimeError):
    """Raised when Armijo backtracking exhausts its budget without acceptance."""


@dataclass(frozen=True)
class MinimizeParams:
    """The settable run parameters. The line search's constants are class attributes
    no run sets: c1 = 1e-4, halving from t = 1 at most 60 times."""

    armijo_c: ClassVar[float] = 1e-4
    backtrack: ClassVar[float] = 0.5
    initial_step: ClassVar[float] = 1.0
    max_backtracks: ClassVar[int] = 60
    max_iters: int = 200
    grad_tol: float = 1e-6
    method: str = "descent"
    gaugefix_every: int = 10
    record_every: int = 1

    def __post_init__(self):
        # gaugefix_every 0 disables the periodic refix
        for name, low in {"max_iters": 0, "gaugefix_every": 0, "record_every": 1}.items():
            value = require_int(getattr(self, name), name)
            if value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
            object.__setattr__(self, name, value)
        # a real number only: a string, or an int no double holds, fails here and not mid-run
        object.__setattr__(self, "grad_tol", require_real(self.grad_tol, "grad_tol"))
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be a number in (0, inf)")
        if self.method not in ("descent", "conjugate"):
            raise ValueError(f"method must be descent or conjugate, got {self.method!r}")


@dataclass(frozen=True)
class TrajectoryRecord:
    iter: int
    energy: float
    grad_norm: float
    phi_linf: float
    threshold: float
    excess_measure: float
    radial_excess: float
    eta_norm: float
    gauge_step_distance: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded iterates, the final configuration, and why the run stopped.

    reason is one of "converged" (gradient norm <= grad_tol), "max_iters",
    or "line_search_failure". Energies along records are non-increasing.
    """

    records: tuple[TrajectoryRecord, ...]
    final: Configuration
    reason: str


@np.errstate(over="ignore", invalid="ignore")
def line_search(cfg: Configuration, direction: Gradient, params: MinimizeParams, start):
    """Backtrack from initial_step until the Armijo inequality holds, under the
    search's one error policy (module docstring).

    Accepts the first t with energy(cfg + t d) <= energy(cfg) + armijo_c t slope
    and returns (t, evaluation): evaluation.cfg is the trial, evaluation.energy its
    energy, and gradient(evaluation.cfg, evaluation) its gradient. start is (e0 =
    energy_weitzenbock(cfg), slope = gradient(cfg).dot(direction), floor): floor(t)
    is any lower bound of the energy _evaluate computes at trial t, or NaN where it
    cannot tell, and only a trial whose floor exceeds the threshold goes unbuilt (no
    floor: lambda t: math.nan). Raises NonDescentDirectionError if slope >= 0 (zero
    direction included) and LineSearchFailure after max_backtracks rejected shrinkages.
    """
    e0, slope, floor = start
    if not slope < 0.0:
        raise NonDescentDirectionError(f"direction pairing {slope:.3e} is not negative")
    t = params.initial_step
    for _ in range(params.max_backtracks + 1):
        thr = e0 + params.armijo_c * t * slope
        if not floor(t) > thr:
            ev = _evaluate(cfg._trial(cfg.gauge.a + t * direction.da, cfg.phi + t * direction.dphi))
            if ev.energy <= thr:
                return t, ev
            del ev  # a rejected trial's pieces must not outlive it into the next one
        t *= params.backtrack
    raise LineSearchFailure(f"no Armijo step after {params.max_backtracks} backtracks")


def _record(it: int, cfg: Configuration, energy: float, grad_norm: float, rep,
            prev_fixed: Configuration | None) -> tuple[TrajectoryRecord, Configuration]:
    """The record of iterate it, whose ExcessReport is rep, and cfg's normal form;
    prev_fixed is the normal form of the previous recorded iterate, so each
    record fixes one iterate."""
    fixed, _ = full_gauge_fix(cfg)
    dist = 0.0 if prev_fixed is None else _normal_form_distance(prev_fixed, fixed)
    # rep carries the phi_linf, threshold, excess_measure, radial_excess and eta_norm fields
    return TrajectoryRecord(iter=it, energy=energy, grad_norm=grad_norm, **vars(rep),
                            gauge_step_distance=dist), fixed


def _refix_gauge(cfg: Configuration, before: float):
    """The evaluation of cfg's normal form, whose energy must not drift from before."""
    ev = _evaluate(full_gauge_fix(cfg)[0])
    if abs(ev.energy - before) > 1e-10 * max(abs(before), 1.0):
        raise RuntimeError(f"gauge fixing drifted the energy from {before!r} to {ev.energy!r}")
    return ev


def _require_finite(it: int, energy: float, grad_norm: float = 0.0):
    """Refuse iterate it if its energy or gradient norm overflowed: no step from it can be trusted."""
    for name, value in (("energy", energy), ("gradient norm", grad_norm)):
        if not np.isfinite(value):
            raise ValueError(f"iterate {it}: {name} {value!r} is not finite")


@np.errstate(over="ignore", invalid="ignore")
def minimize(cfg0: Configuration, params: MinimizeParams) -> Trajectory:
    """Descend the energy from cfg0 until the gradient norm meets grad_tol.

    method "descent" follows the negative gradient; "conjugate" uses
    Polak-Ribiere directions (beta clipped at zero) with a restart to steepest
    descent whenever the update loses descent or the iterate was re-fixed.
    Gauge re-fixing every gaugefix_every iterations (0 = never) keeps the run
    inside the normal-form slice without touching the energy. Deterministic.
    Iterate 0 and the final iterate are always recorded.
    """
    records, prev_fixed, it = [], None, 0
    held = _evaluate(cfg0)  # each iterate's pieces feed its gradient, record and line search
    direction = g = grad_norm = None  # the last direction and gradient, Gradients or None

    while True:
        cfg, energy = held.cfg, held.energy
        prev_g = g if direction is not None else None  # stale off the old slice after a refix
        g, prev_norm = gradient(cfg, held), grad_norm
        grad_norm = g.norm()
        _require_finite(it, energy, grad_norm)

        fplus, done = held.fplus, grad_norm <= params.grad_tol or it >= params.max_iters
        if done or it % params.record_every == 0:
            grad, held = held.grad, None  # U must not outlive into the record
            rep = excess_report(cfg, grad)
            grad = None  # nor grad phi into the record's gauge fix
            record, prev_fixed = _record(it, cfg, energy, grad_norm, rep, prev_fixed)
            records.append(record)
        held = None  # held pieces but F+ must not outlive this iterate into the next search
        if done:
            reason = "converged" if grad_norm <= params.grad_tol else "max_iters"
            break

        slope = 0.0
        if params.method == "conjugate" and direction is not None:
            beta = max(0.0, g.dot(g - prev_g) / prev_norm**2)
            direction = beta * direction - g
            slope = g.dot(direction)
        if not slope < 0.0:  # the update lost descent (or there was none)
            direction = -1.0 * g
            slope = g.dot(direction)
        prev_g = None  # dead until the next gradient: not into the search

        floor, fplus = _line_floor(cfg, direction, fplus), None  # else F+ outlives into the trials
        try:
            held = line_search(cfg, direction, params, (energy, slope, floor))[1]
        except LineSearchFailure:
            reason = "line_search_failure"
            if it % params.record_every:  # the final iterate's evaluation is gone: rebuild
                records.append(_record(it, cfg, energy, grad_norm, excess_report(cfg), prev_fixed)[0])
            break
        cfg, energy = held.cfg, held.energy
        it += 1
        _require_finite(it, energy)  # before a refix, which must not see it

        if params.gaugefix_every > 0 and it % params.gaugefix_every == 0:
            held = None  # else the pre-refix iterate and its pieces outlive the refix
            held = _refix_gauge(cfg, energy)
            direction = None  # conjugate memory is stale off the old slice

    return Trajectory(tuple(records), cfg, reason)


@dataclass(frozen=True)
class PSDiagnostics:
    """Cauchy-style summary of a recorded minimizing sequence.

    quartile_sums: sums of the successive gauge step distances over four
    contiguous blocks. summable: True when the block sums are non-increasing,
    the discrete signature of a summable (Cauchy) step sequence.
    contraction_ratio: first block sum over last (inf when the last is zero).
    """

    quartile_sums: tuple[float, float, float, float]
    summable: bool
    contraction_ratio: float


def ps_diagnostics(traj: Trajectory) -> PSDiagnostics:
    """Summarize step-distance decay along a trajectory (>= 5 records, so no block is empty)."""
    if len(traj.records) < 5:
        raise ValueError("need at least 5 recorded iterates (4 steps) to diagnose")
    dists = np.array([r.gauge_step_distance for r in traj.records[1:]])
    sums = tuple(float(block.sum()) for block in np.array_split(dists, 4))
    summable = all(b <= a for a, b in zip(sums, sums[1:]))
    ratio = sums[0] / sums[-1] if sums[-1] > 0.0 else np.inf
    return PSDiagnostics(quartile_sums=sums, summable=summable, contraction_ratio=float(ratio))
