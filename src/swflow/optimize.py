"""Energy minimization: Armijo backtracking descent with optional conjugate
directions, periodic gauge re-fixing, and trajectory diagnostics.

Directions live in the same (da, dphi) cotangent shape as the gradient, and
descent is measured by the pairing <g, d> = <g.da, d.da> + 2 Re<g.dphi, d.dphi>
under which the gradient is exact. The recorded trajectory carries the
per-iterate quantities the convergence theory is about: energy, gradient
norm, sup|phi|, the excess diagnostics of the maximum principle, and the
gauge distance between successive recorded iterates (whose decay is the
Cauchy signature of a convergent minimizing sequence).

Each line search starts from (g, e0, floor) of its iterate, which the loop
holds (a direct call builds all three from one evaluation). The floor sums the
step polynomial of the energy without |grad phi|^2 from the F+ of that
evaluation, which is then dropped, and the search skips, unbuilt, each trial
whose polynomial less a rounding margin exceeds e0 + c t <g, d>: its computed
energy would too, so trajectories are bit-identical to full evaluation (derived
in functional). The search returns (t, evaluation) of the accepted trial; the
next gradient and each record read grad phi from that evaluation instead of
rebuilding it (only the record after a line-search failure rebuilds), and
the loop keeps the last recorded iterate's normal form for the next record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Configuration
from .functional import Gradient, _evaluate, _line_floor, excess_report, gradient
from .gaugefix import _normal_form_distance, full_gauge_fix
from .lattice import l2_inner, linf_norm, require_int, require_real

MAX_BACKTRACKS = 60


class NonDescentDirectionError(ValueError):
    """Raised when a search direction does not pair negatively with the gradient."""


class LineSearchFailure(RuntimeError):
    """Raised when Armijo backtracking exhausts its budget without acceptance."""


@dataclass(frozen=True)
class MinimizeParams:
    max_iters: int = 200
    grad_tol: float = 1e-6
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    initial_step: float = 1.0
    method: str = "descent"
    gaugefix_every: int = 10
    record_every: int = 1

    def __post_init__(self):
        # gaugefix_every 0 disables the periodic refix
        floors = {"max_iters": 0, "gaugefix_every": 0, "record_every": 1}
        for name, low in floors.items():
            value = require_int(getattr(self, name), name)
            if value < low:
                raise ValueError(f"{name} must be an integer >= {low}")
            object.__setattr__(self, name, value)
        # real numbers only: a string, or an int no double holds, fails here and not mid-run
        bounds = {"grad_tol": np.inf, "armijo_c": 1, "backtrack": 1, "initial_step": np.inf}
        for name, high in bounds.items():
            value = require_real(getattr(self, name), name)
            if not 0 < value < high:
                raise ValueError(f"{name} must be a number in (0, {high})")
            object.__setattr__(self, name, value)
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


def descent_pairing(g: Gradient, direction: Gradient) -> float:
    """Directional derivative of the energy along direction, at gradient g."""
    lat = g.lattice
    pair_a = l2_inner(lat, g.da, direction.da)
    pair_phi = l2_inner(lat, g.dphi, direction.dphi)
    return float(np.real(pair_a) + 2.0 * np.real(pair_phi))


def line_search(cfg: Configuration, direction: Gradient, params: MinimizeParams, start=None):
    """Backtrack from initial_step until the Armijo inequality holds.

    Accepts the first t with energy(cfg + t d) <= energy(cfg) + armijo_c t <g, d>
    and returns (t, evaluation): evaluation.cfg is the trial, evaluation.energy
    its energy, and evaluation.gradient() its gradient. start, when the caller
    holds it, is (gradient(cfg), energy_weitzenbock(cfg), _line_floor(cfg,
    direction, F+ of cfg's evaluation)); otherwise one evaluation of cfg gives all three.
    Raises NonDescentDirectionError if <g, d> >= 0 (zero direction included)
    and LineSearchFailure after MAX_BACKTRACKS rejected shrinkages.
    """
    if start is None:
        ev = _evaluate(cfg)
        with np.errstate(over="ignore", invalid="ignore"):  # as for the trials below
            floor = _line_floor(cfg, direction, ev.fplus)
        start = ev.gradient(), ev.energy, floor
        del ev  # cfg's pieces must not outlive into the trials
    g, e0, floor = start
    pair = descent_pairing(g, direction)
    if not pair < 0.0:
        raise NonDescentDirectionError(f"direction pairing {pair:.3e} is not negative")
    t = params.initial_step
    # wild trial steps may overflow the quartic term; the Armijo comparison is
    # False for nan and +inf energies and bounds, so the step backtracks, but
    # -inf passes it: minimize refuses an accepted trial that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_BACKTRACKS + 1):
            thr = e0 + params.armijo_c * t * pair
            if not floor(t) > thr:
                ev = _evaluate(cfg._trial(cfg.gauge.a + t * direction.da, cfg.phi + t * direction.dphi))
                if ev.energy <= thr:
                    return t, ev
                del ev  # a rejected trial's pieces must not outlive it into the next one
            t *= params.backtrack
    raise LineSearchFailure(f"no Armijo step after {MAX_BACKTRACKS} backtracks")


def _record(it: int, cfg: Configuration, energy: float, grad_norm: float, rep,
            prev_fixed: Configuration | None) -> tuple[TrajectoryRecord, Configuration]:
    """The record of iterate it, whose ExcessReport is rep, and cfg's normal form;
    prev_fixed is the normal form of the previous recorded iterate, so each
    record fixes one iterate."""
    fixed, _ = full_gauge_fix(cfg)
    dist = 0.0 if prev_fixed is None else _normal_form_distance(prev_fixed, fixed)
    # rep carries the threshold, excess_measure, radial_excess and eta_norm fields
    return TrajectoryRecord(iter=it, energy=energy, grad_norm=grad_norm, **vars(rep),
                            phi_linf=linf_norm(cfg.lattice, cfg.phi), gauge_step_distance=dist), fixed


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


def minimize(cfg0: Configuration, params: MinimizeParams) -> Trajectory:
    """Descend the energy from cfg0 until the gradient norm meets grad_tol.

    method "descent" follows the negative gradient; "conjugate" uses
    Polak-Ribiere directions (beta clipped at zero) with a restart to steepest
    descent whenever the update loses descent or the iterate was re-fixed.
    Gauge re-fixing every gaugefix_every iterations (0 = never) keeps the run
    inside the normal-form slice without touching the energy. Deterministic.
    Iterate 0 and the final iterate are always recorded.
    """
    cfg, records, prev_fixed, it = cfg0, [], None, 0
    with np.errstate(over="ignore", invalid="ignore"):
        g = gradient(cfg)
        held = _evaluate(cfg)  # its pieces feed record 0 and the first line search
        energy, grad_norm = held.energy, g.norm()
    _require_finite(it, energy, grad_norm)
    direction: Gradient | None = None
    prev_g: Gradient | None = None

    while True:
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

        if params.method == "conjugate" and direction is not None:
            beta = max(0.0, descent_pairing(g, Gradient(
                g.lattice, g.da - prev_g.da, g.dphi - prev_g.dphi)) / prev_norm**2)
            candidate = Gradient(
                g.lattice, -g.da + beta * direction.da, -g.dphi + beta * direction.dphi
            )
            if descent_pairing(g, candidate) < 0.0:
                direction = candidate
            else:
                direction = g.scaled(-1.0)
        else:
            direction = g.scaled(-1.0)
        candidate = prev_g = None  # both dead until the next gradient: not into the search

        with np.errstate(over="ignore", invalid="ignore"):
            floor, fplus = _line_floor(cfg, direction, fplus), None  # else F+ outlives into the trials
        try:
            held = line_search(cfg, direction, params, (g, energy, floor))[1]
        except LineSearchFailure:
            reason = "line_search_failure"
            if it % params.record_every:  # the final iterate's evaluation is gone: rebuild
                records.append(_record(it, cfg, energy, grad_norm, excess_report(cfg), prev_fixed)[0])
            break
        cfg, energy = held.cfg, held.energy
        it += 1
        _require_finite(it, energy)  # before a refix, which must not see it

        with np.errstate(over="ignore", invalid="ignore"):
            if params.gaugefix_every > 0 and it % params.gaugefix_every == 0:
                held = None  # else the pre-refix iterate and its pieces outlive the refix
                held = _refix_gauge(cfg, energy)
                cfg, energy = held.cfg, held.energy
                direction = None  # conjugate memory is stale off the old slice

            prev_g = g if direction is not None else None  # stale off the old slice too
            g, prev_norm = held.gradient(), grad_norm
            grad_norm = g.norm()
        _require_finite(it, energy, grad_norm)

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
