"""Span tracing at swflow's module boundaries, from outside the package.

Tracer.install replaces every public function of every swflow module by a
wrapper, once per module attribute the function is reachable through, so a
call made by `swflow.optimize` through its own global `gradient` and a call
made by `swflow.functional` to the same function are each counted once and
tagged with the module that made them (`via`). Spans are kept in memory as
(name, via, start, end, parent, sites, extra) and written out at the end.

Only attribute lookups made at call time are seen: the benchmark's own code
calls through `swflow.<name>` and `swflow.cli.main` for that reason.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

MODULES = ("lattice", "clifford", "fields", "operators", "functional",
           "gaugefix", "optimize", "checks", "cli")

# index helpers whose own cost is close to a wrapper's, so tracing them
# would mostly measure the tracer
UNTRACED = {"lattice.shift", "lattice.check_scalar", "lattice.check_oneform",
            "lattice.check_twoform"}

# functions whose ns_per_site the layer table reports
NS_PER_SITE = (
    "functional.energy_weitzenbock", "functional.gradient",
    "functional.energy_first_order", "functional.excess_report",
    "operators.link_phases", "operators.covariant_diff", "operators.curvature",
    "operators.dirac", "gaugefix.full_gauge_fix", "lattice.poisson_solve",
    "lattice.codiff2", "lattice.selfdual_project", "clifford.quadratic_form",
)
CALLS = (
    "functional.energy_weitzenbock", "functional.gradient",
    "operators.link_phases", "operators.covariant_diff",
    "fields.check_flux_matrix", "fields.build_flux_background",
    "gaugefix.full_gauge_fix", "lattice.poisson_solve", "clifford.clifford_mult",
)
TOTAL_S = (
    "fields.build_flux_background", "fields.apply_gauge", "fields.save_configuration",
    "gaugefix.gauge_distance", "gaugefix.hodge_constants", "lattice.sobolev12_norm",
    "checks.run_checks",
)
UNITS = {
    "optimize.iterations": "count", "optimize.ms_per_iter": "ms",
    "optimize.line_search_s": "s", "optimize.trial_energies": "count",
    "optimize.backtracks": "count", "optimize.trial_yield": "ratio",
    "optimize.refix_s": "s", "optimize.record_s": "s",
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.ns_per_site": "ns" for name in NS_PER_SITE},
    **{f"{name}.s": "s" for name in TOTAL_S},
    "gaugefix.hodge_constants.rss_growth_mb": "MB",
    "cli.main.self_s": "s",
    "trace.coverage": "ratio",
}


def _sites_of(value) -> int | None:
    """Lattice sites a call works on, read from its first sized argument."""
    lat = getattr(value, "lattice", None)
    if lat is not None:
        return lat.nsites
    if hasattr(value, "nsites") and hasattr(value, "dims"):
        return value.nsites
    if isinstance(value, np.ndarray) and value.ndim >= 4:
        return int(np.prod(value.shape[:4]))
    return None


def _call_sites(args) -> int | None:
    for value in args:
        sites = _sites_of(value)
        if sites is not None:
            return sites
    # fiberwise algebra on a site array: every axis but the fiber is a site
    for value in args:
        if isinstance(value, np.ndarray) and value.ndim >= 1:
            return max(1, int(np.prod(value.shape[:-1])))
    return None


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _minimize_extra(args, kwargs, result, state):
    return result.records[-1].iter


def _line_search_extra(args, kwargs, result, state):
    """Backtracks of one accepted step: log(initial_step / t) / log(1 / backtrack)."""
    params = kwargs.get("params", args[2] if len(args) > 2 else None)
    t = result[0]
    return round(math.log(params.initial_step / t) / math.log(1.0 / params.backtrack))


def _hodge_extra(args, kwargs, result, state):
    return _maxrss_mb() - state


EXTRAS = {
    "optimize.minimize": (None, _minimize_extra),
    "optimize.line_search": (None, _line_search_extra),
    "gaugefix.hodge_constants": (_maxrss_mb, _hodge_extra),
}


class Tracer:
    """Installs span-recording wrappers into the swflow modules."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, via: str, fn):
        spans, stack = self.spans, self._stack
        pre, post = EXTRAS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            state = pre() if pre else None
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = post(args, kwargs, result, state) if post and result is not None else None
                spans[idx] = (name, via, t0, t1, parent, _call_sites(args), extra)

        return traced

    def install(self):
        """Wrap every public swflow function at every module that holds it."""
        import swflow
        import swflow.cli  # noqa: F401  (the package does not import the CLI)

        modules = {m: sys.modules[f"swflow.{m}"] for m in MODULES}
        originals = {}
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                owner = getattr(obj, "__module__", "") or ""
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if not owner.startswith("swflow."):
                    continue
                name = f"{owner[len('swflow.'):]}.{attr}"
                if getattr(obj, "__name__", attr) == attr and name not in UNTRACED:
                    originals[id(obj)] = name
        for via, mod in [("swflow", swflow)] + list(modules.items()):
            for attr, obj in list(vars(mod).items()):
                name = originals.get(id(obj))
                if name is None:
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(name, via, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write(self, path: str):
        with open(path, "w") as fh:
            for j, (name, via, t0, t1, parent, sites, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": j, "name": name, "via": via, "start": t0,
                                     "end": t1, "parent": parent, "sites": sites}))
                fh.write("\n")


def summarize(spans: list, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time share of each layer.

    Self time is a span's duration minus that of its direct children, which
    run inside it one after another.
    """
    dur = np.array([s[3] - s[2] for s in spans], dtype=float)
    parents = np.array([s[4] for s in spans], dtype=int)
    has_parent = parents >= 0
    child = np.zeros(len(spans))
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_time = dur - child

    by_name: dict[str, list[int]] = {}
    for j, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(j)

    def idx(name):
        return by_name.get(name, [])

    def total(name, via=None):
        return float(sum(dur[j] for j in idx(name) if via is None or spans[j][1] == via))

    def ns_per_site(name):
        vals = [dur[j] * 1e9 / spans[j][5] for j in idx(name) if spans[j][5]]
        return float(statistics.median(vals)) if vals else 0.0

    iterations = sum(spans[j][6] or 0 for j in idx("optimize.minimize"))
    searches = idx("optimize.line_search")
    accepted = [spans[j][6] for j in searches if spans[j][6] is not None]
    search_set = set(searches)
    trials = sum(1 for j in idx("functional.energy_weitzenbock") if spans[j][4] in search_set)

    m = {
        "optimize.iterations": float(iterations),
        "optimize.ms_per_iter": 1e3 * total("optimize.minimize") / iterations if iterations else 0.0,
        "optimize.line_search_s": total("optimize.line_search"),
        "optimize.trial_energies": float(trials),
        "optimize.backtracks": float(sum(accepted)),
        "optimize.trial_yield": len(accepted) / trials if trials else 0.0,
        "optimize.refix_s": total("gaugefix.full_gauge_fix", via="optimize"),
        "optimize.record_s": total("gaugefix.gauge_distance", via="optimize")
        + total("functional.excess_report", via="optimize"),
    }
    for name in CALLS:
        m[f"{name}.calls"] = float(len(idx(name)))
    for name in NS_PER_SITE:
        m[f"{name}.ns_per_site"] = ns_per_site(name)
    for name in TOTAL_S:
        m[f"{name}.s"] = total(name)
    m["gaugefix.hodge_constants.rss_growth_mb"] = float(
        sum(spans[j][6] or 0.0 for j in idx("gaugefix.hodge_constants")))
    m["cli.main.self_s"] = float(sum(self_time[j] for j in idx("cli.main")))
    m["trace.coverage"] = float(dur[~has_parent].sum()) / wall if wall > 0 else 0.0

    share: dict[str, float] = {}
    for j, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        share[layer] = share.get(layer, 0.0) + self_time[j]
    share = {k: v / wall for k, v in sorted(share.items())} if wall > 0 else {}
    return m, share
