"""In-memory spans around the public functions of prodexp's layers.

A Tracer replaces each traced function by a wrapper at its module or
class attribute and, for module functions, also where another prodexp
module imported it by name (``from .prodint import product_integral``),
so that every call made through that name records a span: name, start,
end, parent and optional attributes.  Spans stay in memory and are
written as JSON lines when the run ends.  Uninstalling restores the
original attributes, so untraced rounds run the unmodified program.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute, follow imports by name).  expm is only counted
# where prodint calls it, so its other importers are left alone.
FUNCTIONS = [
    ("prodexp.hwmod", "build_module", True),
    ("prodexp.hwmod", "unitarize", True),
    ("prodexp.prodint", "expm", False),
    ("prodexp.prodint", "step_product", True),
    ("prodexp.prodint", "product_integral", True),
    ("prodexp.prodint", "solve_homogeneous", True),
    ("prodexp.prodint", "solve_inhomogeneous", True),
    ("prodexp.prodint", "gateaux_derivative", True),
    ("prodexp.grouprep", "holonomy_phase", True),
    ("prodexp.grouprep", "verify_up_properties", True),
    ("prodexp.grouprep", "log_derivative", True),
    ("prodexp.scale", "check_gw_virasoro", True),
    ("prodexp.scale", "check_gw_loop", True),
    ("prodexp.scale", "check_exp_estimate", True),
    ("prodexp.scale", "check_exp_difference", True),
    ("prodexp.checks", "run_check", True),
]

METHODS = [
    ("prodexp.hwmod", "VirasoroVerma", "gram"),
    ("prodexp.hwmod", "AffineVerma", "gram"),
    ("prodexp.hwmod", "GradedModule", "pi"),
    ("prodexp.hwmod", "GradedModule", "generator_matrix"),
    ("prodexp.cli", "ModuleCache", "load"),
    ("prodexp.cli", "ModuleCache", "store"),
]


def _short(module):
    return module.rsplit(".", 1)[-1]


class Tracer:
    """Records nested spans; single-threaded, like the program it wraps.

    Spans are kept in flat arrays rather than one object per span, so
    that recording hundreds of thousands of them adds no work for the
    garbage collector.
    """

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")      # -1 for a root
        self.attrs = {}                # span index -> dict
        self._stack = []
        self._patches = []             # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def open(self, name):
        """Start a span; returns its index."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, label=None, on_result=None):
        """fn with a span around each call.

        label(name, args) names the span; on_result(args, result) may
        return a dict of attributes to keep with it.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name if label is None else label(name, args))
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    attrs = on_result(args, out)
                    if attrs is not None:
                        tracer.attrs[i] = attrs
                return out
            finally:
                tracer.close(i)

        return functools.wraps(fn)(wrapper)

    def records(self):
        """[name, start, end, parent or None, attrs or None] per span."""
        return [[name, start, end, None if parent < 0 else parent,
                 self.attrs.get(i)]
                for i, (name, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents))]

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "prodexp" or name.startswith("prodexp.")}
        for modname, attr, follow in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            span = f"{_short(modname)}.{attr}"
            new = self.wrap(orig, span, **self._hooks(span))
            owners = ([m for m in mods.values()
                       if getattr(m, attr, None) is orig]
                      if follow else [mods[modname]])
            for owner in owners:
                self._patch(owner, attr, new)
        for modname, cls, attr in METHODS:
            owner = getattr(mods[modname], cls)
            span = f"{_short(modname)}.{cls}.{attr}"
            self._patch(owner, attr,
                        self.wrap(getattr(owner, attr), span))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _hooks(self, span):
        if span == "prodint.product_integral":
            return {"on_result": _record_refinement}
        if span == "grouprep.holonomy_phase":
            # one family of spans per truncation, for the sweep
            return {"label": lambda name, args: f"{name}.n{args[0].N}"}
        if span == "grouprep.log_derivative":
            # the returned path evaluates the derivative lazily; time
            # those evaluations as part of this layer
            tracer = self

            def wrap_path(args, path):
                if args[0].form != "generator":
                    path.func = tracer.wrap(path.func,
                                            "grouprep.log_derivative.eval")
            return {"on_result": wrap_path}
        if span == "checks.run_check":
            return {"label": lambda name, args: f"checks.{args[0]}"}
        return {}


def _record_refinement(args, prop):
    """Steps of the returned Propagator and of every dyadic restart."""
    levels = [n2 for n2, _, _ in prop.refinement_error]
    computed = (levels[0] // 2 if levels else 0) + sum(levels)
    return {"final_steps": prop.steps, "levels": len(levels),
            "computed_steps": computed}


# ---------------------------------------------------------------------------
# analysis


def nesting_problems(spans, eps=1e-9):
    """Spans that end before they start, or leave their parent's interval."""
    bad = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            bad.append(f"span {i} {name} is not closed")
        elif parent is not None:
            ps, pe = spans[parent][1], spans[parent][2]
            if start < ps - eps or end > pe + eps:
                bad.append(f"span {i} {name} leaves its parent {parent}")
    return bad


def self_times(spans):
    """Duration of each span minus the durations of its children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _outermost(spans, names):
    """Indices of spans named in `names` with no ancestor named in `names`."""
    inside = [False] * len(spans)
    out = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        covered = parent is not None and inside[parent]
        hit = name in names
        inside[i] = covered or hit
        if hit and not covered:
            out.append(i)
    return out


def inclusive_time(spans, names):
    """Time spent inside any span of `names`, counting nested ones once."""
    return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, names))


def layer_metrics(spans, sweep_values):
    """Per-layer metrics of one traced round, keyed by metric name."""
    selfs = self_times(spans)
    by_name = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(i)

    def count(name):
        return len(by_name.get(name, ()))

    def self_sum(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    props = [spans[i][4] for i in by_name.get("prodint.product_integral", ())]
    final = sum(p["final_steps"] for p in props)
    computed = sum(p["computed_steps"] for p in props)
    m = {
        "hwmod.gram_s": inclusive_time(
            spans, {"hwmod.VirasoroVerma.gram", "hwmod.AffineVerma.gram"}),
        "hwmod.unitarize_self_s": self_sum("hwmod.unitarize"),
        "hwmod.generator_matrix_s": inclusive_time(
            spans, {"hwmod.GradedModule.generator_matrix"}),
        "hwmod.pi_calls": count("hwmod.GradedModule.pi"),
        "hwmod.pi_s": inclusive_time(spans, {"hwmod.GradedModule.pi"}),
        "prodint.expm_calls": count("prodint.expm"),
        "prodint.expm_s": inclusive_time(spans, {"prodint.expm"}),
        "prodint.step_product_self_s": self_sum("prodint.step_product"),
        "prodint.product_integral_calls": len(props),
        "prodint.final_steps": final,
        "prodint.refine_levels": sum(p["levels"] for p in props),
        "prodint.useful_step_share": final / computed if computed else 0.0,
        "prodint.solve_s": inclusive_time(
            spans, {"prodint.solve_homogeneous", "prodint.solve_inhomogeneous",
                    "prodint.gateaux_derivative"}),
        "grouprep.verify_up_properties_s": inclusive_time(
            spans, {"grouprep.verify_up_properties"}),
        "grouprep.log_derivative_s": inclusive_time(
            spans, {"grouprep.log_derivative",
                    "grouprep.log_derivative.eval"}),
        "cli.cache_load_s": inclusive_time(spans, {"cli.ModuleCache.load"}),
        "cli.cache_store_s": inclusive_time(spans, {"cli.ModuleCache.store"}),
        "scale.estimate_s": inclusive_time(
            spans, {"scale.check_gw_virasoro", "scale.check_gw_loop",
                    "scale.check_exp_estimate", "scale.check_exp_difference"}),
    }
    for n in sweep_values:
        m[f"grouprep.holonomy_phase_self_s.n{n}"] = self_sum(
            f"grouprep.holonomy_phase.n{n}")
    return m


def layer_self_total(spans):
    """Summed self time of every span inside prodexp's layers."""
    selfs = self_times(spans)
    return sum(s for s, rec in zip(selfs, spans)
               if not rec[0].startswith(("round", "op.")))
