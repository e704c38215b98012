"""Per-layer spans and counters, gathered from outside the package.

Installing a Tracer rebinds the package's public functions and selected
methods to timing wrappers.  Modules that did `from .space import
clopen_union` hold their own reference, so every module attribute that is
the original function is rebound, not just the defining one.  Nothing under
the package changes on disk, and uninstall() restores every binding.

Two kinds of wrapper:
  span   records a span (name, start, end, parent, operation id) and the
         self time of the function's layer; a function in a metric group
         (GROUPS) also adds to the group's time and call count, on its
         outermost call only, so recursion is not counted twice
  count  runs a counter hook and nothing else, for methods called once per
         bit, per term or per table, where a span each would cost more
         than the work it measures
Helpers called per generator or per child (HOT) are not wrapped at all;
their time counts toward the nearest spanned caller.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

LAYERS = ("dsl", "codes", "space", "stepfn", "names", "gdelta", "measure",
          "sampling", "decoration", "cli")

HOT = {
    "space.validate_bits", "space.seeded_bit", "space.cantor_pair", "space.mu_I",
    "space.column", "space.tail_append",
    "codes.child_items", "codes.require_complement_free", "codes.subtree",
    "codes.is_complement_free", "codes.support_depth",
}

# methods spanned in addition to every public module-level function
METHODS = {
    "stepfn": {"StepFunction": ("constant", "from_char", "from_dyadics", "at_depth",
                                "value_on", "value_at", "__add__", "__sub__", "abs_diff",
                                "max_with", "min_with", "integral", "precompose_prefix",
                                "cell_average", "strictly_above", "strictly_below",
                                "char_support")},
    "space": {"ClopenSet": ("covers_prefix",), "StagedOpenSet": ("stage",)},
    "gdelta": {"RapidGDelta": ("stage",)},
    "decoration": {"DecorationGenerator": ("footprint", "insert_for")},
}
PRIVATE = ("cli._report", "cli._emit")

# function -> metric group
GROUPS = {
    "dsl.parse_dsl": "dsl.parse",
    "codes.normalize_demorgan": "codes.shape",
    "codes.annotate_min_ranks": "codes.shape",
    "codes.make_alternating": "codes.shape",
    "codes.evaluate": "codes.eval",
    "codes.member": "codes.eval",
    "codes.membership_table": "codes.eval",
    "space.prefix_free_normalize": "space.normalize",
    "space.clopen_union": "space.clopen_ops",
    "space.clopen_intersection": "space.clopen_ops",
    "space.clopen_complement": "space.clopen_ops",
    "space.clopen_subset": "space.clopen_ops",
    "stepfn.StepFunction.__add__": "stepfn.apply",
    "stepfn.StepFunction.__sub__": "stepfn.apply",
    "stepfn.StepFunction.abs_diff": "stepfn.apply",
    "stepfn.StepFunction.max_with": "stepfn.apply",
    "stepfn.StepFunction.min_with": "stepfn.apply",
    "stepfn.StepFunction.from_char": "stepfn.from_char",
    "stepfn.l1_norm": "stepfn.l1_norm",
    "measure.build_decomposition": "measure.build",
    "measure.verify_decomposition": "measure.verify",
    "measure.measure_of_code": "measure.measure_of_code",
    "measure.assemble_bad_gdelta": "measure.assemble",
    "measure.fold_law_test": "measure.assemble",
    "gdelta.RapidGDelta.stage": "gdelta.stage",
    "names.value_at": "names.value_at",
    "names.names_equal": "names.equal",
    "names.bad_set_stage": "names.bad_set",
    "sampling.mc_integral": "sampling.mc",
    "sampling.sampled_average": "sampling.mc",
    "decoration.decorate": "decoration.decorate",
    "decoration.check_preservation": "decoration.check",
    "cli._report": "cli.emit",
    "cli._emit": "cli.emit",
}


class Tracer:
    def __init__(self, package: str = "cantor_measure"):
        self.package = package
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # spans as parallel columns: name id, start ns, end ns, parent, op
        self.cols = tuple(array("q") for _ in range(5))
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.counts: Counter = Counter()
        self.times: Counter = Counter()  # ns per group, and per "<layer>.self"
        self.maxima: dict[str, int] = {}
        self.min_headroom: Fraction | None = None
        self.depth: Counter = Counter()  # open calls per group, and of Point.bit
        self._undo: list = []

    def reset(self) -> None:
        """Zero counters and timers; spans are kept for the trace file."""
        self.counts.clear()
        self.times.clear()
        self.maxima.clear()
        self.min_headroom = None

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "times": dict(self.times),
                "maxima": dict(self.maxima), "min_headroom": self.min_headroom}

    def spans(self) -> dict:
        name, start, end, parent, op = self.cols
        return {"names": self.names, "name": name.tolist(), "start_ns": start.tolist(),
                "end_ns": end.tolist(), "parent": parent.tolist(), "op": op.tolist()}

    # -- installation

    def install(self) -> None:
        mods = {n: sys.modules[f"{self.package}.{n}"] for n in LAYERS}
        hooks = self._hooks(mods)
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                qual = f"{layer}.{attr}"
                if ((attr.startswith("_") and qual not in PRIVATE)
                        or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or qual in HOT):
                    continue
                self._rebind(fn, self._span(fn, layer, qual, **hooks.pop(qual, {})))
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    qual = f"{layer}.{cls_name}.{meth}"
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._span(raw.__func__, layer, qual, **hooks.pop(qual, {})))
                    else:
                        new = self._span(raw, layer, qual, **hooks.pop(qual, {}))
                    self._set(cls, meth, new)
        for qual, hook in hooks.items():  # count-only wrappers on methods
            layer, cls_name, meth = qual.split(".")
            cls = getattr(mods[layer], cls_name)
            self._set(cls, meth, self._count(cls.__dict__[meth], **hook))

    def uninstall(self) -> None:
        restore(self._undo)

    def _set(self, obj, attr, new) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def _rebind(self, fn, wrapper) -> None:
        rebind(self.package, fn, wrapper, self._undo)

    # -- wrappers

    def _count(self, fn, pre=None, post=None):
        """pre(args, kw) runs before the call; post(args, what pre returned)
        after it, even when it raises."""
        tr = self

        def counted(*args, **kw):
            if not tr.enabled:
                return fn(*args, **kw)
            state = pre(args, kw) if pre else None
            try:
                out = fn(*args, **kw)
            finally:
                if post:
                    post(args, state)
            return out

        return counted

    def _span(self, fn, layer: str, qual: str, pre=None, post=None, impl=None):
        """pre(args, kw) runs before the call and post(args, kw, result)
        after it returns; impl, when given, builds the callable actually run
        from fn, for hooks that must reshape the arguments or the result."""
        run = impl(fn) if impl else fn
        if qual not in self._name_ids:
            self._name_ids[qual] = len(self.names)
            self.names.append(qual)
        name_id = self._name_ids[qual]
        group = GROUPS.get(qual)
        self_key = f"{layer}.self"
        tr, cols, stack, clock = self, self.cols, self.stack, time.perf_counter_ns

        def spanned(*args, **kw):
            if not tr.enabled:
                return fn(*args, **kw)
            if pre:
                pre(args, kw)
            outer = False
            if group is not None:
                outer = tr.depth[group] == 0
                tr.depth[group] += 1
                if outer:
                    tr.counts[group + ".calls"] += 1
            idx = len(cols[0])
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0]
            stack.append(frame)
            for col in cols:
                col.append(0)
            start = clock()
            try:
                out = run(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                cols[0][idx], cols[1][idx], cols[2][idx] = name_id, start, end
                cols[3][idx], cols[4][idx] = parent, tr.op
                tr.times[self_key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if group is not None:
                    tr.depth[group] -= 1
                    if outer:
                        tr.times[group] += dur
            if post:
                post(args, kw, out)
            return out

        return spanned

    # -- counters that need arguments or results

    def _hooks(self, mods) -> dict:
        tr, counts = self, self.counts

        def normalize(fn):
            def run(gens):
                gens = tuple(gens)
                counts["space.normalize_gens_in"] += len(gens)
                out = fn(gens)
                counts["space.normalize_gens_out"] += len(out)
                return out
            return run

        def bit_pre(args, kw):
            tr.depth["bit"] += 1
            if tr.depth["bit"] == 1:
                counts["space.bits_read"] += 1
                if tr.depth["sampling.mc"]:
                    counts["sampling.bits"] += 1

        def bit_post(args, state):
            tr.depth["bit"] -= 1

        def table_pre(args, kw):
            cells = len(args[0].values)
            counts["stepfn.tables_built"] += 1
            counts["stepfn.cells_built"] += cells
            tr.maxima["stepfn.max_table_cells"] = max(
                cells, tr.maxima.get("stepfn.max_table_cells", 0))

        def terms_before(args, kw):
            return len(args[0]._terms) if hasattr(args[0], "_terms") else 0

        def terms_after(args, before):
            counts["names.terms_materialized"] += len(args[0]._terms) - before

        def exceedance(fn):
            def run(*args, **kw):
                staged = fn(*args, **kw)
                staged.stages = tr._span(staged.stages, "names", "names.bad_set_stage")
                return staged
            return run

        def mc_pre(args, kw):
            counts["sampling.trials"] += mc_trials("mc_integral", args, kw)

        def average_pre(args, kw):
            counts["sampling.trials"] += mc_trials("sampled_average", args, kw)

        captured = mods["names"].Captured

        def value_post(args, kw, out):
            if tr.depth["sampling.mc"] and isinstance(out, captured):
                counts["sampling.captured"] += 1

        mu_i = mods["space"].mu_I

        def stage_post(args, kw, out):
            m = mu_i(out)
            head = Fraction(1, 1 << args[1]) - Fraction(m.num, 1 << m.exp)
            counts["gdelta.stage_calls"] += 1
            if tr.min_headroom is None or head < tr.min_headroom:
                tr.min_headroom = head

        def table_post(args, kw, out):
            counts["codes.membership_table_cells"] += len(out[1])

        def check_post(args, kw, out):
            counts["decoration.points_checked"] += out.checked

        hooks = {
            "space.prefix_free_normalize": {"impl": normalize},
            "stepfn.StepFunction.__post_init__": {"pre": table_pre},
            "names.L1Name.__init__": {"pre": terms_before, "post": terms_after},
            "names.L1Name.term": {"pre": terms_before, "post": terms_after},
            "names.exceedance_stages": {"impl": exceedance},
            "names.value_at": {"post": value_post},
            "sampling.mc_integral": {"pre": mc_pre},
            "sampling.sampled_average": {"pre": average_pre},
            "gdelta.RapidGDelta.stage": {"post": stage_post},
            "codes.membership_table": {"post": table_post},
            "decoration.check_preservation": {"post": check_post},
        }
        for cls in ("EventuallyPeriodicPoint", "SeededPoint", "TailPoint", "ColumnPoint"):
            hooks[f"space.{cls}.bit"] = {"pre": bit_pre, "post": bit_post}
        return hooks


def mc_trials(name: str, args, kw) -> int:
    """Sample points a call evaluates: mc_integral's trials, and trials per
    cell times 2^i cells for sampled_average(f, i, trials, seed)."""
    if name == "mc_integral":
        return kw["trials"] if "trials" in kw else args[1]
    return args[2] << args[1]


def rebind(package: str, fn, wrapper, undo: list) -> None:
    """Replace fn by wrapper in every module of the package that holds it,
    appending (module, attribute, old value) to undo."""
    for mname, mod in list(sys.modules.items()):
        if mod is None or not (mname == package or mname.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                undo.append((mod, attr, val))
                setattr(mod, attr, wrapper)


def restore(undo: list) -> None:
    for obj, attr, old in reversed(undo):
        setattr(obj, attr, old)
    undo.clear()


def headroom_log2(head: Fraction | None) -> float:
    """log2 of the smallest headroom; an exactly spent budget reads as the
    smallest double exponent, and no budget-checked stage as 0."""
    if head is None:
        return 0.0
    if head <= 0:
        return -1074.0
    return math.log2(head.numerator) - math.log2(head.denominator)
