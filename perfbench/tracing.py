"""In-memory spans around the public functions of every collinext module.

Only the traced workload process installs the wrappers.  Each wrapper
records (name, start, end, parent) in a list and, for a few functions,
adds counters read off the call's arguments or result.  Nothing under
src/ changes: the wrappers replace the public names in every module
namespace (and module-level dispatch dict) that holds them.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("gf", "projgeom", "semilinear", "ample", "extend", "_kernels",
           "funcfield", "primesets", "cli")

# class entry points timed as layer work: (module, class, method, span name)
CLASS_ENTRIES = (
    ("projgeom", "ProjSpace", "__init__", "projgeom.ProjSpace"),
    ("semilinear", "Collineation", "__init__", "semilinear.Collineation"),
    ("semilinear", "SemilinearIso", "sigma_array", "semilinear.sigma_array"),
)

SPACE_TABLES = ("on_line", "join_t", "meet_t", "line_pts", "pt_lines")

SETUP, ROUND = "bench.setup", "bench.round"

# counters the hooks below add to; all are reported, 0 when never hit
COUNTERS = (
    "projgeom.desargues_sweep.sampled_checked", "ample.n_meeting",
    "extend.line_searches", "extend.points_extended",
    "extend.brute.candidates", "extend.brute.survivors",
    "kernels.pair_mult_scan.in_range", "kernels.pair_mult_scan.pairs",
    "funcfield.pairs_checked",
)


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent or -1]
        self.stack = []
        self.names = []          # every wrapped span name
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        self.space_points = -1
        self.space_bytes = dict.fromkeys(SPACE_TABLES, 0)

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def wrap(self, name, fn, hook=None):
        self.names.append(name)
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")

    def layer_metrics(self, n_rounds):
        """Per-name self seconds, call counts and counters.

        Set-up spans count once and round spans are averaged over the
        rounds, so each value is what one fresh process doing set-up and
        one round spends."""
        n_rounds = max(1, n_rounds)
        spans = self.spans
        child_ns = [0] * len(spans)
        root = [0] * len(spans)
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        ns = {SETUP: Counter(), ROUND: Counter()}
        calls = {SETUP: Counter(), ROUND: Counter()}
        for i, (name, start, end, _) in enumerate(spans):
            phase = spans[root[i]][0]
            ns[phase][name] += end - start - child_ns[i]
            calls[phase][name] += 1
        out = {}
        for name in self.names:
            out[name + ".s"] = (ns[SETUP][name]
                                + ns[ROUND][name] / n_rounds) * 1e-9
            out[name + ".calls"] = (calls[SETUP][name]
                                    + calls[ROUND][name] / n_rounds)
        out.update((name, v / n_rounds) for name, v in self.counts.items())
        out.update(("projgeom.table_bytes." + t, b)
                   for t, b in self.space_bytes.items())
        return out


# -- counters read off arguments and results --------------------------------

def _space_tables(rec, args, kwargs, out):
    space = args[0]
    if space.n_points > rec.space_points:
        rec.space_points = space.n_points
        for t in SPACE_TABLES:
            arr = getattr(space, t)
            rec.space_bytes[t] = 0 if arr is None else int(arr.nbytes)


def _desargues_sampled(rec, args, kwargs, out):
    sample = kwargs.get("sample", args[1] if len(args) > 1 else None)
    if sample is not None:
        rec.counts["projgeom.desargues_sweep.sampled_checked"] += int(out[0])


def _n_meeting(rec, args, kwargs, out):
    rec.counts["ample.n_meeting"] += int(out.n_meeting)


def _extend_diagnostics(rec, args, kwargs, out):
    rec.counts["extend.line_searches"] += int(out.diagnostics["line_searches"])
    rec.counts["extend.points_extended"] += int(
        out.diagnostics["points_extended"])


def _brute_filter(rec, args, kwargs, out):
    rec.counts["extend.brute.candidates"] += len(args[0])
    rec.counts["extend.brute.survivors"] += int(out.sum())


def _pair_scan(rec, args, kwargs, out):
    rec.counts["kernels.pair_mult_scan.in_range"] += int(out[0])
    rec.counts["kernels.pair_mult_scan.pairs"] += len(args[0]) ** 2


def _pairs_checked(rec, args, kwargs, out):
    rec.counts["funcfield.pairs_checked"] += int(out.n_pairs_checked)


HOOKS = {
    "projgeom.ProjSpace": _space_tables,
    "projgeom.desargues_sweep": _desargues_sampled,
    "ample.is_ample": _n_meeting,
    "extend.extend": _extend_diagnostics,
    "kernels.matrix_filter": _brute_filter,
    "kernels.pair_mult_scan": _pair_scan,
    "funcfield.recover_ring_iso": _pairs_checked,
}


def install(rec):
    """Wrap every public function of the collinext modules, everywhere
    it is looked up, and the class entry points."""
    mods = {m: sys.modules["collinext." + m] for m in MODULES}
    wrapped = {}
    for m, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                # metric names start with a letter: _kernels -> kernels
                name = "%s.%s" % (m.lstrip("_"), attr)
                wrapped[obj] = rec.wrap(name, obj, HOOKS.get(name))
    for mod in list(mods.values()) + [sys.modules["collinext"]]:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]
    for m, cls, meth, name in CLASS_ENTRIES:
        klass = getattr(mods[m], cls)
        setattr(klass, meth, rec.wrap(name, getattr(klass, meth),
                                      HOOKS.get(name)))
