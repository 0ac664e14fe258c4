"""Outside-in tracing of spinchar's layers.

Each target below is a public function or method of one spinchar module.
``install`` wraps it where callers find it: on the class for methods, and
for functions in every spinchar module namespace that holds it, since
modules bind each other's functions through ``from .x import name``. A
target that no longer exists raises instead of reporting zero.

Spans (name, job, parent, start, end) stay in memory; ``summary`` folds
them into per-layer self times and counts, and ``write`` saves them when
the run ends. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _calls(args, kwargs, result):
    return {"calls": 1}


def _new_group_elements():
    seen = {}

    def count(args, kwargs, result):
        if id(result) in seen:
            return {}
        seen[id(result)] = result  # holds the group so its id stays unique
        return {"elements": len(result)}

    return count


# (span name, spinchar module, attribute path, counter)
def targets():
    return [
        ("rootsys.build", "rootsys", "build_root_system", _calls),
        ("rootsys.dominant_rep", "rootsys", "RootSystem.dominant_representative", _calls),
        ("rootsys.root_lattice", "rootsys", "RootSystem.in_root_lattice", None),
        ("weyl.enumerate", "weyl", "enumerate_weyl", _new_group_elements()),
        ("weyl.subgroup", "weyl", "SubsystemDatum.__init__",
         lambda a, k, r: {"elements": len(a[0].group)}),
        ("weyl.coset_reps", "weyl", "minimal_coset_reps",
         lambda a, k, r: {"pairs": len(r) * len(a[1].group)}),
        ("weyl.parity", "weyl", "cunning_parity", _calls),
        ("charring.divide", "charring", "exact_divide",
         lambda a, k, r: {"dividend_terms": len(a[0].terms), "quotient_terms": len(r.terms)}),
        ("charring.irreducible", "charring", "irreducible_character",
         lambda a, k, r: {"calls": 1, "terms": len(r.terms)}),
        ("charring.decompose", "charring", "decompose",
         lambda a, k, r: {"input_terms": len(a[0].terms), "summands": len(r)}),
        ("charring.freudenthal", "charring", "freudenthal_weights",
         lambda a, k, r: {"weights": len(r.nonzero) + (1 if r.zero_mult else 0)}),
        ("charring.multiplicity", "charring", "multiplicity_of", _calls),
        ("charring.mul", "charring", "Character.__mul__",
         lambda a, k, r: {"pairs": len(a[0].terms) * len(a[1].terms),
                          "out_terms": len(r.terms)}),
        ("charring.denominator", "charring", "weyl_denominator", None),
        ("spinmod.spin0", "spinmod", "spin0_character",
         lambda a, k, r: {"terms": len(r.terms)}),
        ("spinmod.halves", "spinmod", "enumerate_dominant_halves",
         lambda a, k, r: {"chambers": len(r)}),
        ("spinmod.frobenius_schur", "spinmod", "frobenius_schur", None),
        ("spinmod.candidate", "spinmod", "classify_candidate",
         lambda a, k, r: {"calls": 1, "reached_spin0": int(r["spin0"] is not None)}),
        ("gradings.build", "gradings", "inner_grading", None),
        ("gradings.build", "gradings", "outer_grading", None),
        ("gradings.spin_g1", "gradings", "spin_g1", lambda a, k, r: {"summands": len(r)}),
        # the W side of the identity has one term per element of W
        ("gradings.tau_identity", "gradings", "verify_tau_identity",
         lambda a, k, r: {"terms": a[0].weyl_order()}),
        ("gradings.casimir", "gradings", "casimir_check", None),
        ("cli.main", "cli", "main", _calls),
    ]


# The per-layer metrics a traced run reports, with their units.
METRICS = {}
for _name, _counts in [
    ("rootsys.build", ["calls"]), ("rootsys.dominant_rep", ["calls"]),
    ("rootsys.root_lattice", []),
    ("weyl.enumerate", ["elements"]), ("weyl.subgroup", ["elements"]),
    ("weyl.coset_reps", ["pairs"]), ("weyl.parity", ["calls"]),
    ("charring.divide", ["dividend_terms", "quotient_terms"]),
    ("charring.irreducible", ["calls", "terms"]),
    ("charring.decompose", ["input_terms", "summands"]),
    ("charring.freudenthal", ["weights"]), ("charring.multiplicity", ["calls"]),
    ("charring.mul", ["pairs", "out_terms"]), ("charring.denominator", []),
    ("spinmod.spin0", ["terms"]), ("spinmod.halves", ["chambers"]),
    ("spinmod.frobenius_schur", []), ("spinmod.candidate", ["calls", "reached_spin0"]),
    ("gradings.build", []), ("gradings.spin_g1", ["summands"]),
    ("gradings.tau_identity", ["terms"]), ("gradings.casimir", []),
    ("cli.main", ["calls"]),
]:
    METRICS[f"{_name}.self_s"] = "s"
    for _c in _counts:
        METRICS[f"{_name}.{_c}"] = "count"
METRICS["trace.overhead_s"] = "s"


class TargetMissing(Exception):
    """A traced spinchar function or method no longer exists."""


class Tracer:
    def __init__(self):
        self.spans = []      # [name, job, parent, start, end]
        self._stack = []     # indices of open spans
        self._child = {}     # open span index -> time covered by children
        self.self_s = {}
        self.counts = {}
        self.job = None

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self._child[idx] = 0.0
        self.spans.append([name, self.job, parent, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[4] = end
        duration = end - span[3]
        self.self_s[span[0]] = self.self_s.get(span[0], 0.0) + duration - self._child.pop(idx)
        if self._stack:
            self._child[self._stack[-1]] += duration

    def exclude(self, seconds):
        """Take time spent outside spinchar (a host-speed probe that ran
        inside the open span) out of that span's self time."""
        if self._stack:
            self._child[self._stack[-1]] += seconds

    def count(self, name, values):
        for k, v in values.items():
            key = f"{name}.{k}"
            self.counts[key] = self.counts.get(key, 0) + v

    def wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.count(name, counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every target; raises TargetMissing for a vanished one."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "spinchar" or n.startswith("spinchar."))]
        for name, mod_name, path, counter in targets():
            module = sys.modules.get(f"spinchar.{mod_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                raise TargetMissing(f"spinchar.{mod_name}.{path} no longer exists")
            wrapped = self.wrap(name, original, counter)
            if owner is not module:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def summary(self):
        out = {}
        for metric in METRICS:
            layer, _, what = metric.rpartition(".")
            if metric == "trace.overhead_s":
                continue
            out[metric] = self.self_s.get(layer, 0.0) if what == "self_s" \
                else self.counts.get(metric, 0)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, job, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "job": job, "parent": parent,
                                     "start": start, "end": end}) + "\n")
