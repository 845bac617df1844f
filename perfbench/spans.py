"""Layer spans for the traced pass, recorded from outside the program.

`Tracer.install` replaces the public functions listed below with wrappers on
every loaded rcwb module that holds them, so calls between modules are seen
and src/ stays unchanged.  A timed wrapper records a span (function name,
start, end, parent span, job index); a counting wrapper only updates
counters, so its time stays in the caller's span.  Per-element predicates
(leq, compatible, generate_sieve) run millions of times and are not wrapped.

A metric's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  The root span of each job is
cli.main; its self time is the job time no other span covers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function) -> the metric that receives the span's self time
TIMED = {
    ("bundles", "resolve_bundle"): "bundles.load_s",
    ("fincat", "validate_category"): "fincat.validate_s",
    ("fincat", "colimit"): "fincat.colimit_s",
    ("restriction", "check_restriction_axioms"): "restriction.axioms_s",
    ("joins", "check_join_axioms"): "joins.check_s",
    ("joins", "join"): "joins.join_s",
    ("mcat", "matching_colimit"): "mcat.matching_colimit_s",
    ("mcat", "is_geometric"): "mcat.geometric_s",
    ("mcat", "par"): "mcat.par_s",
    ("mcat", "karoubi_r"): "mcat.karoubi_s",
    ("mcat", "check_m_system"): "mcat.m_system_s",
    ("site", "sieves_on"): "site.sieves_s",
    ("site", "generate_topology"): "site.topology_s",
    ("site", "saturation_is_fixpoint"): "site.fixpoint_s",
    ("site", "basis_covers"): "site.basis_covers_s",
    ("site", "is_sheaf"): "site.sheaf_s",
    ("site", "is_separated"): "site.sheaf_s",
    ("site", "subcanonical_report"): "site.sheaf_s",
    ("site", "sheafify"): "site.sheafify_s",
    ("rpsh", "check_jrp_axioms"): "rpsh.jrp_axioms_s",
    ("rpsh", "check_rp_axioms"): "rpsh.jrp_axioms_s",
    ("bridge", "transfer_report"): "bridge.transfer_s",
    ("bridge", "sheaf_to_jrp"): "bridge.transfer_s",
    ("bridge", "jrp_to_sheaf"): "bridge.transfer_s",
    ("bridge", "amalgamation_formula_report"): "bridge.transfer_s",
    ("bridge", "roundtrip_report"): "bridge.roundtrip_s",
    ("bridge", "cocompletion_unit"): "bridge.unit_s",
}
ROOT = "cli.main"
SELF_METRICS = sorted(set(TIMED.values()) | {"cli.self_s"})


# -- counters, computed from arguments and results ---------------------------
# A hook takes the recorder, the result and the call's own arguments.  Keys
# of distinct calls hold the argument objects' ids; the recorder keeps those
# objects alive until the job ends, so an id is never reused within a job.

def _join(rec, result, x, fam):
    rec.counts["joins.join_calls"] += 1
    rec.distinct("joins.join_distinct", (rec.keep(x), fam))


def _compatible_subsets(rec, result, *args, **kwargs):
    rec.counts["joins.families"] += len(result)


def _colimit(rec, result, *args, **kwargs):
    rec.counts["fincat.colimit_calls"] += 1


def _cocones_at(rec, result, *args, **kwargs):
    rec.counts["fincat.cocones"] += len(result)


def _pullback(rec, result, c, f, g):
    rec.counts["fincat.pullback_calls"] += 1
    rec.distinct("fincat.pullback_distinct", (rec.keep(c), f, g))


def _matching_colimit(rec, result, mc, family, obj=None):
    family = tuple(family)
    if obj is None:
        obj = mc.base.mor_tgt[family[0]]
    rec.counts["mcat.matching_colimit_calls"] += 1
    rec.distinct("mcat.matching_colimit_distinct", (rec.keep(mc), family, obj))


def _sieves_on(rec, result, c, a):
    rec.counts["site.sieves_on_calls"] += 1
    rec.counts["site.subsets_closed"] += 2 ** len(c.into(a))
    rec.counts["site.sieves_found"] += len(result)


def _generate_topology(rec, result, *args, **kwargs):
    rec.counts["site.covers"] += sum(len(s) for s in result.covers)


def _matching_families(rec, result, *args, **kwargs):
    rec.counts["site.matching_families"] += len(result[1])


def _element_join(rec, result, *args, **kwargs):
    rec.counts["rpsh.element_join_calls"] += 1


HOOKS = {
    ("joins", "join"): _join,
    ("joins", "compatible_subsets"): _compatible_subsets,
    ("fincat", "colimit"): _colimit,
    ("fincat", "cocones_at"): _cocones_at,
    ("fincat", "pullback"): _pullback,
    ("mcat", "matching_colimit"): _matching_colimit,
    ("site", "sieves_on"): _sieves_on,
    ("site", "generate_topology"): _generate_topology,
    ("site", "matching_families"): _matching_families,
    ("rpsh", "element_join"): _element_join,
}
COUNTS = ("joins.join_calls", "joins.join_distinct", "joins.families",
          "fincat.colimit_calls", "fincat.cocones", "fincat.pullback_calls",
          "fincat.pullback_distinct", "mcat.matching_colimit_calls",
          "mcat.matching_colimit_distinct", "site.sieves_on_calls",
          "site.subsets_closed", "site.sieves_found", "site.covers",
          "site.matching_families", "rpsh.element_join_calls")
# share metric -> (numerator, base); each is reported next to its base
SHARES = {
    "joins.join_distinct_share": ("joins.join_distinct", "joins.join_calls"),
    "fincat.pullback_distinct_share": ("fincat.pullback_distinct",
                                       "fincat.pullback_calls"),
    "mcat.matching_colimit_distinct_share": ("mcat.matching_colimit_distinct",
                                             "mcat.matching_colimit_calls"),
    "site.sieves_found_share": ("site.sieves_found", "site.subsets_closed"),
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent, job)
        self.counts = Counter()
        self._stack = [-1]
        self._job = -1
        self._distinct = defaultdict(set)
        self._alive = {}
        self._originals = []

    # -- bookkeeping used by the hooks -------------------------------------

    def keep(self, obj):
        self._alive.setdefault(id(obj), obj)
        return id(obj)

    def distinct(self, metric, key):
        self._distinct[metric].add(key)

    # -- spans -------------------------------------------------------------

    def _timed(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._job)
            if hook is not None:
                hook(self, result, *args, **kwargs)
            return result
        return wrapper

    def _counting(self, fn, hook):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, result, *args, **kwargs)
            return result
        return wrapper

    def job(self, index, call):
        """Run one job under its root span; counts distinct keys per job."""
        self._job = index
        try:
            return self._timed(call, ROOT, None)()
        finally:
            for metric, keys in self._distinct.items():
                self.counts[metric] += len(keys)
            self._distinct.clear()
            self._alive.clear()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed function wherever an rcwb module holds it.
        All rcwb modules that the jobs use must already be imported."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "rcwb" or name.startswith("rcwb.")]
        for key in sorted(set(TIMED) | set(HOOKS)):
            fn = getattr(sys.modules["rcwb." + key[0]], key[1])
            name = ".".join(key)
            if key in TIMED:
                wrapper = self._timed(fn, name, HOOKS.get(key))
            else:
                wrapper = self._counting(fn, HOOKS[key])
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._originals.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Self time per metric (s), counts, shares and span coverage."""
        child = [0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs = dict.fromkeys(SELF_METRICS, 0)
        job_ns = 0
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            own = end - start - child[i]
            if name == ROOT:
                selfs["cli.self_s"] += own
                job_ns += end - start
            else:
                selfs[TIMED[tuple(name.split("."))]] += own
        out = {m: ns / 1e9 for m, ns in selfs.items()}
        out.update({m: self.counts[m] for m in COUNTS})
        for share, (num, base) in SHARES.items():
            out[share] = out[num] / out[base] if out[base] else 0.0
        out["trace.coverage"] = (1 - selfs["cli.self_s"] / job_ns
                                 if job_ns else 0.0)
        return out

    def write(self, path):
        """The spans as tab-separated lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{job}\n")
