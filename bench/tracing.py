"""Per-layer tracing of octolift from outside the program.

The tracer rebinds the layer-boundary functions listed in ``SPANNED`` in
every octolift module that holds them by name (``lifts.divisor_cosets`` as
well as ``coset.divisor_cosets``), so calls between modules and within a
module are both seen.  Each call records a span (name, start, end, parent,
job id) in memory; self time is a span's duration minus the time covered by
its child spans.  Hot scalar operations (``GaussRational`` arithmetic and
table lookups) are counted through their classes, without spans.  Smaller
helpers are left unwrapped, so their cost lands in the self time of the
listed function that called them.

Nothing is changed in the package's source; ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = "octolift"

# layer -> public functions that get spans
SPANNED = {
    "cli": ("main", "load_table", "write_table"),
    "coset": ("divisor_cosets", "hnf_right_cosets", "reduce_gram"),
    "lifts": ("classical_maass_lift", "classical_maass_check",
              "theta_star_table", "spezialschar_keys", "maass_membership",
              "dirichlet_factor_check"),
    "quadspace": ("bracket", "cartan_theta"),
    "triality": ("phi_iso", "phi_inv", "ge_bracket", "verify_triality_triple",
                 "prop_mult_triple"),
    "octonion": ("oct_mul", "trilinear"),
    "orbits": ("reduce_pair",),
    "whittaker": ("s_v_sum", "archimedean_integral_check", "whittaker_eval",
                  "bessel_k_row", "positivity_oracle", "q_poincare"),
}

# (counter, module, class, methods): calls counted without spans
COUNTED = (
    ("quadspace.gauss_ops", "quadspace", "GaussRational",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
      "__truediv__")),
    ("lifts.table_lookups", "lifts", "SiegelTable", ("a",)),
    ("lifts.table_lookups", "lifts", "QuatTable", ("a",)),
)

# span name -> what to keep from (args, result) for the waste counters
_LOGGED = {
    "coset.divisor_cosets": lambda args, res: (args[0], len(res)),
    "lifts.theta_star_table": lambda args, res: len(res.entries),
    "cli.load_table": lambda args, res: args[0],
    "cli.write_table": lambda args, res: args[1],
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self._stack = []
        self.counts = Counter()
        self.logs = defaultdict(list)   # span name -> [(job, value)]
        self.job = None
        self._patches = []       # (owner, attribute, original)

    # --- installing ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if name.startswith(PACKAGE + ".") and m is not None]

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        log = _LOGGED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if log is not None:
                self.logs[name].append((self.job, log(args, res)))
            return res
        return wrapper

    def _count_wrapper(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = self._modules()
        for layer, names in SPANNED.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._span_wrapper(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapped)
        for counter, layer, cls_name, methods in COUNTED:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._count_wrapper(counter, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def run_job(self, job_id, fn, *args):
        """Run fn(*args) as job job_id under a root span named "job"."""
        self.job = job_id
        try:
            return self._span_wrapper("job", fn)(*args)
        finally:
            self.job = None

    # --- reducing -----------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_n, start, end, _p, _j), c
                in zip(self.spans, child)]

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer figures averaged per traced job, as {name: (value,
        unit)}."""
        coset = sys.modules[f"{PACKAGE}.coset"]   # helpers never wrapped
        calls, self_s = Counter(), defaultdict(float)
        durations = defaultdict(list)
        for (name, start, end, _p, _j), st in zip(self.spans,
                                                   self.self_times()):
            calls[name] += 1
            self_s[name] += st
            durations[name].append(end - start)
        out = {}
        for layer, names in SPANNED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = (calls[name] / jobs, "count")
                out[f"{name}.self_s"] = (self_s[name] / jobs, "s")
        for counter, *_ in COUNTED:
            out[counter] = (self.counts[counter] / jobs, "count")

        # divisor_cosets waste: every HNF coset of determinant n | d2^2 is a
        # trial, sigma_1(n) of them; kept is the length of the result.
        trials = kept = 0
        seen = defaultdict(set)
        for job, (lam, n_kept) in self.logs["coset.divisor_cosets"]:
            _d1, d2 = coset.smith_divisors(lam)
            sq = d2 * d2
            trials += sum(len(coset.hnf_left_cosets(n))
                          for n in range(1, sq + 1) if sq % n == 0)
            kept += n_kept
            seen[job].add(lam)
        distinct = sum(len(s) for s in seen.values())
        n_calls = len(self.logs["coset.divisor_cosets"])
        out["coset.divisor_cosets.trials"] = (trials / jobs, "count")
        out["coset.divisor_cosets.kept"] = (kept / jobs, "count")
        out["coset.divisor_cosets.kept_per_trial"] = (
            kept / trials if trials else 0.0, "ratio")
        out["coset.divisor_cosets.distinct_per_call"] = (
            distinct / n_calls if n_calls else 0.0, "ratio")
        out["lifts.theta_star_table.keys"] = (
            sum(v for _j, v in self.logs["lifts.theta_star_table"]) / jobs,
            "count")

        pairs = durations["orbits.reduce_pair"]
        out["orbits.reduce_pair.p50_ms"] = (
            1e3 * statistics.median(pairs) if pairs else 0.0, "ms")
        out["orbits.reduce_pair.max_ms"] = (
            1e3 * max(pairs) if pairs else 0.0, "ms")

        paths = [p for name in ("cli.load_table", "cli.write_table")
                 for _j, p in self.logs[name]]
        out["cli.table_bytes"] = (
            sum(Path(p).stat().st_size for p in paths) / jobs, "bytes")
        return out

    def dump_spans(self, path: Path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, f)
