"""Boundary tracing for centdim, installed from outside the package.

Each traced boundary is a name that one centdim module imports from another,
for example the `kostka_hook_type` bound in `centdim.dims`. Replacing that
binding with a timing wrapper puts a span exactly where one layer calls the
next, while the recursion inside a functools.cache function stays one call.

Spans are aggregated, not stored one by one: kostka_hook_type alone is
called millions of times in a sweep. Every boundary keeps calls, total
seconds and self seconds (total minus the time of nested traced calls), and
the tracer hands out and resets those counters once per request.
"""

import importlib
from functools import cache
from time import perf_counter

import workloads

# (module whose binding is replaced, bound name, boundary name). The layer of
# a boundary is the module that defines the function: its first dotted part.
BOUNDARIES = [
    ("dims", "stirling2", "arith.stirling2"),
    ("dims", "bell_restricted", "arith.bell_restricted"),
    ("dims", "kostka_hook_type", "young.kostka_hook_type"),
    ("dims", "partitions_of", "young.partitions_of"),
    ("dims", "conjugate", "young.conjugate"),
    ("dims", "alt_labels", "branch.alt_labels"),
    ("bratteli", "restrict_sym", "branch.restrict_sym"),
    ("bratteli", "restrict_alt", "branch.restrict_alt"),
    ("bratteli", "restrict_sym_to_alt", "branch.restrict_sym_to_alt"),
    ("bratteli", "induce_sym", "branch.induce_sym"),
    ("bratteli", "induce_alt", "branch.induce_alt"),
    ("cli", "block_dimension", "dims.block_dimension"),
    ("cli", "decompose", "dims.decompose"),
    ("cli", "build_diagram", "bratteli.build_diagram"),
    ("cli", "export", "bratteli.export"),
    ("cli", "path_to_pair", "bijection.path_to_pair"),
    ("cli", "pair_to_path", "bijection.pair_to_path"),
    ("verify", "run", "verify.run"),
    ("verify", "build_diagram", "bratteli.build_diagram"),
    ("verify", "block_dimension", "dims.block_dimension"),
    ("verify", "multiplicity_oracle", "oracle.multiplicity_oracle"),
]

# functools.cache functions whose cache_info() is read around each request.
CACHES = [
    ("arith", "stirling2"),
    ("young", "num_skew_syt"),
    ("young", "partitions_of"),
    ("oracle", "character_mn"),
]

LAYERS = ("cli", "arith", "young", "branch", "dims", "bratteli", "bijection", "oracle", "verify")


def _module(name):
    return importlib.import_module(f"centdim.{name}")


@cache
def label_count(group, m):
    """Labels one decompose call evaluates, counted without centdim."""
    return len(workloads.sym_labels(m) if group == "S" else workloads.alt_labels(m))


class Tracer:
    """Counters for every boundary, plus named event counts."""

    def __init__(self):
        self.recs = {}
        self.counts = {}
        self._stack = [0.0]
        self._last_stirling = 1
        self._cache_base = {}
        self._hooks = {
            "arith.stirling2": self._note_stirling,
            "young.kostka_hook_type": self._note_kostka,
            "dims.decompose": self._note_decompose,
            "bratteli.build_diagram": self._note_diagram,
            "bratteli.enumerate_paths": self._note_paths,
            "verify.run": self._note_verify,
        }

    def wrap(self, fn, name):
        """Return fn wrapped to charge its calls to boundary `name`.

        The boundary's counting hook, if it has one, runs outside the timed
        interval.
        """
        rec = self.recs.setdefault(name, [0, 0.0, 0.0])
        on_result = self._hooks.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                stack[-1] += dt
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def install(self):
        """Replace every boundary binding inside the imported centdim modules."""
        for module, attr, name in BOUNDARIES:
            mod = _module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name))
        self._cache_base = self._cache_snapshot()

    # kostka_hook_type is always called right after the stirling2 factor it is
    # multiplied by (dims evaluates `stirling2(..) * kostka_hook_type(..)` left
    # to right), so the last stirling2 result is that call's Stirling weight.
    def _note_stirling(self, result, args):
        self._last_stirling = result

    def _note_kostka(self, result, args):
        if self._last_stirling:
            self.count("kostka_weighted")

    def _note_decompose(self, result, args):
        ctx = args[0]
        self.count("labels_evaluated", label_count(ctx.group, ctx.label_size))
        self.count("blocks_nonzero", len(result))

    def _note_paths(self, result, args):
        self.count("paths", len(result))

    def _note_diagram(self, result, args):
        self.count("vertices", sum(len(row) for row in result.rows))
        self.count("edges", sum(len(row) for row in result.edges))

    def _note_verify(self, result, args):
        for _, _, detail in result:
            head, _, unit = detail.partition(" ")
            self.count("verify_checks", int(head) if head.isdigit() and unit in ("checks", "rows") else 1)

    def _cache_snapshot(self):
        snap = {}
        for module, attr in CACHES:
            info = getattr(_module(module), attr).cache_info()
            snap[f"{module}.{attr}"] = (info.hits, info.misses, info.currsize)
        return snap

    def take(self):
        """Counters since the last take(), then reset them."""
        boundaries = {name: list(rec) for name, rec in self.recs.items() if rec[0]}
        for rec in self.recs.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        snap = self._cache_snapshot()
        caches = {
            name: {
                "hits": snap[name][0] - self._cache_base[name][0],
                "misses": snap[name][1] - self._cache_base[name][1],
                "currsize": snap[name][2],
            }
            for name in snap
        }
        self._cache_base = snap
        counts, self.counts = self.counts, {}
        return {"boundaries": boundaries, "caches": caches, "counts": counts}


def merge(parts):
    """Sum a list of take() results; currsize keeps the largest value."""
    total = {"boundaries": {}, "caches": {}, "counts": {}}
    for part in parts:
        for name, rec in part["boundaries"].items():
            acc = total["boundaries"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, info in part["caches"].items():
            acc = total["caches"].setdefault(name, {"hits": 0, "misses": 0, "currsize": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["currsize"] = max(acc["currsize"], info["currsize"])
        for name, value in part["counts"].items():
            total["counts"][name] = total["counts"].get(name, 0) + value
    return total


def layer_metrics(agg):
    """The per-layer metrics of one traced pass, from merged counters."""
    b = agg["boundaries"]
    c = agg["counts"]
    caches = agg["caches"]

    def calls(name):
        return b.get(name, [0, 0.0, 0.0])[0]

    def secs(name):
        return b.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return b.get(name, [0, 0.0, 0.0])[2]

    def cache(name, field):
        return caches.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    restricts = sum(calls(f"branch.{f}") for f in ("restrict_sym", "restrict_alt", "restrict_sym_to_alt"))
    branch_bratteli = [f"branch.{f}" for f in ("restrict_sym", "restrict_alt", "restrict_sym_to_alt", "induce_sym", "induce_alt")]
    m = {
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "arith.stirling2.calls": (calls("arith.stirling2"), "count"),
        "arith.stirling2.s": (secs("arith.stirling2"), "s"),
        "arith.stirling2.misses": (cache("arith.stirling2", "misses"), "count"),
        "young.kostka_hook_type.calls": (calls("young.kostka_hook_type"), "count"),
        "young.kostka_hook_type.s": (secs("young.kostka_hook_type"), "s"),
        "young.kostka_hook_type.yield": (ratio(c.get("kostka_weighted", 0), calls("young.kostka_hook_type")), "ratio"),
        "young.partitions_of.s": (secs("young.partitions_of"), "s"),
        "young.num_skew_syt.hits": (cache("young.num_skew_syt", "hits"), "count"),
        "young.num_skew_syt.misses": (cache("young.num_skew_syt", "misses"), "count"),
        "young.num_skew_syt.currsize": (cache("young.num_skew_syt", "currsize"), "count"),
        "dims.decompose.self_s": (self_s("dims.decompose"), "s"),
        "dims.labels_evaluated": (c.get("labels_evaluated", 0), "count"),
        "dims.blocks_nonzero": (c.get("blocks_nonzero", 0), "count"),
        "dims.label_yield": (ratio(c.get("blocks_nonzero", 0), c.get("labels_evaluated", 0)), "ratio"),
        "branch.restrict.calls": (restricts, "count"),
        "branch.induce.calls": (calls("branch.induce_sym") + calls("branch.induce_alt"), "count"),
        "branch.s": (sum(secs(name) for name in branch_bratteli + ["branch.alt_labels"]), "s"),
        "branch.restrict_yield": (ratio(c.get("edges", 0), restricts), "ratio"),
        "bratteli.build_diagram.self_s": (self_s("bratteli.build_diagram"), "s"),
        "bratteli.vertices": (c.get("vertices", 0), "count"),
        "bratteli.edges": (c.get("edges", 0), "count"),
        "bratteli.export.s": (secs("bratteli.export"), "s"),
        "bratteli.enumerate_paths.s": (secs("bratteli.enumerate_paths"), "s"),
        "bratteli.paths": (c.get("paths", 0), "count"),
        "bijection.path_to_pair.calls": (calls("bijection.path_to_pair"), "count"),
        "bijection.path_to_pair.s": (secs("bijection.path_to_pair"), "s"),
        "bijection.pair_to_path.calls": (calls("bijection.pair_to_path"), "count"),
        "bijection.pair_to_path.s": (secs("bijection.pair_to_path"), "s"),
        "oracle.multiplicity_oracle.calls": (calls("oracle.multiplicity_oracle"), "count"),
        "oracle.multiplicity_oracle.s": (secs("oracle.multiplicity_oracle"), "s"),
        "oracle.character_mn.misses": (cache("oracle.character_mn", "misses"), "count"),
        "verify.run.self_s": (self_s("verify.run"), "s"),
        "verify.checks": (c.get("verify_checks", 0), "count"),
    }
    for layer in LAYERS:
        total = sum(rec[2] for name, rec in b.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (total, "s")
    return m
