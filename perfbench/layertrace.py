"""Per-layer tracing from outside the package.

The tracer wraps each named function and rebinds every module global in
`equimap.*` that holds it: `compress` imports `substitute` by name, and the
kernel's functions call each other through their own module globals, so
patching only the defining module would miss calls. Methods are wrapped
on their class. A target that no longer exists is reported as absent.

Span targets record (id, parent id, job, name, start, end) in memory and
accumulate calls and self time (span time minus child spans); count
targets, the scalar atoms called millions of times, only count calls.
"""

import sys
import time
from collections import defaultdict

# (metric prefix, layer module, attribute, mode)
TARGETS = (
    ("kernel.c_mul", "equimap._kernel", "c_mul", "count"),
    ("kernel.c_norm", "equimap._kernel", "c_norm", "count"),
    ("kernel.c_add", "equimap._kernel", "c_add", "count"),
    ("kernel.subst_cols", "equimap._kernel", "subst_cols", "span"),
    ("kernel.poly_mul", "equimap._kernel", "poly_mul", "span"),
    ("kernel.rref", "equimap._kernel", "rref", "span"),
    ("kernel.table_close", "equimap._kernel", "table_close", "span"),
    ("scalars.inv", "equimap.scalars", "_Context.inv", "span"),
    ("groups.build_group", "equimap.groups", "build_group", "span"),
    ("groups.to_table", "equimap.groups", "to_table", "span"),
    ("groups.tables_built", "equimap.groups", "GroupTable.__init__", "count"),
    ("forms.substitute", "equimap.forms", "substitute", "span"),
    ("forms.equivariant_basis", "equimap.forms", "equivariant_basis", "span"),
    ("forms.isotypic_projector", "equimap.forms", "isotypic_projector", "span"),
    ("forms.form_gcd", "equimap.forms", "form_gcd", "span"),
    ("compress.construct_self_compression", "equimap.compress",
     "construct_self_compression", "span"),
    ("compress.verify_equivariance", "equimap.compress", "verify_equivariance", "span"),
    ("compress.verify_descent", "equimap.compress", "verify_descent", "span"),
    ("jordan.subgroups", "equimap.jordan", "subgroups", "span"),
    ("jordan.m_of_witness", "equimap.jordan", "m_of_witness", "span"),
    ("jordan.jordan_constants", "equimap.jordan", "jordan_constants", "span"),
    ("jordan.p_rank", "equimap.jordan", "p_rank", "span"),
    ("connect.compose", "equimap.connect", "PolyMap.compose", "span"),
    ("connect.factor_through_origin", "equimap.connect", "factor_through_origin", "span"),
    ("connect.verify_conjugation_identity", "equimap.connect",
     "verify_conjugation_identity", "span"),
    ("cli.main", "equimap.cli", "main", "span"),
)


def _checked(result):
    return result.get("checked", 0) if isinstance(result, dict) else 0


# counters read off a span target's return value
RESULT_COUNTERS = {
    "compress.verify_equivariance": ("checked", _checked),
    "jordan.subgroups": ("found", len),
}

# (name, unit, better): the per-layer metrics, in BENCHMARK.json order
METRICS = (
    [("kernel.%s.calls" % a, "count", "lower") for a in ("c_mul", "c_norm", "c_add")]
    + [(n, u, "lower") for n, u in (
        ("kernel.subst_cols.calls", "count"), ("kernel.subst_cols.self_s", "s"),
        ("kernel.poly_mul.calls", "count"), ("kernel.poly_mul.self_s", "s"),
        ("forms.substitute.calls", "count"), ("forms.substitute.self_s", "s"),
        ("kernel.rref.calls", "count"), ("kernel.rref.self_s", "s"),
        ("scalars.inv.calls", "count"), ("scalars.inv.self_s", "s"),
        ("forms.equivariant_basis.self_s", "s"),
        ("forms.isotypic_projector.calls", "count"), ("forms.isotypic_projector.self_s", "s"),
        ("forms.form_gcd.calls", "count"), ("forms.form_gcd.self_s", "s"),
        ("compress.construct_self_compression.self_s", "s"),
        ("compress.verify_equivariance.calls", "count"),
        ("compress.verify_equivariance.self_s", "s"))]
    + [("compress.verify_equivariance.checked", "count", "higher")]
    + [(n, u, "lower") for n, u in (
        ("compress.verify_descent.self_s", "s"),
        ("groups.build_group.calls", "count"), ("groups.tables_built", "count"),
        ("groups.to_table.self_s", "s"),
        ("kernel.table_close.calls", "count"), ("kernel.table_close.self_s", "s"),
        ("jordan.subgroups.calls", "count"), ("jordan.subgroups.self_s", "s"),
        ("jordan.subgroups.found", "count"),
        ("jordan.m_of_witness.self_s", "s"), ("jordan.jordan_constants.self_s", "s"),
        ("jordan.p_rank.self_s", "s"),
        ("connect.compose.calls", "count"), ("connect.compose.self_s", "s"),
        ("connect.factor_through_origin.self_s", "s"),
        ("connect.verify_conjugation_identity.self_s", "s"),
        ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
        ("trace.overhead_s", "s"))]
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.job = None
        self.absent = []
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self._patches = []  # (owner, name, original, wrapper)
        for key, module, attr, mode in TARGETS:
            self._plan(key, module, attr, mode)

    def _plan(self, key, module, attr, mode):
        owner = sys.modules.get(module)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, path[-1], None) if owner is not None else None
        if not callable(fn):
            self.absent.append(key)
            return
        wrapper = self._span(key, fn) if mode == "span" else self._count(key, fn)
        if len(path) > 1:
            self._patches.append((owner, path[-1], fn, wrapper))
            return
        home = sys.modules.get(getattr(fn, "__module__", None) or "")
        mods = [home] + [m for n, m in sorted(sys.modules.items())
                         if m is not home and (n == "equimap" or n.startswith("equimap."))]
        for mod in mods:
            if mod is None:
                continue
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, name, fn, wrapper))

    def _count(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, key, fn):
        calls, self_s, counters = self.calls, self.self_s, self.counters
        stack, spans = self._stack, self.spans
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(key)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[key] += 1
                self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, self.job, key, t0, t1))
            if counter is not None:
                counters[key + "." + counter[0]] += counter[1](result)
            return result

        return wrapper

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def metrics(self, overhead_s):
        out = {}
        for name, unit, _ in METRICS:
            if name == "trace.overhead_s":
                value = overhead_s
            elif name.endswith(".calls"):
                value = self.calls.get(name[:-6], 0)
            elif name.endswith(".self_s"):
                value = self.self_s.get(name[:-7], 0.0)
            elif name in self.counters:
                value = self.counters[name]
            else:
                value = self.calls.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tjob\tname\tstart\tend\n")
            for sid, parent, job, key, t0, t1 in self.spans:
                fh.write("%d\t%d\t%s\t%s\t%.9f\t%.9f\n" % (sid, parent, job, key, t0, t1))
