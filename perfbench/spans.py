"""Per-layer tracing from outside poisson4: wrap public names, time spans.

``install()`` replaces each traced function or ``Expr`` method with a wrapper
that records a span, in every poisson4 module that holds the name (so
``leaves.bivector_matrix_at`` is traced as well as
``poisson.bivector_matrix_at``).  Spans are aggregated in memory as they end:
calls, inclusive time and self time (inclusive time minus the time covered by
child spans).  ``uninstall()`` restores the original objects.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute) of the original object
FUNCTIONS = {
    "expr.parse": ("poisson4.expr", "parse"),
    "poisson.flaschka_ratiu": ("poisson4.poisson", "flaschka_ratiu"),
    "poisson.det4": ("poisson4.poisson", "det4"),
    "poisson.jacobiator": ("poisson4.poisson", "jacobiator"),
    "poisson.casimir_check": ("poisson4.poisson", "casimir_check"),
    "poisson.bivector_matrix_at": ("poisson4.poisson", "bivector_matrix_at"),
    "poisson.rank_at": ("poisson4.poisson", "rank_at"),
    "poisson.hamiltonian_field": ("poisson4.poisson", "hamiltonian_field"),
    "leaves.leaf_form_coefficient": ("poisson4.leaves", "leaf_form_coefficient"),
    "leaves.leaf_tangent_frame": ("poisson4.leaves", "leaf_tangent_frame"),
    "leaves.solve_anchor": ("poisson4.leaves", "solve_anchor"),
    "leaves.flow": ("poisson4.leaves", "flow"),
    "models.model": ("poisson4.models", "model"),
    "models.expected_bivector": ("poisson4.models", "expected_bivector"),
    "models.catalogue_json": ("poisson4.models", "catalogue_json"),
}

# span name -> methods of poisson4.expr.Expr it covers
EXPR_METHODS = {
    "expr.mul": ("__mul__", "__rmul__"),
    "expr.add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "expr.differentiate": ("differentiate",),
    "expr.evaluate": ("evaluate",),
    "expr.evaluate_batch": ("evaluate_batch",),
    "expr.compiled": ("compiled",),
}

LEAF = "leaves.leaf_form_coefficient"


def _max_bits(exprs) -> int:
    bits = 0
    for e in exprs:
        for _, c in e.terms():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, time covered by children]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.hidden = False
        self._restore: list = []

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, args, kwargs):
        if self.hidden:
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self.stack.append(frame)
        self.active[name] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self.stack.pop()
            self.active[name] -= 1
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur

    def measure_hidden(self, fn, *args):
        """Run bookkeeping untraced and keep its time out of every span."""
        self.hidden = True
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.hidden = False
            if self.stack:
                self.stack[-1][1] += perf_counter() - t0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        # A method _hook_<name, dots as underscores> takes the place of the
        # plain span, to record counts at the same boundary.
        tracer = self
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None and not tracer.hidden:
                return hook(fn, args, kwargs)
            return tracer.span(name, fn, args, kwargs)

        return wrapper

    def _hook_expr_mul(self, fn, args, kwargs):
        a, b = args
        self.counts["expr.mul.term_products"] += len(a) * (len(b) if hasattr(b, "terms") else 1)
        return self.span("expr.mul", fn, args, kwargs)

    def _hook_expr_evaluate(self, fn, args, kwargs):
        if self.active[LEAF]:
            self.counts["leaf.evaluate"] += 1
        return self.span("expr.evaluate", fn, args, kwargs)

    def _hook_poisson_bivector_matrix_at(self, fn, args, kwargs):
        if self.active[LEAF]:
            self.counts["leaf.matrix_evals"] += 1
        return self.span("poisson.bivector_matrix_at", fn, args, kwargs)

    def _hook_expr_compiled(self, fn, args, kwargs):
        closure = self.span("expr.compiled", fn, args, kwargs)
        return lambda *a: self.span("expr.compiled", closure, a, {})

    def _hook_poisson_flaschka_ratiu(self, fn, args, kwargs):
        b = self.span("poisson.flaschka_ratiu", fn, args, kwargs)
        self.counts["poisson.bivector_terms"] += self.measure_hidden(
            lambda: sum(len(e) for e in b.upper_entries().values())
        )
        return b

    def _hook_poisson_jacobiator(self, fn, args, kwargs):
        (b,) = args
        bits = self.measure_hidden(
            lambda: _max_bits(e for row in b.scaled_components() for e in row)
        )
        self.counts["poisson.max_coeff_bits"] = max(self.counts["poisson.max_coeff_bits"], bits)
        return self.span("poisson.jacobiator", fn, args, kwargs)

    def _hook_leaves_flow(self, fn, args, kwargs):
        steps = kwargs["steps"] if "steps" in kwargs else args[4]
        out = self.span("leaves.flow", fn, args, kwargs)
        self.counts["flow.steps"] += steps
        return out

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import poisson4.expr
        import poisson4.leaves

        # poisson4's own modules, and the benchmark's, which call in by name
        modules = [
            m for n, m in list(sys.modules.items())
            if n.split(".")[0] == "poisson4" or n == "workloads"
        ]
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        expr_cls = poisson4.expr.Expr
        for name, methods in EXPR_METHODS.items():
            for attr in methods:
                original = expr_cls.__dict__[attr]
                self._restore.append((expr_cls, attr, original))
                setattr(expr_cls, attr, self._wrap(name, original))
        traj = poisson4.leaves.Trajectory
        self._restore.append((traj, "to_csv", traj.__dict__["to_csv"]))
        traj.to_csv = self._wrap("leaves.to_csv", traj.__dict__["to_csv"])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def merge(self, data: dict) -> None:
        self.calls.update(data["calls"])
        for key in ("total_s", "self_s"):
            for name, v in data[key].items():
                getattr(self, key)[name] += v
        for name, v in data["counts"].items():
            if name == "poisson.max_coeff_bits":
                self.counts[name] = max(self.counts[name], v)
            else:
                self.counts[name] += v


def layer_metrics(tracer: Tracer, cli_times: list[dict]) -> dict:
    """The per-layer metrics, in BENCHMARK.json's order, as (value, unit)."""
    ms = lambda name: tracer.self_s.get(name, 0.0) * 1e3  # noqa: E731
    calls = lambda name: tracer.calls.get(name, 0)  # noqa: E731
    points = calls(LEAF)
    steps = tracer.counts.get("flow.steps", 0)

    def per_point(key):
        return tracer.counts.get(key, 0) / points if points else 0.0

    def cli_mean(key):
        return sum(c[key] for c in cli_times) / len(cli_times) if cli_times else 0.0

    return {
        "expr.parse.calls": (calls("expr.parse"), "count"),
        "expr.parse.self_ms": (ms("expr.parse"), "ms"),
        "expr.mul.calls": (calls("expr.mul"), "count"),
        "expr.mul.term_products": (tracer.counts.get("expr.mul.term_products", 0), "count"),
        "expr.mul.self_ms": (ms("expr.mul"), "ms"),
        "expr.add.self_ms": (ms("expr.add"), "ms"),
        "expr.differentiate.self_ms": (ms("expr.differentiate"), "ms"),
        "expr.evaluate.calls": (calls("expr.evaluate"), "count"),
        "expr.evaluate.self_ms": (ms("expr.evaluate"), "ms"),
        "expr.evaluate_batch.self_ms": (ms("expr.evaluate_batch"), "ms"),
        "expr.compiled.self_ms": (ms("expr.compiled"), "ms"),
        "poisson.flaschka_ratiu.self_ms": (ms("poisson.flaschka_ratiu"), "ms"),
        "poisson.det4.self_ms": (ms("poisson.det4"), "ms"),
        "poisson.jacobiator.self_ms": (ms("poisson.jacobiator"), "ms"),
        "poisson.casimir_check.self_ms": (ms("poisson.casimir_check"), "ms"),
        "poisson.bivector_matrix_at.calls": (calls("poisson.bivector_matrix_at"), "count"),
        "poisson.bivector_matrix_at.self_ms": (ms("poisson.bivector_matrix_at"), "ms"),
        "poisson.rank_at.self_ms": (ms("poisson.rank_at"), "ms"),
        "poisson.hamiltonian_field.self_ms": (ms("poisson.hamiltonian_field"), "ms"),
        "poisson.bivector_terms": (tracer.counts.get("poisson.bivector_terms", 0), "count"),
        "poisson.max_coeff_bits": (tracer.counts.get("poisson.max_coeff_bits", 0), "bits"),
        "leaves.leaf_form_coefficient.self_ms": (ms(LEAF), "ms"),
        "leaves.leaf_tangent_frame.self_ms": (ms("leaves.leaf_tangent_frame"), "ms"),
        "leaves.solve_anchor.calls": (calls("leaves.solve_anchor"), "count"),
        "leaves.solve_anchor.self_ms": (ms("leaves.solve_anchor"), "ms"),
        "leaves.matrix_evals_per_point": (per_point("leaf.matrix_evals"), "evals/point"),
        "leaves.evaluate_calls_per_point": (per_point("leaf.evaluate"), "calls/point"),
        "leaves.flow.us_per_step": (
            tracer.total_s.get("leaves.flow", 0.0) * 1e6 / steps if steps else 0.0,
            "us/step",
        ),
        "leaves.to_csv.self_ms": (ms("leaves.to_csv"), "ms"),
        "models.model.calls": (calls("models.model"), "count"),
        "models.model.self_ms": (ms("models.model"), "ms"),
        "models.expected_bivector.calls": (calls("models.expected_bivector"), "count"),
        "models.catalogue_json.self_ms": (ms("models.catalogue_json"), "ms"),
        "cli.import_numpy_ms": (cli_mean("import_numpy_ms"), "ms"),
        "cli.import_poisson4_ms": (cli_mean("import_poisson4_ms"), "ms"),
        "cli.main_ms": (cli_mean("main_ms"), "ms"),
    }
