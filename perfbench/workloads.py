"""The four workloads: inputs from the seed, set-up, one op, output checks.

Each workload follows the same protocol, driven by run.py:

* ``setup(clock)`` makes every poisson4 object the ops need and runs one
  untimed warm-up pass over the op mix.  Every poisson4 call in it goes
  through ``clock``, which sums their time into ``setup_s``; the benchmark's
  own input generation is not timed.
* ``rounds()`` yields the op mix round after round.  The runner attempts only
  whole rounds, so the share of any op kind is the same in every run.
* ``op(inp)`` is one timed operation; it raises ``OpFailed`` when poisson4
  fails on it.  ``keep(inp, out)`` reduces the output, outside the timed
  region, to a key for the input and the plain data the checks need.  The
  runner keeps the first output per key and reports any repeat of a key
  whose output differs from it.
* ``check(outputs)`` runs after the timed phase on those first outputs and
  returns a list of errors: it compares them with oracle.py (sympy, scipy).
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from poisson4 import (
    Bivector,
    CasimirPair,
    Expr,
    Point4,
    casimir_check,
    flaschka_ratiu,
    flow,
    is_poisson,
    leaf_form_coefficient,
    model,
    parse,
    rank_at,
)
from poisson4.leaves import NonFiniteError

import charts
from charts import FLOW_DT, FLOW_STEPS, K_TEXT, to_poisson4

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PAIR_NAMES = ("xy", "xz", "xt", "yz", "yt", "zt")
POINT_BOX = 1.5
# Flow start points: FLOW_ORIGIN plus a uniform offset of at most
# START_SPREAD per coordinate, kept when no coordinate of the flow exceeds
# FLOW_ESCAPE.
START_SPREAD = 0.02
FLOW_ESCAPE = 4.0


class OpFailed(Exception):
    """poisson4 did not complete the operation as its contract says."""


def children_cpu() -> float:
    """CPU seconds of every child process reaped so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Clock:
    """Sums the CPU time spent in the poisson4 calls routed through it."""

    def __init__(self, cpu=time.process_time):
        self.cpu = cpu
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = self.cpu()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += self.cpu() - t0


def _terms(e: Expr) -> tuple:
    return tuple(e.terms())


def regular_point(clock, rng, b, s) -> Point4:
    """The next seeded point of [-1.5, 1.5]^4 at which ``rank_at`` gives 2."""
    while True:
        coords = (round(rng.uniform(-POINT_BOX, POINT_BOX), 6) for _ in range(4))
        p = Point4(*coords, s=float(s or 0))
        if clock(rank_at, b, p) == 2:
            return p


def flow_start(clock, rng, b, h, s):
    """The next seeded start point near FLOW_ORIGIN whose flow stays bounded.

    A point is replaced when its flow leaves double precision or reaches a
    coordinate above FLOW_ESCAPE.  Returns the point and its trajectory.
    """
    while True:
        coords = (round(c + rng.uniform(-START_SPREAD, START_SPREAD), 6) for c in charts.FLOW_ORIGIN)
        p = Point4(*coords, s=float(s or 0))
        try:
            traj = clock(flow, b, h, p, FLOW_DT, FLOW_STEPS)
        except NonFiniteError:
            continue
        if max(abs(v) for q in traj.points for v in q.coords()) <= FLOW_ESCAPE:
            return p, traj


class Workload:
    # Set by a traced run.  cli-cold then starts its children through
    # launch.py and hands each child's span totals and import times to it.
    launcher_trace = None
    name = ""
    tail_pct = 50.0  # percentile reported as op_tail_ms
    tail_per_round = False  # op_tail_ms per round, median over rounds
    min_ops = 1  # completed ops needed for at least ten samples beyond it
    trace_rounds = 1  # rounds of a traced run (fixed, so counts repeat)

    # Op and set-up times are CPU seconds: on a shared virtual machine the
    # wall clock also counts the bursts in which the hypervisor gives the
    # core to another guest (steal), which CPU time leaves out.
    cpu = staticmethod(time.process_time)

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + parts)))

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def warm_up(self, clock, inputs) -> None:
        """One untimed pass; an op that fails is counted in the timed phase."""
        for inp in inputs:
            try:
                clock(self.op, inp)
            except Exception:  # noqa: BLE001 - reported by the timed phase
                pass


# -- exact-catalogue ----------------------------------------------------------

MONOMIALS = tuple(
    (a, b, c, d, 0)
    for a in range(4)
    for b in range(4)
    for c in range(4)
    for d in range(4)
    if 1 <= a + b + c + d <= 3
)
COEFFS = tuple(sorted({Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)}))
RANDOM_PER_ROUND = 6
# A random pair is kept only when the size of its bracket matrix, counted on
# exponents alone (the monomials of the six 2x2 minors of dC1 and dC2, before
# any cancellation), lies in this band.  An op's cost follows that size, so
# the band narrows the spread of random-op costs (coefficient of variation
# about 0.1 instead of 0.45) and keeps op_tail_ms from following the seed;
# it also puts every random op above the costliest catalogue op.
SIZE_BAND = (75, 90)


def _minor_size(pair) -> int:
    grads = [
        [{m[:v] + (m[v] - 1,) + m[v + 1:] for m, _ in poly if m[v]} for v in range(4)]
        for poly in pair
    ]
    size = 0
    for k in range(4):
        for l in range(k + 1, 4):
            size += len(
                {
                    tuple(map(sum, zip(a, b)))
                    for ga, gb in ((grads[0][k], grads[1][l]), (grads[0][l], grads[1][k]))
                    for a in ga
                    for b in gb
                }
            )
    return size


class ExactCatalogue(Workload):
    """flaschka_ratiu, is_poisson and casimir_check on C1 and C2 per op."""

    name = "exact-catalogue"
    tail_pct = 95.0
    # 20 rounds: p95 needs 200 ops, and a round's throughput depends on its
    # random pairs, so more rounds steady the median over rounds.
    min_ops = 400
    trace_rounds = 3

    def __init__(self, seed):
        super().__init__(seed)
        self.seen: set = set()
        self.next_round = 0

    def _random_pair(self, rng) -> tuple:
        while True:
            pair = tuple(
                tuple(sorted((m, rng.choice(COEFFS)) for m in rng.sample(MONOMIALS, rng.randint(4, 6))))
                for _ in range(2)
            )
            if pair not in self.seen and SIZE_BAND[0] <= _minor_size(pair) <= SIZE_BAND[1]:
                self.seen.add(pair)
                return pair

    def _random_input(self, rng):
        terms = self._random_pair(rng)
        pair = CasimirPair(Expr(dict(terms[0])), Expr(dict(terms[1])))
        return (("random", terms), pair, None)

    def setup(self, clock):
        self.k = clock(parse, to_poisson4(K_TEXT))
        self.catalogue = []
        for name in charts.NAMES:
            cas = clock(model, name).casimirs
            self.catalogue += [(("model", name, False), cas, None), (("model", name, True), cas, self.k)]
        self.seen.clear()
        self.next_round = 0
        rng = self.rng("warmup")
        self.warm_up(clock, self.catalogue + [self._random_input(rng) for _ in range(RANDOM_PER_ROUND)])

    def rounds(self):
        while True:
            rng = self.rng("round", self.next_round)
            self.next_round += 1
            mix = self.catalogue + [self._random_input(rng) for _ in range(RANDOM_PER_ROUND)]
            rng.shuffle(mix)
            yield mix

    @staticmethod
    def op(inp):
        _, pair, k = inp
        b = flaschka_ratiu(pair, k)
        verdict = is_poisson(b)
        return b, bool(verdict), casimir_check(b, pair.c1), casimir_check(b, pair.c2)

    @staticmethod
    def keep(inp, out):
        b, verdict, ok1, ok2 = out
        upper = tuple(_terms(e) for e in b.upper_entries().values())
        k = None if b.conformal is None else _terms(b.conformal)
        return inp[0], (upper, k, verdict, ok1, ok2)

    def check(self, outputs) -> list[str]:
        import oracle

        errors = []
        k_sym = oracle.sym(K_TEXT)
        for key, (upper, k_out, verdict, ok1, ok2) in outputs.items():
            if key[0] == "model":
                c1, c2 = oracle.chart(key[1])
                k = k_sym if key[2] else None
                label = f"{key[1]}{' with k' if key[2] else ''}"
            else:
                c1, c2 = (oracle.from_terms(t) for t in key[1])
                k, label = None, f"random pair {key[1]}"
            upper_out = {ij: oracle.from_terms(t) for ij, t in zip(oracle.PAIRS, upper)}
            errors += oracle.check_bivector(
                label, upper_out, None if k_out is None else oracle.from_terms(k_out), c1, c2, k
            )
            if not (verdict and ok1 and ok2):
                errors.append(f"{label}: is_poisson {verdict}, casimir_check {ok1}, {ok2}")
        errors += self.negative_control()
        return errors

    @staticmethod
    def negative_control() -> list[str]:
        """dx^dy + x dz^dt is not Poisson: J^(y,z,t) = -1."""
        import oracle

        ref = oracle.jacobiator({(0, 1): oracle.sym("1"), (2, 3): oracle.sym("x")})
        verdict = is_poisson(Bivector.from_upper({(0, 1): Expr.one(), (2, 3): parse("x")}))
        if ref[(1, 2, 3)] != -1:
            return ["negative control: the reference Jacobiator is not -1"]
        if verdict.holds or verdict.witness_triple != ("y", "z", "t") or (
            oracle.from_terms(_terms(verdict.witness)) != ref[(1, 2, 3)]
        ):
            return [f"negative control: verdict {verdict}"]
        return []


# -- leaf-sweep -----------------------------------------------------------------

POINTS_PER_BIVECTOR = 40


class LeafSweep(Workload):
    """One leaf_form_coefficient at a regular point per op."""

    name = "leaf-sweep"
    tail_pct = 99.0
    tail_per_round = True
    # At least 20 rounds (about 17 s): this workload's op time follows the
    # shared machine's speed most closely, and more rounds steady the medians.
    min_ops = 24_000
    trace_rounds = 1

    def __init__(self, seed):
        super().__init__(seed)
        # (model, s, with k) for every (model, s) pair, with and without k
        self.specs = [(n, s, wk) for n, s in charts.model_s_pairs() for wk in (False, True)]

    def setup(self, clock):
        k = clock(parse, to_poisson4(K_TEXT))
        self.bivectors, self.pool = [], []
        for idx, (name, s, with_k) in enumerate(self.specs):
            b = clock(flaschka_ratiu, clock(model, name, s).casimirs, k if with_k else None)
            self.bivectors.append(b)
            rng = self.rng("points", idx)
            self.pool += [(idx, regular_point(clock, rng, b, s)) for _ in range(POINTS_PER_BIVECTOR)]
        self.rng("order").shuffle(self.pool)
        self.pool = [(n,) + entry for n, entry in enumerate(self.pool)]
        self.warm_up(clock, self.pool)

    def rounds(self):
        while True:
            yield self.pool

    def op(self, inp):
        _, idx, p = inp
        return leaf_form_coefficient(self.bivectors[idx], p)

    @staticmethod
    def keep(inp, out):
        return inp[0], (out.coefficient, out.chart, out.area_coefficient)

    def check(self, outputs) -> list[str]:
        import oracle

        errors = []
        k_sym = oracle.sym(K_TEXT)
        by_spec: dict = {}
        for n, (coef, chart, area) in outputs.items():
            _, idx, p = self.pool[n]
            by_spec.setdefault(idx, []).append((p.coords(), coef, PAIR_NAMES.index("".join(chart)), area))
        for idx, rows in sorted(by_spec.items()):
            name, s, with_k = self.specs[idx]
            upper = oracle.bivector_entries(*oracle.chart(name, s))
            if with_k:
                upper = {ij: k_sym * e for ij, e in upper.items()}
            pts, coef, chart_idx, area = (np.array(col) for col in zip(*rows))
            label = f"{name} s={s}{' with k' if with_k else ''}"
            errors += oracle.check_leaf(label, upper, pts, float(s or 0), coef, chart_idx, area)
        return errors


# -- flow-rk4 -------------------------------------------------------------------

STARTS_PER_COMBO = 2


class FlowRK4(Workload):
    """One 1000-step RK4 flow at dt = 1e-3 plus its CSV export per op."""

    name = "flow-rk4"
    tail_pct = 90.0
    min_ops = 100
    trace_rounds = 1

    def setup(self, clock):
        # Choosing the start points runs every flow once: the warm-up pass.
        self.pool = []
        for c, (name, s, h_text) in enumerate(charts.FLOW_COMBOS):
            b = clock(flaschka_ratiu, clock(model, name, s).casimirs)
            h = clock(parse, to_poisson4(h_text))
            for j in range(STARTS_PER_COMBO):
                p, traj = flow_start(clock, self.rng("start", c, j), b, h, s)
                clock(traj.to_csv)
                self.pool.append((c, b, h, p))
        self.rng("order").shuffle(self.pool)
        self.pool = [(n,) + entry for n, entry in enumerate(self.pool)]

    def rounds(self):
        while True:
            yield self.pool

    @staticmethod
    def op(inp):
        _, _, b, h, p = inp
        return flow(b, h, p, FLOW_DT, FLOW_STEPS).to_csv()

    @staticmethod
    def keep(inp, csv):
        return inp[0], csv

    def check(self, outputs) -> list[str]:
        import oracle

        errors = []
        for n, text in sorted(outputs.items()):
            _, c, _, _, p = self.pool[n]
            name, s, h_text = charts.FLOW_COMBOS[c]
            c1, c2 = oracle.chart(name, s)
            label = f"{name} s={s} h={h_text} from {p.coords()}"
            errors += oracle.check_flow_csv(
                label, text, c1, c2, oracle.sym(h_text), p.coords(), float(s or 0)
            )
        return errors


# -- cli-cold -------------------------------------------------------------------

CLI_POOL_ROUNDS = 5
CLI_TIMEOUT_S = 60
# Inputs that break the CLI contract today (exit 2 expected, no traceback).
PROBES = (
    ("rank", "--model", "cusp", "--point", "nan,0,0,1"),
    ("locus", "--model", "cusp", "--point", "nan,0,0,1"),
)
CASIMIR_TESTS = ("x", "t", "x + y*z", "t^2 + 1")


class CliCold(Workload):
    """One fresh interpreter running ``python -m poisson4 ...`` per op."""

    name = "cli-cold"
    tail_pct = 75.0
    min_ops = 40
    trace_rounds = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    @staticmethod
    def _point_arg(coords) -> str:
        # Passed as --point=X,...: argparse takes "--point -1,..." for an option.
        return ",".join(repr(float(v)) for v in coords)

    def _source(self, rng, numeric):
        name = rng.choice(charts.NAMES)
        if not charts.CHARTS[name][2]:
            return name, None, ["--model", name]
        choices = charts.S_VALUES if numeric else (None,) + charts.S_VALUES
        s = rng.choice(choices)
        return name, s, ["--model", name] + ([] if s is None else ["--s", str(s)])

    @staticmethod
    def _regular_point(clock, rng, name, s):
        b = clock(flaschka_ratiu, clock(model, name, s).casimirs)
        return regular_point(clock, rng, b, s).coords()

    @staticmethod
    def _flow_start(clock, rng, combo):
        name, s, h_text = charts.FLOW_COMBOS[combo]
        b = clock(flaschka_ratiu, clock(model, name, s).casimirs)
        h = clock(parse, to_poisson4(h_text))
        return flow_start(clock, rng, b, h, s)[0].coords()

    def _round(self, clock, r):
        rng = self.rng("round", r)
        ops = [(("list-models", "--format", "json"), 0, ("catalogue",))]
        name, s, src = self._source(rng, numeric=False)
        ops.append((("bivector", *src, "--format", "json"), 0, ("bivector", name, s)))
        name, _, src = self._source(rng, numeric=False)
        ops.append((("jacobi", *src, "--k", to_poisson4(K_TEXT)), 0, ("jacobi",)))
        name, s, src = self._source(rng, numeric=False)
        h = rng.choice(CASIMIR_TESTS)
        ops.append((("casimir-check", *src, "--h", h), 0, ("casimir", name, s, h)))
        name, s, src = self._source(rng, numeric=True)
        p = self._regular_point(clock, rng, name, s)
        ops.append((("rank", *src, "--point=" + self._point_arg(p)), 0, ("rank", name, s, p)))
        name, s, src = self._source(rng, numeric=True)
        p = self._regular_point(clock, rng, name, s)
        ops.append(
            (("leaf-form", *src, "--point=" + self._point_arg(p), "--format", "json"), 0, ("leaf", name, s, p))
        )
        name, s, src = self._source(rng, numeric=True)
        if rng.random() < 0.5:
            p = self._regular_point(clock, rng, name, s)
        else:  # the origin is critical for every chart once s = 0
            p, s = (0.0, 0.0, 0.0, 0.0), (None if s is None else 0)
            src = ["--model", name] + ([] if s is None else ["--s", "0"])
        ops.append((("locus", *src, "--point=" + self._point_arg(p)), 0, ("locus", name, s, p)))
        combo = rng.randrange(len(charts.FLOW_COMBOS))
        name, s, h_text = charts.FLOW_COMBOS[combo]
        p = self._flow_start(clock, rng, combo)
        src = ["--model", name] + ([] if s is None else ["--s", str(s)])
        ops.append(
            (
                ("flow", *src, "--h", to_poisson4(h_text), "--point=" + self._point_arg(p),
                 "--dt", repr(FLOW_DT), "--steps", str(FLOW_STEPS)),
                0,
                ("flow", name, s, h_text, p),
            )
        )
        ops += [(probe, 2, ("probe",)) for probe in PROBES]
        rng.shuffle(ops)
        return ops

    def setup(self, clock):
        self.pool = [self._round(clock, r) for r in range(CLI_POOL_ROUNDS)]
        self.warm_up(clock, self.pool[0])

    def rounds(self):
        r = 0
        while True:
            yield self.pool[r % CLI_POOL_ROUNDS]
            r += 1

    def op(self, inp):
        argv, expected_rc, _ = inp
        if self.launcher_trace is None:
            cmd = [sys.executable, "-m", "poisson4", *argv]
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )
        else:
            proc = self._traced(argv)
        if proc.returncode != expected_rc or "Traceback" in proc.stderr:
            raise OpFailed(f"{' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc

    def _traced(self, argv):
        read_fd, write_fd = os.pipe()
        env = dict(self.env, PERFBENCH_TRACE_FD=str(write_fd))
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "launch.py"), *argv],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CLI_TIMEOUT_S, pass_fds=(write_fd,),
            )
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd) as f:
            payload = f.read()
        if payload:
            self.launcher_trace(json.loads(payload))
        return proc

    @staticmethod
    def keep(inp, out):
        argv, _, what = inp
        return (argv, what), out.stdout

    @staticmethod
    def cpu() -> float:
        return time.process_time() + children_cpu()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def check(self, outputs) -> list[str]:
        import oracle

        errors = []
        for (argv, what), stdout in outputs.items():
            errors += [f"{' '.join(argv)}: {e}" for e in self._check_one(oracle, what, stdout)]
        return errors

    @staticmethod
    def _check_one(oracle, what, stdout) -> list[str]:
        kind = what[0]
        if kind == "catalogue":
            models = json.loads(stdout)["models"]
            errors = [] if [m["name"] for m in models] == list(charts.NAMES) else ["model names differ"]
            for m in models:
                c1, c2 = oracle.chart(m["name"])
                if oracle.sym(m["c1"]) != c1 or oracle.sym(m["c2"]) != c2:
                    errors.append(f"{m['name']}: chart ({m['c1']}, {m['c2']}) differs")
                upper = {(i, j): oracle.sym(m["bivector"]["matrix"][i][j]) for i, j in oracle.PAIRS}
                errors += oracle.check_bivector(m["name"], upper, None, c1, c2, None)
            return errors
        if kind == "bivector":
            _, name, s = what
            data = json.loads(stdout)
            upper = {(i, j): oracle.sym(data["matrix"][i][j]) for i, j in oracle.PAIRS}
            return oracle.check_bivector(name, upper, None if data["k"] is None else oracle.sym(data["k"]),
                                         *oracle.chart(name, s), None)
        if kind == "jacobi":
            return [] if stdout == "Poisson: true\n" else [f"verdict {stdout!r}"]
        if kind == "casimir":
            _, name, s, h = what
            upper = oracle.bivector_entries(*oracle.chart(name, s))
            expected = "C1: true\nC2: true\nh: %s\n" % str(oracle.annihilates(upper, oracle.sym(h))).lower()
            return [] if stdout == expected else [f"output {stdout!r}, expected {expected!r}"]
        if kind == "probe":
            return []
        name, s, p = what[1], what[2], what[-1]
        pts = np.array([p], dtype=float)
        if kind in ("rank", "locus"):
            upper = oracle.bivector_entries(*oracle.chart(name, s))
            vals = np.array([oracle.numeric(upper[ij], float(s or 0))(pts)[0] for ij in oracle.PAIRS])
            if kind == "rank":
                expected = "rank: %d\n" % (2 if np.max(np.abs(vals)) > 0 else 0)
            else:
                expected = "critical: %s\n" % str(bool(np.all(np.abs(vals) <= 1e-9))).lower()
            return [] if stdout == expected else [f"output {stdout!r}, expected {expected!r}"]
        if kind == "leaf":
            data = json.loads(stdout)
            upper = oracle.bivector_entries(*oracle.chart(name, s))
            chart_idx = PAIR_NAMES.index("".join(data["chart"]))
            return oracle.check_leaf(name, upper, pts, float(s or 0), [data["coefficient"]],
                                     [chart_idx], [data["area_coefficient"]])
        _, name, s, h_text, p = what
        c1, c2 = oracle.chart(name, s)
        return oracle.check_flow_csv(name, stdout, c1, c2, oracle.sym(h_text), p, float(s or 0))


WORKLOADS = {w.name: w for w in (ExactCatalogue, LeafSweep, FlowRK4, CliCold)}
