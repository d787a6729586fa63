"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For every workload it runs one round, requires the checks to pass on
poisson4's real outputs, then plants one wrong output at a time and requires
the checks to report it.  Exits 0 when every planted error is caught.
"""

import json

import run


def _planted(outputs, key, value):
    return {**outputs, key: value}


def plant_exact(outputs):
    key = next(k for k in outputs if k[0] == "random")
    upper, k, verdict, ok1, ok2 = outputs[key]
    extra = ((0, 0, 0, 0, 7), 1)  # pi^{xy} + s^7
    yield "random pair with a wrong pi^{xy}", _planted(
        outputs, key, ((upper[0] + (extra,),) + upper[1:], k, verdict, ok1, ok2)
    )
    key = ("model", "cusp", True)
    upper, k, _, ok1, ok2 = outputs[key]
    yield "catalogue op with a false Jacobi verdict", _planted(outputs, key, (upper, k, False, ok1, ok2))


def plant_leaf(outputs):
    coef, chart, area = outputs[0]
    yield "coefficient off by 1e-10 (relative)", _planted(outputs, 0, (coef * (1 + 1e-10), chart, area))
    coef, chart, area = outputs[1]
    yield "wrong chart", _planted(outputs, 1, (coef, ("x", "y"), area))


def plant_flow(outputs):
    lines = outputs[0].splitlines()
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) + 1e-6)
    yield "final point moved by 1e-6", _planted(outputs, 0, "\n".join(lines[:-1] + [",".join(last)]) + "\n")


def plant_cli(outputs):
    key = next(k for k in outputs if k[0][0] == "leaf-form")
    data = json.loads(outputs[key])
    data["coefficient"] *= 1 + 1e-10
    yield "leaf-form coefficient off by 1e-10", _planted(outputs, key, json.dumps(data) + "\n")
    key = next(k for k in outputs if k[0][0] == "jacobi")
    yield "jacobi verdict false", _planted(outputs, key, "Poisson: false\n")


PLANTS = {
    "exact-catalogue": plant_exact,
    "leaf-sweep": plant_leaf,
    "flow-rk4": plant_flow,
    "cli-cold": plant_cli,
}


def main() -> int:
    workloads = run.load_poisson4()
    ok = True
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0)
        w.setup(workloads.Clock())
        _, outputs, _, _, _ = run.timed_phase(w, 0.0, rounds_limit=1)
        errors = w.check(outputs)
        print(f"{name}: real outputs: {'pass' if not errors else errors[:3]}")
        ok &= not errors
        for what, planted in PLANTS[name](outputs):
            caught = w.check(planted)
            print(f"{name}: planted {what}: {'caught: ' + caught[0][:100] if caught else 'MISSED'}")
            ok &= bool(caught)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
