"""Command-line front end.

Every math subcommand is a thin adapter over the library.  Its inputs are
resolved in one place, :func:`_source`: the parameter ``--s``, exactly one of
``--model`` or both ``--c1`` and ``--c2``, and the conformal factor ``--k``,
each expression parsed with s substituted, give the bivector; ``--point``,
``--h``, ``--dt`` and ``--steps`` are checked there too, before the bivector
is built, so a usage error prints nothing else.  The command then calls one
library operation and prints the payload; the commands that take ``--point``
evaluate there through :func:`_at_point`.  Exit codes: 0 success, 1
mathematical failure (singular point, anchor not in the image, non-Poisson
verdict under --expect-poisson, non-finite trajectory, an evaluation that
overflows, a coefficient too long to print), ``leaf-form`` where numpy is
not installed, or a stdout whose reader has closed, 2 usage error.

The flow module ``rk4`` is imported inside ``flow``, and the leaf-form module
``leaves``, which imports numpy for its least-squares and linear solves, only
inside ``leaf-form``.  ``rank`` takes its singular values in closed form on
Python floats, so every other command starts without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from . import SCHEMA_VERSION, __version__
from .expr import DegreeLimitError, DigitLimitError, Expr, ParseError, Point4, parse
from .models import MODEL_NAMES, catalogue_json, model, on_critical_locus
from .poisson import (
    Bivector,
    CasimirPair,
    bivector_to_json_dict,
    casimir_check,
    flaschka_ratiu,
    is_poisson,
    rank_at,
)

# A flow keeps every step: 100,000 cusp steps take 0.4 s and 50 MB.  --s counts
# mantissa digits plus exponent magnitude, so s < 10^308 and 1e99999999 is not built.
MAX_STEPS = 100_000
MAX_S_DIGITS = 308


class UsageError(Exception):
    """Invalid invocation; reported on stderr with exit status 2."""


class MathError(Exception):
    """Well-formed invocation that fails: its mathematical outcome, or no numpy for leaf-form."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, but ``--help`` and ``--version`` let a closed stdout fail.

    argparse ignores an ``OSError`` from any message it writes, so an
    unbuffered stdout whose reader has closed would exit 0 there, while a
    buffered one fails at ``main``'s flush.  A write to stdout raises here as
    in every command; messages to stderr keep argparse's handling.
    """

    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="poisson4",
        description="Poisson bivectors on R^4 from Casimir pairs",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"poisson4 {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--model", choices=MODEL_NAMES, help="built-in model")
    source.add_argument("--c1", help="first Casimir (expression)")
    source.add_argument("--c2", help="second Casimir (expression)")
    source.add_argument("--s", help="parameter value (exact rational or decimal)")
    source.add_argument("--k", help="conformal factor (expression)")

    p = sub.add_parser("bivector", parents=[source], help="print the bivector")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("jacobi", parents=[source], help="check the Jacobi identity")
    p.add_argument(
        "--expect-poisson",
        action="store_true",
        help="exit 1 when the Jacobiator does not vanish",
    )

    p = sub.add_parser(
        "casimir-check", parents=[source], help="verify Casimir annihilation"
    )
    p.add_argument("--h", help="extra function to test (expression)")

    p = sub.add_parser("rank", parents=[source], help="rank at a point")
    p.add_argument("--point", required=True, help="comma-separated x,y,z,t")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser(
        "leaf-form", parents=[source], help="leaf symplectic coefficient at a point"
    )
    p.add_argument("--point", required=True, help="comma-separated x,y,z,t")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("flow", parents=[source], help="integrate a Hamiltonian flow")
    p.add_argument("--h", required=True, help="Hamiltonian (expression)")
    p.add_argument("--point", required=True, help="initial point x,y,z,t")
    p.add_argument("--dt", type=float, default=1e-3, help="step size")
    p.add_argument("--steps", type=int, default=1000, help="number of steps")
    p.add_argument("--format", choices=("csv", "text", "json"), default="csv")

    p = sub.add_parser(
        "locus", parents=[source], help="critical-locus membership at a point"
    )
    p.add_argument("--point", required=True, help="comma-separated x,y,z,t")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("list-models", help="print the model catalogue")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _parse_s(text: Optional[str]) -> Optional[Fraction]:
    if text is None:
        return None
    mantissa, _, exponent = text.lower().partition("e")
    try:
        if sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0)) <= MAX_S_DIGITS:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"--s: not a rational number: {text!r}") from err
    raise UsageError(f"--s: more than {MAX_S_DIGITS} digits with the exponent")


def _parse_point(text: str, s: Optional[Fraction]) -> Point4:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--point: expected four comma-separated coordinates")
    try:
        coords = [float(v) for v in parts]
    except ValueError as err:
        raise UsageError(f"--point: bad coordinate in {text!r}") from err
    if not all(math.isfinite(c) for c in coords):
        raise UsageError(f"--point: coordinates must be finite, got {text!r}")
    return Point4(*coords, s=0.0 if s is None else float(s))


def _expr(args, flag: str, s: Optional[Fraction]) -> Optional[Expr]:
    """The expression option ``flag`` with s substituted; None when absent."""
    text = getattr(args, flag[2:])
    if text is None:
        return None
    try:
        e = parse(text)
    except ParseError as err:
        raise UsageError(f"{flag}: {err}") from err
    return e if s is None else e.substitute_s(s)


def _source(args) -> tuple[Bivector, Optional[Point4], Optional[Expr]]:
    """The bivector of --model or --c1/--c2 with --k, --point and --h.

    Every option the command takes (--s, the source, --k, --point, --h, --dt
    and --steps) is checked before the bivector is built, so a usage error is
    never preceded by the probe's warning about k.  A command that takes
    --point evaluates at a value of s, so a parametric model needs --s there.
    The point and h are None for a command without them.
    """
    s = _parse_s(args.s)
    options = vars(args)
    given = sum(text is not None for text in (args.c1, args.c2))
    if given != (0 if args.model is not None else 2):
        raise UsageError("provide exactly one of --model or both --c1 and --c2")
    if args.model is not None:
        try:
            spec = model(args.model, s)
        except ValueError as err:
            raise UsageError(str(err)) from err
        if s is None and "point" in options and spec.uses_s:
            raise UsageError(f"--s: required for model {args.model!r} here")
        pair = spec.casimirs
    else:
        pair = CasimirPair(_expr(args, "--c1", s), _expr(args, "--c2", s))
    k = _expr(args, "--k", s)
    p = _parse_point(args.point, s) if "point" in options else None
    h = _expr(args, "--h", s) if "h" in options else None
    if "dt" in options:
        if not math.isfinite(args.dt):
            raise UsageError("--dt: must be finite")
        if args.dt < 0:
            raise UsageError("--dt: must be non-negative")
        if not 1 <= args.steps <= MAX_STEPS:
            raise UsageError(f"--steps: must be from 1 to {MAX_STEPS}")
    try:
        return flaschka_ratiu(pair, k), p, h
    except ValueError as err:
        raise UsageError(f"--k: {err}") from err


def _at_point(fn, b: Bivector, p: Point4):
    """fn(b, p); an overflow is a mathematical failure."""
    try:
        return fn(b, p)
    except OverflowError as err:
        raise MathError(f"evaluation at {p} left double precision") from err


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _cmd_bivector(args) -> None:
    b, _, _ = _source(args)
    data = bivector_to_json_dict(b)
    if args.format == "json":
        print(json.dumps(data, indent=2))
        return
    print("coords: " + " ".join(data["coords"]))
    print(f"k: {data['k'] if data['k'] is not None else 'symbolic'}")
    for row in data["matrix"]:
        print("  [" + ", ".join(row) + "]")


def _cmd_jacobi(args) -> None:
    b, _, _ = _source(args)
    verdict = is_poisson(b)
    if verdict:
        print("Poisson: true")
        return
    names = ",".join(verdict.witness_triple)
    print(f"Poisson: false (J^({names}) = {verdict.witness})")
    if args.expect_poisson:
        raise MathError("Jacobi identity fails and --expect-poisson is set")


def _cmd_casimir_check(args) -> None:
    b, _, h = _source(args)
    print(f"C1: {str(casimir_check(b, b.casimirs.c1)).lower()}")
    print(f"C2: {str(casimir_check(b, b.casimirs.c2)).lower()}")
    if h is not None:
        print(f"h: {str(casimir_check(b, h)).lower()}")


def _cmd_rank(args) -> None:
    b, p, _ = _source(args)
    r = _at_point(rank_at, b, p)
    if args.format == "json":
        print(json.dumps({"point": list(p.coords()), "s": p.s, "rank": r}))
    else:
        print(f"rank: {r}")


def _cmd_leaf_form(args) -> None:
    b, p, _ = _source(args)
    try:
        # leaves first: a fresh process compiles it more slowly once numpy is loaded.
        from .leaves import NotInImageError, SingularPointError, leaf_form_coefficient

        # Probed on its own: leaves may have been loaded while numpy was there.
        import numpy  # noqa: F401
    except ModuleNotFoundError as err:
        if err.name != "numpy":
            raise
        raise MathError("leaf-form needs numpy, which is not installed") from None
    try:
        r = _at_point(leaf_form_coefficient, b, p)
    except (SingularPointError, NotInImageError) as err:
        raise MathError(str(err)) from err
    if args.format == "json":
        print(
            json.dumps(
                {
                    "point": list(p.coords()),
                    "s": p.s,
                    "coefficient": r.coefficient,
                    "chart": list(r.chart),
                    "area_coefficient": r.area_coefficient,
                    "antisymmetry_defect": r.antisymmetry_defect,
                }
            )
        )
        return
    print(f"coefficient: {_fmt(r.coefficient)} (chart {r.chart[0]},{r.chart[1]})")
    print(f"area coefficient: {_fmt(r.area_coefficient)}")


def _cmd_flow(args) -> None:
    from .rk4 import NonFiniteError, flow

    b, p0, h = _source(args)
    try:
        traj = flow(b, h, p0, args.dt, args.steps)
    except NonFiniteError as err:
        raise MathError(str(err)) from err
    if args.format == "csv":
        sys.stdout.write(traj.to_csv())
    elif args.format == "json":
        print(
            json.dumps(
                {
                    "dt": traj.dt,
                    "steps": args.steps,
                    "drift": {k: traj.drift[k] for k in sorted(traj.drift)},
                    "final": [column[-1] for column in traj.columns],
                }
            )
        )
    else:
        for key in ("C1", "C2", "H"):
            if key in traj.drift:
                print(f"max |{key} - {key}(0)| = {_fmt(traj.drift[key])}")


def _cmd_locus(args) -> None:
    b, p, _ = _source(args)
    on_locus = _at_point(on_critical_locus, b, p)
    if args.format == "json":
        print(json.dumps({"point": list(p.coords()), "s": p.s, "critical": on_locus}))
    else:
        print(f"critical: {str(on_locus).lower()}")


def _cmd_list_models(args) -> None:
    if args.format == "json":
        print(catalogue_json())
        return
    for name in MODEL_NAMES:
        spec = model(name)
        tag = "s" if spec.uses_s else "-"
        print(f"{name:10s} [{tag}]  C1 = {spec.casimirs.c1}  C2 = {spec.casimirs.c2}")


_HANDLERS = {
    "bivector": _cmd_bivector,
    "jacobi": _cmd_jacobi,
    "casimir-check": _cmd_casimir_check,
    "rank": _cmd_rank,
    "leaf-form": _cmd_leaf_form,
    "flow": _cmd_flow,
    "locus": _cmd_locus,
    "list-models": _cmd_list_models,
}


# The options that take a value; a value may begin with '-'.
_VALUE_OPTIONS = frozenset(
    ("--model", "--c1", "--c2", "--s", "--k", "--h", "--point", "--dt", "--steps",
     "--format")
)


def _attach_values(argv: list[str]) -> list[str]:
    """Rewrite ``--s -1/2`` as ``--s=-1/2``, for every option that takes a value.

    argparse reads an argument that starts with '-' and is not a plain negative
    number as an option, so a value such as a negative point, s, dt or
    expression would otherwise be accepted only in the ``=`` form.  The option
    is named as argparse reads it: in full, or by a prefix of that name alone
    (``--poi`` for ``--point``).  An argument that starts with '--' stays an
    option: in ``--c1 --c2 y`` the value of --c1 is still missing.
    """
    out: list[str] = []
    for arg in argv:
        if out and arg[:1] == "-" and arg[:2] != "--" and (
            out[-1] in _VALUE_OPTIONS
            or sum(name.startswith(out[-1]) for name in _VALUE_OPTIONS) == 1
        ):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_values(argv))
    except SystemExit as exit_:  # argparse handles --version/--help/usage
        return int(exit_.code or 0)
    try:
        _HANDLERS[args.subcommand](args)
    except UsageError as err:
        print(f"poisson4: error: {err}", file=sys.stderr)
        return 2
    except (MathError, DegreeLimitError, DigitLimitError) as err:
        print(f"poisson4: {err}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a pipe is block-buffered: a closed one fails here
    except BrokenPipeError:
        # Python's documented handling: point stdout at os.devnull, so that
        # the flush at exit cannot fail again, and exit 1 with no traceback.
        # Output redirected in process may have no descriptor to point.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
