"""Byte pins: the sha256 of fixed commands' stdout, and their exit codes.

The commands run in-process through ``cli.main``: ``bivector --format json``
and ``jacobi`` for every model, with and without the conformal factor
``K``, and ``casimir-check --h x``, each with ``--s 1`` on the parametric
models; and every command of the README's "Command line" block.  The pins
hold bracket strings, Jacobi verdicts, JSON and CSV bytes.  A change meant
to keep results as they are leaves every pin alone; one that means to move
a result updates its pin and says why.
"""

import hashlib
import shlex
from pathlib import Path

import pytest

from poisson4.cli import main
from poisson4.models import MODEL_NAMES, model

K = "1+x^2+y^2+z^2+t^2"
README = Path(__file__).resolve().parent.parent / "README.md"

PINS = {
    "bivector --model lefschetz --format json":
        (0, "03474b189b8f8cbf7f9bcaf9c6942062118119b907b23c6d498945333b09779c"),
    "jacobi --model lefschetz":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "bivector --model lefschetz --k '1+x^2+y^2+z^2+t^2' --format json":
        (0, "b478f53db86c90aed2c9f4ad1af35b83da93d0d46cc2461ffcce5786779fccc0"),
    "jacobi --model lefschetz --k '1+x^2+y^2+z^2+t^2'":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "casimir-check --model lefschetz --h x":
        (0, "93fa83aea8777c5026533421352cfa767864c3ce38df6df450cade72e98e537b"),
    "bivector --model fold --format json":
        (0, "12eb7e16fa3b089470bc9bfcd508d4ea6d5a8af218f53372edc924822b33082a"),
    "jacobi --model fold":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "bivector --model fold --k '1+x^2+y^2+z^2+t^2' --format json":
        (0, "b16201b8457d84cc447c1330aafd83a96fee24c171fe8e360eb79c08bed98a2f"),
    "jacobi --model fold --k '1+x^2+y^2+z^2+t^2'":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "casimir-check --model fold --h x":
        (0, "93fa83aea8777c5026533421352cfa767864c3ce38df6df450cade72e98e537b"),
    "bivector --model cusp --format json":
        (0, "457c970649f687691b3594579faef19f5b0362d3a0adc76c9175f8db8d156c70"),
    "jacobi --model cusp":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "bivector --model cusp --k '1+x^2+y^2+z^2+t^2' --format json":
        (0, "2d73bfc5709dd0e7a96f0412145473cc1ec1e9adfec8305b389b3bb9ec7b90ca"),
    "jacobi --model cusp --k '1+x^2+y^2+z^2+t^2'":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "casimir-check --model cusp --h x":
        (0, "93fa83aea8777c5026533421352cfa767864c3ce38df6df450cade72e98e537b"),
    "bivector --model birth --s 1 --format json":
        (0, "79764c8d877af8fd32262a87a7e5c08d6348d10bdc3b76dea54bcd2b2e2a742a"),
    "jacobi --model birth --s 1":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "bivector --model birth --s 1 --k '1+x^2+y^2+z^2+t^2' --format json":
        (0, "92647e33cebcaf4970f4334fe5ba162cffc9176759da7340b225c0f84cede2c3"),
    "jacobi --model birth --s 1 --k '1+x^2+y^2+z^2+t^2'":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "casimir-check --model birth --s 1 --h x":
        (0, "93fa83aea8777c5026533421352cfa767864c3ce38df6df450cade72e98e537b"),
    "bivector --model merge --s 1 --format json":
        (0, "2d820f35d91ee62a41d6e03b85e097ba0db0d2fcdf425a74e36c2d58d9a9f28d"),
    "jacobi --model merge --s 1":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "bivector --model merge --s 1 --k '1+x^2+y^2+z^2+t^2' --format json":
        (0, "09b0038a3da9f48880730ca18e0bdc47a7a7fee5b21b3fb5ebf2a9c70d221314"),
    "jacobi --model merge --s 1 --k '1+x^2+y^2+z^2+t^2'":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "casimir-check --model merge --s 1 --h x":
        (0, "93fa83aea8777c5026533421352cfa767864c3ce38df6df450cade72e98e537b"),
    "bivector --model flip --s 1 --format json":
        (0, "77bc9649c49b8ca281e022bccf69a1d3603501b95acc221464ef7f68a7035386"),
    "jacobi --model flip --s 1":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "bivector --model flip --s 1 --k '1+x^2+y^2+z^2+t^2' --format json":
        (0, "c6a933d0222ac10cf748ea3c92f8a1dc114e0c13d8c544b2593613523d9e27bd"),
    "jacobi --model flip --s 1 --k '1+x^2+y^2+z^2+t^2'":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "casimir-check --model flip --s 1 --h x":
        (0, "93fa83aea8777c5026533421352cfa767864c3ce38df6df450cade72e98e537b"),
    "bivector --model wrinkle --s 1 --format json":
        (0, "eb18cc3b787018b6c28a111e9687e17efccff778881f4a52552c0f196d29a91b"),
    "jacobi --model wrinkle --s 1":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "bivector --model wrinkle --s 1 --k '1+x^2+y^2+z^2+t^2' --format json":
        (0, "00e815ec2010859645111548be09f3b975e2bdeb0fe18d55d8b166599798bc8b"),
    "jacobi --model wrinkle --s 1 --k '1+x^2+y^2+z^2+t^2'":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "casimir-check --model wrinkle --s 1 --h x":
        (0, "93fa83aea8777c5026533421352cfa767864c3ce38df6df450cade72e98e537b"),
    "list-models":
        (0, "64341934ed8a9347ef67e71beaab4b016ac30802e0e8a5c2b877b6f8c34e734a"),
    "bivector --c1 t --c2 'x^3 - 3*x*t + y^2 - z^2'":
        (0, "a3d391f035bdf9ea97578c56dddce061ce867a76374f6249495fec669dd19ae2"),
    "jacobi --model wrinkle --k '1 + x^2 + y^2 + z^2 + t^2'":
        (0, "d28382957683a8d2bc453d318793fb74acdc639cc4f241e0e530649d3de69dba"),
    "rank --model cusp --point 1,0,0,1":
        (0, "45bd5d6ad0da0230d0f299d28e5d4688e38cf64e7e75fc77e97cc1e133aaf38a"),
    "leaf-form --model merge --s 0 --point 1,1,0,0":
        (0, "4d8a37e8cd4e61ddc8a356948a17456b41f027ac23ca3a7ecd3bfcd91b5e0d5b"),
    "flow --model cusp --h x --point 0,1,1,1 --dt 0.001 --steps 1000":
        (0, "c177f91e1f8050e4fca08856e24d880a1dd8514de0e59d518898e87b4f79eb4e"),
    "locus --model cusp --point 1,0,0,1":
        (0, "6331274892174e040fb9b2f203a9744df557ac66f9c9bbec6c834edc07773763"),
}


def _model_commands() -> list[str]:
    commands = []
    for name in MODEL_NAMES:
        source = ["--model", name] + (["--s", "1"] if model(name).uses_s else [])
        for k in ([], ["--k", K]):
            commands.append(["bivector", *source, *k, "--format", "json"])
            commands.append(["jacobi", *source, *k])
        commands.append(["casimir-check", *source, "--h", "x"])
    return [shlex.join(argv) for argv in commands]


def _readme_commands() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.join(shlex.split(line)[1:])
        for line in block.splitlines()
        if line.startswith("poisson4 ")
    ]


def test_every_command_is_pinned():
    assert set(_model_commands() + _readme_commands()) == set(PINS)


@pytest.mark.parametrize("command", list(PINS))
def test_pinned_output(command, capsys):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINS[command]
