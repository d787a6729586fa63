"""``parse`` pinned, input by input, to a digest of its outcomes.

The inputs are a seeded stream of 30,000 texts and a list of boundary
cases.  The stream mixes expressions drawn from the grammar, some with a
character inserted, deleted or replaced, and strings of random characters:
every operator and letter, ASCII and other Unicode decimal digits, Unicode
spaces, characters the grammar has no place for, and empty and
whitespace-only text.  The boundary cases sit on each bound of the parser
and one step past it.

An outcome is the printed polynomial, or the exception's type, message and
column.  ``EXPECTED`` is the digest of the outcomes as the parser gave them
when this test was written, so a change to the parser that moves any
result, error message or column fails here.  To find the inputs that moved,
print the outcomes under the old and the new source and compare them::

    PYTHONPATH=src python tests/test_parse_parity.py > new.txt
"""

import hashlib
import random
import re
import sys

from poisson4.expr import (
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    MAX_TERMS,
    ParseError,
    parse,
)

EXPECTED = "c15b6e4836dcdea0331bb0deabd285ec42282dd6219e677c317c9a4ebe245646"

SEED = 23
COUNT = 30_000

DIGITS = "0123456789"
OTHER_DIGITS = "٣５१\U0001d7d8"  # Arabic-Indic 3, fullwidth 5, Devanagari 1, math 0
SPACES = " \t\n  　"
LETTERS = "xyzts"
OPERATORS = "+-*/^()"
STRAY = "$w.,=_é²"  # no token starts with any of these
ALPHABET = DIGITS + OTHER_DIGITS + SPACES + LETTERS + OPERATORS + STRAY


def _number(rng: random.Random) -> str:
    digits = DIGITS if rng.random() < 0.9 else DIGITS + OTHER_DIGITS
    return "".join(rng.choice(digits) for _ in range(rng.randint(1, 3)))


def _expression(rng: random.Random, depth: int) -> str:
    """A text of the grammar, with random spacing between its tokens."""
    def gap() -> str:
        return rng.choice(("", "", "", " ", rng.choice(SPACES)))

    def base() -> str:
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            return rng.choice(LETTERS)
        if roll < 0.6:
            number = _number(rng)
            return number + (f"{gap()}/{gap()}{_number(rng)}" if rng.random() < 0.3 else "")
        if roll < 0.85:
            return f"({gap()}{_expression(rng, depth - 1)}{gap()})"
        return "-" + gap() + base()

    def factor() -> str:
        text = base()
        if rng.random() < 0.2:
            roll = rng.random()
            if roll < 0.05:
                exponent = str(MAX_EXPONENT + (roll < 0.025))
            else:
                exponent = rng.choice((_number(rng)[:1], "2", "3"))
            text += f"{gap()}^{gap()}{exponent}"
        return text

    def term() -> str:
        return f"{gap()}*{gap()}".join(factor() for _ in range(rng.randint(1, 2)))

    text = term()
    for _ in range(rng.randint(0, 2)):
        text += gap() + rng.choice("+-") + gap() + term()
    return gap() + text + gap()


def _mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.4:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif roll < 0.7:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
    return text


def random_inputs() -> list[str]:
    rng = random.Random(SEED)
    out = []
    for _ in range(COUNT):
        roll = rng.random()
        if roll < 0.45:
            out.append(_expression(rng, rng.randint(0, 2)))
        elif roll < 0.8:
            out.append(_mutated(rng, _expression(rng, rng.randint(0, 2))))
        elif roll < 0.95:
            n = rng.randint(0, 12)
            out.append("".join(rng.choice(ALPHABET) for _ in range(n)))
        else:
            out.append("".join(rng.choice(SPACES) for _ in range(rng.randint(0, 4))))
    return out


def boundary_inputs() -> list[str]:
    long_ok, long_bad = "9" * MAX_LITERAL_DIGITS, "9" * (MAX_LITERAL_DIGITS + 1)
    wide = " + ".join(f"x^{i}" for i in range(MAX_TERMS // 25))
    power = "(x+y+z)^43"
    out = [
        "", " ", " ", " \t\n　 ",
        # literals of 1000 and 1001 digits, wherever a literal can stand
        long_ok, long_bad, "٣" * MAX_LITERAL_DIGITS, "٣" * (MAX_LITERAL_DIGITS + 1),
        f"x * {long_ok}", f"x * {long_bad}", f"x {long_bad}", f"1/{long_ok}", f"1/{long_bad}",
        f"x^{long_bad}", f"x^{long_ok}", f"{long_bad} $", f"$ {long_bad}", f"x + {long_bad} +",
        f"({long_bad}", f"x^2 {long_bad}",
        # nesting of 100 and 101 levels
        "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
        "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        "-" * MAX_NESTING + "x", "-" * (MAX_NESTING + 1) + "x",
        "-(" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2),
        "-(" * (MAX_NESTING // 2) + "-x" + ")" * (MAX_NESTING // 2),
        "(" * MAX_NESTING + "x" + ")" * (MAX_NESTING - 1),
        "(" * (MAX_NESTING + 1) + "$",
        # exponents 64 and 65
        f"x^{MAX_EXPONENT}", f"x^{MAX_EXPONENT + 1}", f"(x + 1)^{MAX_EXPONENT}",
        f"(x + 1)^{MAX_EXPONENT + 1}", "x^٦٤", "x^٦٥", "x^0064", "x^0065",
        f"x^{MAX_EXPONENT + 1} $", "x^ 2", "x^-2", "x^y", "x^", "x^$", "x^(2)",
        # the term bound of a power and of a product
        "(x+y+z+t+s)^9", "(x+y+z+t+s)^10", "(x+y+z+t+s)^24",
        f"({wide}) * ({' + '.join(f'y^{j}' for j in range(25))})",
        f"({wide}) * ({' + '.join(f'y^{j}' for j in range(25))} + z)",
        # the work bound of a parse
        f"{power} + {power}", f"{power} $ + {power}", f"{power} * 0",
        # rationals and the parser's other errors
        "1/0", "1/00", "x/2", "1/2/3", "1/ 2", "1 /x", "1/", "2*", "+x", "x + + y", "x y",
        "x + * y", "()", "(x", "x)", "(x + y", "(x $", "$", "x $", "x + $", "²", "٣x",
    ]
    assert MAX_TERM_PRODUCTS == 100_000  # the power above and its double straddle it
    return out


def outcome(text: str) -> str:
    try:
        return "ok " + str(parse(text))
    except ParseError as err:
        return f"ParseError {err} | column {err.column}"
    except Exception as err:  # recorded, not raised: the digest pins it too
        return f"{type(err).__name__} {err}"


def outcomes() -> list[str]:
    return [f"{text!r} -> {outcome(text)}" for text in random_inputs() + boundary_inputs()]


def test_outcomes_match_the_pinned_digest():
    digest = hashlib.sha256("\n".join(outcomes()).encode("utf-8")).hexdigest()
    assert digest == EXPECTED


def test_regex_classes_are_the_str_predicates():
    # The tokenizer reads whitespace with \s and literals with \d; on str
    # patterns they match exactly str.isspace and str.isdecimal.
    space, digit = re.compile(r"\s"), re.compile(r"\d")
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        assert bool(space.match(ch)) == ch.isspace(), hex(code)
        assert bool(digit.match(ch)) == ch.isdecimal(), hex(code)


if __name__ == "__main__":
    sys.stdout.reconfigure(errors="backslashreplace")
    print("\n".join(outcomes()))
