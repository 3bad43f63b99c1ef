"""Golden CLI corpus: every command's exact output on seven small ideals,
and the `apply` image of an operator on two more.

tests/data/golden/<name>.ideal holds an input and <name>.out the
transcript of the commands in COMMANDS run on it, in text mode and with
--json (minus the `timings_ms` object, the one field that varies between
runs): the argv, the exit code, stdout and stderr.  The test compares the
transcripts byte for byte, so any change to a printed result, a canonical
form, a chosen basis or a search outcome shows up here.

An `apply` input reads its first line as the operator and the rest as a
zero-dimensional ideal, which no golden ideal is.  So those inputs are
tests/data/golden/<name>.apply, run through APPLY_COMMANDS only; the
suffix keeps them out of the other test modules' `*.ideal` globs.

The transcripts were recorded before the reduction strategy of `gb` was
rewritten; the `--main-var` entries other than `eliminate` were added, and
recorded, before `--main-var` handling in `cli` was folded into one place;
the `mul`, `apply` and `shear` entries before `cli` rendered each result once;
the `.apply` transcripts before the sparse sums of `arith` and `ore` were
merged in place; `unit`, the unit ideal (quotient dimension 0), before
`shape` stopped special-casing that quotient.
Re-record them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --record

`--check` compares without pytest and without `assert`, so it also runs
under `python -O` and where pytest is not installed; it exits non-zero on
any mismatch:

    PYTHONPATH=src python -O tests/test_golden.py --check

The module does not import pytest for that reason; the `pytest_generate_tests`
hook below gives pytest one test per ideal.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from oreshape.cli import main
from oreshape.parsing import parse_ideal_file

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = (
    ("parse",),
    ("mul",),
    ("apply", "--trunc", "4"),
    ("shear", "--shear", "{shear}"),
    ("gb", "--order", "degrevlex"),
    ("gb", "--order", "lex"),
    ("gb", "--order", "elim"),
    ("dim",),
    ("eliminate", "--method", "krylov"),
    ("eliminate", "--method", "elim-order"),
    ("eliminate", "--main-var", "{last_dy}"),
    ("shape",),
    ("normalize",),
    ("solve", "--trunc", "6"),
    ("wronskian", "--trunc", "6"),
    ("check-dradical", "--trunc", "5", "--degree-bound", "1"),
    ("gauge",),
    ("shape", "--main-var", "{last_dy}"),
    ("wronskian", "--trunc", "6", "--main-var", "{last_dy}"),
    ("gauge", "--main-var", "{last_dy}"),
    ("check-normal", "--main-var", "{last_dy}"),
    ("check-normal", "--via", "series", "--trunc", "6", "--main-var", "{last_dy}"),
)

APPLY_COMMANDS = (
    ("apply", "--trunc", "4"),
    ("apply", "--trunc", "6"),
)

SUFFIXES = {".ideal": COMMANDS, ".apply": APPLY_COMMANDS}


def _names(suffix: str = ".ideal"):
    return sorted(p.stem for p in GOLDEN.glob(f"*{suffix}"))


def _inputs():
    """Every golden input file name, the seven ideals first."""
    return [name + suffix for suffix in SUFFIXES for name in _names(suffix)]


def transcript(filename: str) -> str:
    path = GOLDEN / filename
    nvars, _ = parse_ideal_file(path.read_text())
    last_dy = "Dy" if nvars == 1 else f"Dy{nvars}"
    shear = ",".join(f"{k}/3" for k in range(1, nvars + 1))
    out = []
    for command in SUFFIXES[path.suffix]:
        for json_flag in ((), ("--json",)):
            argv = [a.format(last_dy=last_dy, shear=shear) for a in command]
            argv = [argv[0], str(path), *argv[1:], *json_flag]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            text = stdout.getvalue()
            if json_flag:
                payload = json.loads(text)
                payload.pop("timings_ms", None)
                text = json.dumps(payload, indent=2) + "\n"
            shown = " ".join(["oreshape", argv[0], filename, *argv[2:]])
            out.append(f"$ {shown}\n[exit {code}]\n{text}")
            if stderr.getvalue():
                out.append(f"[stderr]\n{stderr.getvalue()}")
    return "".join(out)


def _out(filename: str) -> Path:
    """The transcript of an input: <name>.out for an ideal, <name>.apply.out
    for an apply input."""
    return GOLDEN / (filename.removesuffix(".ideal") + ".out")


def _corpus_size_ok() -> bool:
    return len(_names()) == 7 and len(_names(".apply")) == 2


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", _names())
    if "apply_name" in metafunc.fixturenames:
        metafunc.parametrize("apply_name", _names(".apply"))


def test_golden_transcript(name):
    assert transcript(f"{name}.ideal") == _out(f"{name}.ideal").read_text()


def test_golden_apply_transcript(apply_name):
    filename = f"{apply_name}.apply"
    expected = _out(filename).read_text()
    assert transcript(filename) == expected
    # every entry prints an image: exit 0, in text mode and with --json
    assert expected.count("[exit 0]") == 2 * len(APPLY_COMMANDS)


def test_corpus_is_complete():
    assert _corpus_size_ok()
    for filename in _inputs():
        assert _out(filename).is_file(), filename


if __name__ == "__main__":
    mode = sys.argv[1:]
    if mode not in (["--record"], ["--check"]):
        sys.exit("usage: python tests/test_golden.py --record | --check")
    mismatched = []
    for filename in _inputs():
        path = _out(filename)
        if mode == ["--record"]:
            path.write_text(transcript(filename))
            print(f"recorded {path.name}")
        elif transcript(filename) != path.read_text():
            mismatched.append(path.name)
            print(f"MISMATCH {path.name}")
        else:
            print(f"ok {path.name}")
    if not _corpus_size_ok() or mismatched:
        sys.exit(f"golden corpus check failed: {len(_inputs())} inputs, mismatched {mismatched}")
