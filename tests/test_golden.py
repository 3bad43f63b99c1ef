"""Golden CLI corpus: every command's exact output on six small ideals.

tests/data/golden/<name>.ideal holds an input and <name>.out the
transcript of the commands in COMMANDS run on it, in text mode and with
--json (minus the `timings_ms` object, the one field that varies between
runs): the argv, the exit code, stdout and stderr.  The test compares the
transcripts byte for byte, so any change to a printed result, a canonical
form, a chosen basis or a search outcome shows up here.

The transcripts were recorded before the reduction strategy of `gb` was
rewritten; the `--main-var` entries other than `eliminate` were added, and
recorded, before `--main-var` handling in `cli` was folded into one place;
the `mul`, `apply` and `shear` entries before `cli` rendered each result once.
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


def _names():
    return sorted(p.stem for p in GOLDEN.glob("*.ideal"))


def transcript(name: str) -> str:
    path = GOLDEN / f"{name}.ideal"
    nvars, _ = parse_ideal_file(path.read_text())
    last_dy = "Dy" if nvars == 1 else f"Dy{nvars}"
    shear = ",".join(f"{k}/3" for k in range(1, nvars + 1))
    out = []
    for command in COMMANDS:
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
            shown = " ".join(["oreshape", argv[0], f"{name}.ideal", *argv[2:]])
            out.append(f"$ {shown}\n[exit {code}]\n{text}")
            if stderr.getvalue():
                out.append(f"[stderr]\n{stderr.getvalue()}")
    return "".join(out)


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", _names())


def test_golden_transcript(name):
    expected = (GOLDEN / f"{name}.out").read_text()
    assert transcript(name) == expected


def test_corpus_is_complete():
    assert len(_names()) == 6
    for name in _names():
        assert (GOLDEN / f"{name}.out").is_file(), name


if __name__ == "__main__":
    mode = sys.argv[1:]
    if mode not in (["--record"], ["--check"]):
        sys.exit("usage: python tests/test_golden.py --record | --check")
    mismatched = []
    for name in _names():
        path = GOLDEN / f"{name}.out"
        if mode == ["--record"]:
            path.write_text(transcript(name))
            print(f"recorded {name}.out")
        elif transcript(name) != path.read_text():
            mismatched.append(name)
            print(f"MISMATCH {name}.out")
        else:
            print(f"ok {name}.out")
    if len(_names()) != 6 or mismatched:
        sys.exit(f"golden corpus check failed: {len(_names())} ideals, mismatched {mismatched}")
