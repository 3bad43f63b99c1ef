"""Run the mutation corpus: every mutation must make its named tests fail.

    python tests/mutate.py            # the whole corpus
    python tests/mutate.py ID [ID...] # the named mutations only

tests/data/mutations.json lists each mutation as an object with an "id", a
"file" (a path under src/, relative to the repository root), an exact "old"
text, its replacement "new", and the test node ids ("tests") expected to
catch it.  For each mutation the runner copies src/ to a temporary
directory, replaces the old text in the copy, and runs the named tests with
pytest -x against the copy.  The mutation is caught when pytest reports a
failed test (exit code 1); any other outcome, a pass or an error that is
not a test failure, means it survived.  An old text that is missing or
occurs more than once is refused before any test runs, and so is an old
text equal to its replacement.

Exit status: 0 when every mutation is caught, 1 when one survives, 2 when
the corpus is malformed.  Uses the standard library only.

To add a mutation, append an entry to the JSON file and run
`python tests/mutate.py ID`.  tests/test_selfchecks.py checks on every test
run that each old text still occurs exactly once, so a change that moves
mutated code must update the corpus with it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "mutations.json"
KEYS = {"id", "file", "old", "new", "tests"}


def load_corpus(path: Path = CORPUS) -> list[dict]:
    return json.loads(path.read_text())


def problem(mutation: dict, root: Path = ROOT) -> str | None:
    """Why the mutation cannot be applied to the tree at root, or None."""
    if set(mutation) != KEYS:
        return f"keys {sorted(mutation)}, expected {sorted(KEYS)}"
    if not mutation["file"].startswith("src/") or not mutation["tests"]:
        return "the file must lie under src/ and at least one test must be named"
    if mutation["old"] == mutation["new"]:
        return "the replacement equals the old text"
    path = root / mutation["file"]
    if not path.is_file():
        return f"no file {mutation['file']}"
    count = path.read_text().count(mutation["old"])
    if count != 1:
        return f"the old text occurs {count} times in {mutation['file']}"
    return None


def run(mutation: dict) -> tuple[bool, float]:
    """(caught, seconds) for one mutation applied to a copy of src/."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / mutation["file"]
        path.write_text(path.read_text().replace(mutation["old"], mutation["new"]))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import oreshape; print(oreshape.__file__)"],
                               cwd=ROOT, env=env, capture_output=True, text=True).stdout
        if not where.startswith(tmp):
            raise SystemExit(f"the mutated copy is not the one imported: {where.strip() or 'no oreshape'}")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutation["tests"]], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode == 1, time.perf_counter() - start


def main(argv: list[str]) -> int:
    corpus = load_corpus()
    ids = [m["id"] for m in corpus]
    unknown = sorted(set(argv) - set(ids))
    bad = [(m["id"], why) for m in corpus if (why := problem(m))]
    if unknown or bad or len(set(ids)) != len(ids):
        for i in unknown:
            print(f"{i}: no such mutation")
        for i, why in bad:
            print(f"{i}: {why}")
        if len(set(ids)) != len(ids):
            print("mutation ids repeat")
        return 2
    survivors = []
    for m in corpus:
        if argv and m["id"] not in argv:
            continue
        caught, secs = run(m)
        print(f"{'caught  ' if caught else 'SURVIVED'} {m['id']} ({secs:.1f} s)", flush=True)
        if not caught:
            survivors.append(m["id"])
    if survivors:
        print(f"{len(survivors)} mutation(s) survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
