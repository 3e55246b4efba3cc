"""Golden-output test: every CLI verb, run in-process, must print exactly
what the checked-in transcript ``golden/cli.txt`` records, byte for byte,
with the same exit code.

The inputs are all 42 ASMs of ASM(4) and the 1x1 ASM, each fed through
stdin to every per-ASM verb, plus ``count`` for n = 1..5 and every
``verify`` check at n = 1 and n = 4.

Regenerate the transcript, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import difflib
import io
import itertools
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from asmprism import cli
from asmprism.asm import enumerate_asms, render_asm

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

FORMATS = (["--format", "text"], ["--format", "structured"])

PER_ASM_ARGS: list[list[str]] = (
    [["poly", "--model", m] for m in ("bigr", "parabolic", "schubert-sum", "multidegree")]
    + [
        ["prism", "list", "--model", m, *fmt, *verbose]
        for m in ("bigr", "parabolic")
        for fmt in FORMATS
        for verbose in ([], ["--verbose"])
    ]
    + [["facets", *mx, *fmt] for mx in ([], ["--max"]) for fmt in FORMATS]
    + [["perm-set"], ["min-perm"], ["deg"]]
    + [[verb, *fmt] for verb in ("diagram", "essential") for fmt in FORMATS]
    + [["triangle"], ["ideal", "--init"], ["ideal", "--facets"], ["complete"]]
)

VERIFY_NAMES = ("theorem1", "bijection", "groebner", "lattice", "schur")


def _invoke(argv: list[str], stdin: str = "") -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _block(argv: list[str], stdin: str = "") -> str:
    code, out = _invoke(argv, stdin)
    return "$ asmprism " + " ".join(argv) + f"\n[exit {code}]\n{out}"


def transcript() -> str:
    blocks = []
    for text in ["1\n"] + [render_asm(a) + "\n" for a in enumerate_asms(4)]:
        blocks.append("=== stdin: " + ";".join(text.splitlines()) + "\n")
        blocks += [_block([*args, "--asm", "-"], text) for args in PER_ASM_ARGS]
    blocks += [_block(["count", str(n)]) for n in range(1, 6)]
    blocks += [
        _block(["verify", name, "--n", str(n)])
        for name in VERIFY_NAMES
        for n in (1, 4)
    ]
    return "".join(blocks)


def test_cli_output_matches_golden_transcript():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = transcript()
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            "golden",
            "actual",
        )
        raise AssertionError("CLI output differs from the golden transcript:\n"
                             + "".join(itertools.islice(diff, 80)))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
