#!/usr/bin/env python
"""Run the ``python`` code blocks of the documentation so they cannot rot.

Usage::

    python tools/check_doc_snippets.py [FILE.md ...]

Without arguments every ``docs/*.md`` file is checked.  Each fenced
```` ```python ```` block is executed; blocks within one file share a
namespace (so a later block may use the imports and variables of an earlier
one), and every file starts from a clean namespace.  A block annotated with
an HTML comment ``<!-- no-run -->`` on the line directly above its opening
fence is skipped (use sparingly, e.g. for deliberately failing examples).

The script needs no third-party packages and inserts ``src/`` at the front
of ``sys.path``, so it runs from a plain checkout exactly like
``PYTHONPATH=src python ...``; CI invokes it as the ``docs`` job.
"""

from __future__ import annotations

import io
import re
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

_FENCE = re.compile(r"^```python\s*$")
_FENCE_END = re.compile(r"^```\s*$")
_SKIP_MARK = "<!-- no-run -->"


def extract_blocks(text: str) -> List[Tuple[int, str, bool]]:
    """Return ``(first_line_number, source, skipped)`` for each python block."""
    blocks: List[Tuple[int, str, bool]] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if _FENCE.match(lines[i]):
            skipped = i > 0 and _SKIP_MARK in lines[i - 1]
            start = i + 1
            body: List[str] = []
            i += 1
            while i < len(lines) and not _FENCE_END.match(lines[i]):
                body.append(lines[i])
                i += 1
            blocks.append((start + 1, "\n".join(body), skipped))
        i += 1
    return blocks


def check_file(path: Path) -> List[str]:
    """Execute every runnable block of ``path``; return failure descriptions."""
    failures: List[str] = []
    namespace: dict = {"__name__": f"docsnippet:{path.name}"}
    ran = skipped = 0
    for line, source, skip in extract_blocks(path.read_text(encoding="utf-8")):
        if skip:
            skipped += 1
            continue
        ran += 1
        stdout = io.StringIO()
        try:
            code = compile(source, f"{path}:{line}", "exec")
            with redirect_stdout(stdout):
                exec(code, namespace)
        except Exception:
            failures.append(
                f"{path}:{line}: snippet raised\n{traceback.format_exc(limit=5)}"
            )
    print(f"  {path.relative_to(REPO_ROOT)}: {ran} snippet(s) ran, {skipped} skipped")
    return failures


def main(argv: List[str]) -> int:
    sys.path.insert(0, str(SRC))
    targets = [Path(arg) for arg in argv] or sorted((REPO_ROOT / "docs").glob("*.md"))
    if not targets:
        print("no documentation files found", file=sys.stderr)
        return 2
    print(f"checking {len(targets)} documentation file(s)")
    failures: List[str] = []
    for path in targets:
        failures.extend(check_file(path))
    if failures:
        print(f"\n{len(failures)} failing snippet(s):", file=sys.stderr)
        for failure in failures:
            print(f"\n{failure}", file=sys.stderr)
        return 1
    print("all documentation snippets ran cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
