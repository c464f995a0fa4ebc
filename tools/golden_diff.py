#!/usr/bin/env python3
"""Report how two run corpora differ, file by file and column by column.

    python3 tools/golden_diff.py OLD NEW

OLD and NEW are directories laid out like ``tests/golden/``. For each file
that is in both and differs, the report gives the number of changed
entries and the largest relative change |a - b| / max(|a|, |b|) of each
trace column (a CSV with a header of column names) and of each checkpoint
matrix (a matrix CSV, whose first line is ``rows,cols``). A JSON file,
such as a sidecar, is compared key by key, nested keys joined by ".": the
keys in one file only, then the largest relative change of each shared
key. Any other file is compared as one list of tokens. NaN against NaN
is no change; NaN against a number, or two different words, is an
infinite change, and so is infinity against a finite number.
``tests/test_golden.py`` reads its files, tokens and tolerance through
``files``, ``tokens`` and ``relative_change``. The report then lists the byte-identical files and the
files that are in one directory only.

Exit status: 1 when a differing file has a different number of tokens on
the two sides, a JSON key is in one file only or has a different number of
tokens, or a file is in one directory only; 2 on a usage error; 0
otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def files(root: Path) -> set:
    """The paths of the files under ``root``, relative to it."""
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def tokens(text: str) -> list:
    """The words and numbers of a file, with JSON and CSV punctuation as separators."""
    for ch in ',:[]{}"\n':
        text = text.replace(ch, " ")
    return text.split()


def _labelled_tokens(path: Path) -> list:
    """(label, token) pairs: a trace CSV's cells labelled by column, a matrix CSV's by its name, others by "tokens"."""
    text = path.read_text()
    lines = text.splitlines()
    if path.suffix == ".csv" and lines and lines[0] == "rows,cols":
        return [(f"matrix {path.stem}", tok) for line in lines[2:] for tok in line.split(",")]
    if path.suffix == ".csv" and lines:
        header = lines[0].split(",")
        cells = [("header", tok) for tok in header]
        for line in lines[1:]:
            toks = line.split(",")
            cells.extend(zip(header + ["(extra)"] * (len(toks) - len(header)), toks))
        return cells
    return [("tokens", tok) for tok in tokens(text)]


def _json_keys(path: Path) -> dict:
    """A JSON file's leaf values, key path -> tokens; the top level of a file that is not an object is "(value)"."""
    def walk(value, key):
        if isinstance(value, dict):
            for name, item in value.items():
                yield from walk(item, f"{key}.{name}" if key else name)
        else:
            yield key or "(value)", tokens(json.dumps(value))

    return dict(walk(json.loads(path.read_text()), ""))


def json_changes(a: dict, b: dict) -> tuple[list, bool]:
    """(report lines, whether a key is on one side only or differs in its token count) of two ``_json_keys``."""
    lines = [f"  only in {side}: {' '.join(sorted(keys))}"
             for side, keys in (("OLD", a.keys() - b.keys()), ("NEW", b.keys() - a.keys())) if keys]
    uneven = bool(lines)
    for key in (key for key in a if key in b):
        x, y = a[key], b[key]
        if len(x) != len(y):
            lines.append(f"  {key}: token counts differ: {len(x)} vs {len(y)}")
            uneven = True
        else:
            lines.extend(changes([(key, tok) for tok in x], [(key, tok) for tok in y]))
    return lines, uneven


def relative_change(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two numeric tokens; 0 for equal tokens and NaN against NaN; inf for
    other tokens, NaN against a number and infinity against a finite number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    if x == y:
        return 0.0
    return math.inf if math.isinf(x) or math.isinf(y) else abs(x - y) / max(abs(x), abs(y))


def changes(a: list, b: list) -> list:
    """Report lines of two equally long (label, token) lists: per label, the changed count and largest change."""
    found = {}
    for (label, x), (_, y) in zip(a, b):
        count, largest = found.get(label, (0, 0.0))
        rel = relative_change(x, y)
        found[label] = (count + (rel > 0.0 or x != y), max(largest, rel))
    return [f"  {label}: {count} changed, largest relative change {largest:.3g}"
            for label, (count, largest) in found.items() if count]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    old, new = map(Path, argv)
    old_files, new_files = files(old), files(new)
    identical, failed = [], False
    for name in sorted(old_files & new_files):
        if (old / name).read_bytes() == (new / name).read_bytes():
            identical.append(name)
            continue
        if name.endswith(".json"):
            lines, uneven = json_changes(_json_keys(old / name), _json_keys(new / name))
            print(name, *(lines or ["  every value is equal; only the layout differs"]), sep="\n")
            failed |= uneven
            continue
        a, b = _labelled_tokens(old / name), _labelled_tokens(new / name)
        if len(a) != len(b):
            print(name, f"  token counts differ: {len(a)} vs {len(b)}", sep="\n")
            failed = True
            continue
        print(name, *(changes(a, b) or ["  every token is equal; only the layout differs"]), sep="\n")
    print(f"byte-identical ({len(identical)}): {' '.join(identical)}")
    for side, names in (("OLD", old_files - new_files), ("NEW", new_files - old_files)):
        if names:
            print(f"only in {side} ({len(names)}): {' '.join(sorted(names))}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
