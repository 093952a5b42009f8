"""Compare the numbers in two delaycomp output trees.

Usage:  python tools/compare_outputs.py DIR_A DIR_B

DIR_A and DIR_B are output directories of `delaycomp simulate` or
`delaycomp verify` (or any trees of CSV and JSON files).  For every file
present in both trees the script prints, per numeric CSV column and per
numeric JSON field, the maximum absolute and relative difference between
the two.  Relative differences are taken against the larger magnitude of
the pair, so a field that is zero in both trees reads 0.  JSON `wall_time`
fields are skipped: they are timings, not results.  Files found in only one
tree, and CSV tables whose shapes differ, are listed instead.

Exit status: 0 when every compared number is equal, 1 when some differ or
the trees hold different files or shapes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

SKIP_KEYS = ("wall_time",)


def _files(root):
    out = set()
    for base, _dirs, names in os.walk(root):
        for name in names:
            if name.endswith((".csv", ".json")):
                out.add(os.path.relpath(os.path.join(base, name), root))
    return out


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_columns(path):
    """Header and the columns of a CSV file as lists of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    header, body = rows[0], rows[1:]
    return header, [[row[i] if i < len(row) else "" for row in body]
                    for i in range(len(header))]


def _json_leaves(obj, path="", field=""):
    """(path, field, value) of every numeric leaf of a JSON document.

    `path` locates the leaf exactly; `field` names it for the report, with
    the index of a list of plain numbers collapsed to `[]` so such a list
    reports as one field, while lists of objects keep their indices.
    """
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in SKIP_KEYS:
                continue
            sub = f".{key}" if path else str(key)
            yield from _json_leaves(value, path + sub, field + sub)
    elif isinstance(obj, list):
        plain = all(not isinstance(v, (dict, list)) for v in obj)
        for i, value in enumerate(obj):
            yield from _json_leaves(value, f"{path}[{i}]",
                                    field + ("[]" if plain else f"[{i}]"))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, field, float(obj)


def _diff(a, b):
    """(absolute, relative) difference of two numbers; NaN pairs agree."""
    if math.isnan(a) and math.isnan(b):
        return 0.0, 0.0
    if a == b:
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    d = abs(a - b)
    return d, d / max(abs(a), abs(b))


class _Table:
    def __init__(self):
        self.rows = {}
        self.problems = []

    def problem(self, message):
        if message not in self.problems:
            self.problems.append(message)

    def add(self, key, a, b):
        da, dr = _diff(a, b)
        old = self.rows.get(key, (0.0, 0.0))
        self.rows[key] = (max(old[0], da), max(old[1], dr))


def compare(dir_a, dir_b):
    table = _Table()
    fa, fb = _files(dir_a), _files(dir_b)
    for rel in sorted(fa ^ fb):
        table.problem(f"only in {'A' if rel in fa else 'B'}: {rel}")
    for rel in sorted(fa & fb):
        pa, pb = os.path.join(dir_a, rel), os.path.join(dir_b, rel)
        if rel.endswith(".csv"):
            ha, ca = _csv_columns(pa)
            hb, cb = _csv_columns(pb)
            if ha != hb or [len(c) for c in ca] != [len(c) for c in cb]:
                table.problem(f"shape differs: {rel}")
                continue
            for name, col_a, col_b in zip(ha, ca, cb):
                for sa, sb in zip(col_a, col_b):
                    a, b = _number(sa), _number(sb)
                    if a is None or b is None:
                        if sa != sb:
                            table.problem(f"text differs: {rel}:{name}")
                        continue
                    table.add((rel, name), a, b)
        else:
            with open(pa, encoding="utf-8") as fh:
                ja = {p: (f, v) for p, f, v in _json_leaves(json.load(fh))}
            with open(pb, encoding="utf-8") as fh:
                jb = {p: (f, v) for p, f, v in _json_leaves(json.load(fh))}
            for key in sorted(ja.keys() ^ jb.keys()):
                table.problem(f"field in one tree only: {rel}:{key}")
            for key in sorted(ja.keys() & jb.keys()):
                table.add((rel, ja[key][0]), ja[key][1], jb[key][1])
    return table


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    table = compare(*argv)
    width = max([len(f"{r}:{n}") for r, n in table.rows] + [5])
    print(f"{'field'.ljust(width)}  {'max_abs':>10}  {'max_rel':>10}")
    for (rel, name), (da, dr) in sorted(table.rows.items()):
        print(f"{f'{rel}:{name}'.ljust(width)}  {da:10.3e}  {dr:10.3e}")
    for line in table.problems:
        print(line)
    worst = max([dr for _, dr in table.rows.values()] + [0.0])
    print(f"compared {len(table.rows)} fields, worst relative difference "
          f"{worst:.3e}")
    same = worst == 0.0 and not table.problems
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
