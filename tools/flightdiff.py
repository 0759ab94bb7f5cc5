"""Behaviour oracle: fly the same flights through the ``quadpath`` CLI in two
source trees and compare everything the runs write except solve times.

    python tools/flightdiff.py --against <rev|dir>
    python tools/flightdiff.py --report --against <rev|dir>

``--against`` names a directory holding a source tree (its ``src/quadpath``
is flown), or else a git revision of this repository, which is exported with
``git archive`` into a temporary directory, so no network is needed.  The
other tree is the one this script lives in.

Each flight of :data:`FLIGHTS` runs ``python -m quadpath.cli run --config
<file> --verbose`` with the tree's ``src`` on ``PYTHONPATH``, both trees side
by side.  Compared are ``log.csv`` without its ``solve_time_ms`` column,
``summary.json`` without its timing keys (:data:`TIMING_KEYS`) and up to
the last key both trees write (keys are only ever appended),
``solver.log``, stdout, stderr and the exit code; ``quadpath validate`` is
compared once.  One line per flight: ``identical``, or the first differing
file, row and column with both values.  The exit status is 0 only when
everything is identical, 1 when something differs and 2 when a tree cannot
be found.

``--report`` serves a change that means to move behaviour: it flies the
same flights and prints one Markdown table row per flight, the other tree
against this one, with the steps, failures, total solver iterations, RMS
position error, path-end time and longest stall of each ``summary.json``
(:data:`REPORT_KEYS`); a cell reads ``theirs -> ours`` where the two differ,
and the last column says whether the row differs.  Its exit status is 0
when every flight of both trees wrote its summary, else 1 (2 when a tree
cannot be found).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, scenario file): the five scenarios at their defaults, the
# zero-width corridor and a long horizon
FLIGHTS = (
    ("spiral", "scenario = spiral\n"),
    ("lemniscate", "scenario = lemniscate\n"),
    ("sinusoid", "scenario = sinusoid\n"),
    ("sinusoid-corridor", "scenario = sinusoid-corridor\n"),
    ("hover", "scenario = hover\n"),
    ("zero-width-20s", "scenario = sinusoid-corridor\ns2_min = 0.0\ns2_max = 0.0\ntotal_time = 20\n"),
    ("spiral-n20-8s", "scenario = spiral\nhorizon = 20\ntotal_time = 8\n"),
)

# (column title, summary.json key) of the report
REPORT_KEYS = (("steps", "steps"), ("failures", "failures"), ("total iterations", "total_solver_iters"),
               ("RMS error m", "rms_position_error_m"), ("path end s", "time_to_path_end_s"),
               ("longest stall s", "longest_stall_s"))

TIMING_COLUMN = "solve_time_ms"
TIMING_KEYS = ("mean_solve_time_ms", "max_solve_time_ms", "prepare_time_ms_p50", "prepare_time_ms_max",
               "solve_time_ms_p50", "solve_time_ms_p99", "deadline_misses")


def export_revision(rev: str, dest: Path) -> Path:
    """Extract revision ``rev`` of this repository into ``dest``; raises
    ``ValueError`` when git knows no such revision."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=False)
    if archive.returncode != 0:
        raise ValueError(f"no source tree or revision {rev!r}: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest)
    return dest


def _start(tree: Path, args, work: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-m", "quadpath.cli", *args], cwd=work, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _lines(text: str) -> list:
    return [[line] for line in text.splitlines()]


def _outputs(proc: subprocess.Popen, out: Path | None) -> dict:
    """What a finished run wrote, as rows of cells per file name, timing
    removed; the file names keep their order of comparison."""
    stdout, stderr = proc.communicate()
    found = {"exit code": [[str(proc.returncode)]], "stdout": _lines(stdout), "stderr": _lines(stderr)}
    if out is None:
        return found
    log = out / "log.csv"
    if log.exists():
        with open(log, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        keep = [j for j, name in enumerate(rows[0]) if name != TIMING_COLUMN] if rows else []
        found["log.csv"] = [[row[j] for j in keep] for row in rows]
    summary = out / "summary.json"
    if summary.exists():
        values = json.loads(summary.read_text(encoding="utf-8"))
        found["summary.json"] = [[key, json.dumps(value)] for key, value in values.items()
                                 if key not in TIMING_KEYS]
    if (out / "solver.log").exists():
        found["solver.log"] = _lines((out / "solver.log").read_text(encoding="utf-8"))
    return found


def _cell(row: list, j: int) -> str:
    return row[j] if j < len(row) else "<missing>"


def first_difference(ours: dict, theirs: dict) -> str | None:
    """The first differing file, row and column of two runs' outputs, or
    ``None`` when they are identical."""
    for name in dict.fromkeys([*ours, *theirs]):
        a, b = ours.get(name, []), theirs.get(name, [])
        if name == "summary.json":
            a, b = a[:len(b)], b[:len(a)]  # a key one tree appends is not a difference
        for i in range(max(len(a), len(b))):
            row_a, row_b = a[i] if i < len(a) else [], b[i] if i < len(b) else []
            if row_a != row_b:
                j = next(j for j in range(max(len(row_a), len(row_b))) if _cell(row_a, j) != _cell(row_b, j))
                header = a[0] if name == "log.csv" and a else []
                column = f"{j + 1} ({header[j]})" if j < len(header) else f"{j + 1}"
                return f"{name} row {i + 1}, column {column}: {_cell(row_a, j)} != {_cell(row_b, j)}"
    return None


def _fly(ours: Path, theirs: Path, entries):
    """For each ``(name, scenario file)`` of ``entries`` (``None`` runs
    ``quadpath validate``), the name and both trees' outputs, ours first;
    the two trees run side by side."""
    with tempfile.TemporaryDirectory(prefix="flightdiff-") as tmp:
        work = Path(tmp)
        for name, text in entries:
            runs = []
            for tree, side in ((ours, "ours"), (theirs, "theirs")):
                args, out = ["validate"], None
                if text is not None:
                    config, out = work / f"{name}.cfg", work / side / name
                    config.write_text(text, encoding="utf-8")
                    args = ["run", "--config", str(config), "--out", str(out), "--verbose"]
                runs.append((_start(tree, args, work), out))
            yield name, *(_outputs(proc, out) for proc, out in runs)


def compare(ours: Path, theirs: Path, flights=FLIGHTS) -> int:
    """Run ``quadpath validate`` and fly ``flights`` in both trees; print
    one line each and return 0 when everything is identical, else 1."""
    differing = 0
    for name, a, b in _fly(ours, theirs, (("validate", None), *flights)):
        diff = first_difference(a, b)
        differing += diff is not None
        print(f"{name}: {diff or 'identical'}")
    return 1 if differing else 0


def _report_row(name: str, ours: dict, theirs: dict) -> str:
    """The report's Markdown row of one flight from both trees' outputs."""
    theirs_values, our_values = ({key: json.loads(value) for key, value in out.get("summary.json", [])}
                                 for out in (theirs, ours))
    cells, same = [], True
    for _, key in REPORT_KEYS:
        a, b = theirs_values.get(key, "<missing>"), our_values.get(key, "<missing>")
        same &= a == b
        cells.append((f"{a:.6g}" if isinstance(a, float) else str(a)) if a == b else f"{a} -> {b}")
    return f"| {name} | {' | '.join(cells)} | {'same' if same else 'differs'} |"


def report(ours: Path, theirs: Path, flights=FLIGHTS) -> int:
    """Fly ``flights`` in both trees and print the report table; return 0
    when every run wrote its summary, else 1."""
    print(f"| flight | {' | '.join(title for title, _ in REPORT_KEYS)} | |")
    print("|" + " --- |" * (len(REPORT_KEYS) + 2))
    missing = 0
    for name, a, b in _fly(ours, theirs, flights):
        missing += ("summary.json" not in a) + ("summary.json" not in b)
        print(_report_row(name, a, b))
    return 1 if missing else 0


def main(argv=None, flights=FLIGHTS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="a source-tree directory or a git revision")
    parser.add_argument("--report", action="store_true",
                        help="print the per-flight table of both trees instead of comparing them")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="flightdiff-tree-") as tmp:
        theirs = Path(args.against)
        if not (theirs / "src" / "quadpath").is_dir():
            try:
                theirs = export_revision(args.against, Path(tmp))
            except ValueError as exc:
                print(f"flightdiff: {exc}", file=sys.stderr)
                return 2
        print(f"flightdiff: this tree against {args.against}")
        if args.report:
            return report(ROOT, theirs, flights)
        code = compare(ROOT, theirs, flights)
        print("identical" if code == 0 else "differences found")
        return code


if __name__ == "__main__":
    sys.exit(main())
