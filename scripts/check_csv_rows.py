"""Check that every data field of the given CSV files is ``%d`` or ``%.17g``.

    ripening simulate --regime dl --n 2000 --out-dir run
    python3 scripts/check_csv_rows.py run/*.csv

Each file must hold one ``# `` comment line, a header line and data rows
with as many fields as the header.  Every data field must equal
``"%d" % int(field)`` or ``"%.17g" % float(field)``.  Seventeen significant
digits round-trip a double, so the second holds exactly when the field is
``%.17g`` of some float.  The check reads the files alone and imports
nothing of the package.  Prints the problems and exits 1 when any is found,
0 otherwise.
"""

import argparse
import sys

MAX_REPORTED = 10  # problems printed per file


def _printed(field):
    """Whether ``field`` is ``%d`` of an int or ``%.17g`` of a float."""
    try:
        if field == "%d" % int(field):
            return True
    except ValueError:
        pass
    try:
        return field == "%.17g" % float(field)
    except ValueError:
        return False


def problems(text):
    """The reasons the CSV ``text`` breaks the contract above."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["the last line has no newline"]
    lines.pop()
    if len(lines) < 2 or not lines[0].startswith("# ") or lines[1][:1] == "#":
        return ["want one '# ' comment line, then the header line"]
    width = len(lines[1].split(","))
    found = []
    for number, line in enumerate(lines[2:], start=3):
        if line.startswith("#"):
            found.append(f"line {number}: a second comment line")
            continue
        fields = line.split(",")
        if len(fields) != width:
            found.append(f"line {number}: {len(fields)} fields, header has {width}")
        found += [f"line {number}: field {field!r} is not %d or %.17g"
                  for field in fields if not _printed(field)]
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    failed = False
    for path in args.files:
        with open(path, encoding="utf-8", newline="") as fh:
            found = problems(fh.read())
        for reason in found[:MAX_REPORTED]:
            print(f"check_csv_rows: {path}: {reason}", file=sys.stderr)
        if len(found) > MAX_REPORTED:
            print(f"check_csv_rows: {path}: {len(found) - MAX_REPORTED} more",
                  file=sys.stderr)
        if not found:
            print(f"check_csv_rows: {path} ok")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
