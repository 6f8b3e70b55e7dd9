"""Command-line experiment runner.

    seqmeas <experiment> --seed N [--trials T] [--out results.json]
            [--csv trials.csv] [--param key=value ...]
            [--fn-f path --fn-g path] [--group path]

Writes the result document (JSON, byte-identical for a fixed configuration)
to --out or stdout and prints one pass/fail line per assertion on stderr.
Exits 0 when every assertion passed and 1 when one failed.  Bad input exits
2 with an ``error:`` line: a malformed argument, an unknown or invalid
parameter, or an input file that is missing or malformed, with no document;
or an --out or --csv path that cannot be written.  File errors read
``error: <path>: <reason>``.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path

from .experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment
from .gates import PermutationAction
from .testers import FunctionTable


def _parse_param(raw: str):
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"--param expects key=value, got {raw!r}")
    key, value = raw.split("=", 1)
    for cast in (int, float):
        try:
            return key, cast(value)
        except ValueError:
            continue
    return key, value


def _read_lines(path: str | None, parse):
    """parse(the file's lines), or None for no path; an unreadable or
    malformed file raises ValueError("<path>: <reason>")."""
    if path is None:
        return None
    try:
        return parse(Path(path).read_text().splitlines())
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextmanager
def _output(path: str, **kwargs):
    """`path` opened for writing; a failed open or write raises
    ValueError("<path>: <reason>")."""
    try:
        with open(path, "w", **kwargs) as handle:
            yield handle
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None


def _parse_group(lines: list[str]) -> tuple[PermutationAction, ...]:
    actions = []
    for line in lines:
        line = line.strip()
        if line:
            actions.append(PermutationAction(tuple(int(x) for x in line.split())))
    if not actions:
        raise ValueError("no permutations found")
    return tuple(actions)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqmeas", description=__doc__)
    parser.add_argument("experiment", choices=EXPERIMENT_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="master seed (any non-negative integer)")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", type=str, default=None, help="result document path")
    parser.add_argument("--csv", type=str, default=None, help="per-trial CSV path")
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        type=_parse_param,
        metavar="KEY=VALUE",
        help="instance parameter (repeatable)",
    )
    parser.add_argument("--fn-f", type=str, default=None, help="function table file (lines 'x y')")
    parser.add_argument("--fn-g", type=str, default=None)
    parser.add_argument(
        "--group", type=str, default=None, help="permutation list file (one image list per line)"
    )
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment configuration, with each given --fn-f, --fn-g and
    --group file read and parsed; run_experiment checks which it may take."""
    fn_f = _read_lines(args.fn_f, FunctionTable.from_lines)
    fn_g = _read_lines(args.fn_g, FunctionTable.from_lines)
    if fn_f is not None and fn_g is not None and fn_f.codomain_size != fn_g.codomain_size:
        cod = max(fn_f.codomain_size, fn_g.codomain_size)
        fn_f = FunctionTable(fn_f.domain_size, cod, fn_f.values)
        fn_g = FunctionTable(fn_g.domain_size, cod, fn_g.values)
    group = _read_lines(args.group, _parse_group)
    return ExperimentConfig(
        name=args.experiment,
        seed=args.seed,
        trials=args.trials,
        params=dict(args.param),
        function_f=fn_f,
        function_g=fn_g,
        group=group,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        record = run_experiment(_config(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    document = record.to_document()
    try:
        if args.out:
            with _output(args.out) as handle:
                handle.write(document)
        else:
            sys.stdout.write(document)
        if args.csv and record.csv_rows:
            with _output(args.csv, newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(record.csv_rows[0].keys()))
                writer.writeheader()
                writer.writerows(record.csv_rows)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for assertion in record.assertions:
        status = "PASS" if assertion["passed"] else "FAIL"
        print(
            f"{status} {record.experiment}:{assertion['name']} "
            f"observed={assertion['observed']} bound={assertion['bound']}",
            file=sys.stderr,
        )
    print(
        f"{record.experiment}: {'all assertions passed' if record.all_passed else 'FAILURES'} "
        f"({record.wall_clock_seconds:.2f} s)",
        file=sys.stderr,
    )
    return 0 if record.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
