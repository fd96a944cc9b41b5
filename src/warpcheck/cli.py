"""Command-line interface: batch scene verification and catalog listing.

Exit codes: 0 all checks passed, 1 at least one check failed or an identity
was violated, 2 invalid input (bad scene file, unknown keys, bad parameters)
or an `--out` that cannot be written.

`--out` is overwritten in place: the report is written over the file's old
bytes, and a regular file is then cut at the report's end.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from .contact import ambient_catalog
from .errors import WarpcheckError
from .immersion import chart_immersion_catalog
from .scenes import check_names, emit, parse_scene, run
from .warped import chart_catalog


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.  Parsing
    leaves it unchanged (each call fills a new namespace), so every call of
    `main` shares it."""
    parser = argparse.ArgumentParser(
        prog="warpcheck",
        description="verify warped-product curvature inequalities on declarative scenes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the checks declared in a scene file")
    verify.add_argument("scene", help="path to a JSON scene file")
    verify.add_argument("--tol-algebraic", type=float, default=None, metavar="R")
    verify.add_argument("--tol-fd", type=float, default=None, metavar="R")
    verify.add_argument("--samples", type=int, default=None, metavar="N")
    verify.add_argument("--seed", type=int, default=None, metavar="S")
    verify.add_argument("--output", choices=("json", "text"), default="text")
    verify.add_argument(
        "--out", default=None, metavar="PATH", help="write the report here instead of stdout, overwriting it in place"
    )

    sub.add_parser("catalog", help="list named ambients, charts, immersions and checks")
    return parser


# write-only, created if missing, never truncated on open: on ext4
# (auto_da_alloc) a file truncated to zero and rewritten starts writeback of
# its new blocks when it closes, which costs more than emitting the report
_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_report(path: str, payload: bytes) -> None:
    """Write `payload` over `path` in place, then cut a regular file at the
    payload's end so no stale tail stays.  A FIFO or a device (a terminal,
    /dev/stdout, /dev/null) just receives the bytes: it has no end to cut."""
    try:
        with open(os.open(path, _OUT_FLAGS, 0o666), "wb") as fh:
            fh.write(payload)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise WarpcheckError(f"cannot write report: {exc}") from exc


def _cmd_verify(args) -> int:
    spec = parse_scene(args.scene)
    tol = spec.tolerance(algebraic=args.tol_algebraic, finite_difference=args.tol_fd)
    report = run(spec, tolerances=tol, seed=args.seed, samples=args.samples)
    payload = emit(report, args.output)
    if args.out:
        _write_report(args.out, payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0 if report.all_passed else 1


def _cmd_catalog() -> int:
    print("ambients:")
    for key in sorted(ambient_catalog()):
        print(f"  {key}")
    print("warped charts:")
    for key in sorted(chart_catalog()):
        print(f"  {key}")
    print("immersions:")
    for key in sorted(chart_immersion_catalog()):
        print(f"  {key}")
    print("  dplus-leaf")
    print("warping functions:")
    print("  const(a), cos, exp, polynomial(coeffs), sum(terms), product(terms)")
    print("checks:")
    for key in check_names():
        print(f"  {key}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_catalog()
    except WarpcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
