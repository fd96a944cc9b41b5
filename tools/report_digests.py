"""Print the sha256 of every canonical report, one ``sha256  name`` line each.

The reports are those of ``warpcheck verify <scene> --output json``: first
the example scenes ``scenes/*.json``, then the contact and chart scenes that
the benchmark generates for each given seed (``perfbench/workloads.py`` is
imported to generate them, and is not changed).  warpcheck is imported from
the ``src/`` of the checkout this script sits in, so the output of two
checkouts can be compared with ``diff``:

    python3 tools/report_digests.py > digests.txt            # seeds 3 7 8 9 101
    python3 tools/report_digests.py --seeds 1 2 > digests.txt
    python3 tools/report_digests.py --seeds > digests.txt    # scenes/*.json only

A report's exit code is part of its line when it is not 0 (one or more
checks failed) so that a verdict change shows even where the bytes of a
report could not.

With ``--criterion-2`` it prints one line instead: the sha256 of the
float64 bytes of the per-sample ``gap, lhs, rhs, mean_term, ambient_term,
norm_H`` of acceptance criterion 2 (the loop of ``tests/test_acceptance.py``:
seed 2024, four ambients, 10,000 samples each), so a change that must leave
those numbers bit-identical is checked with one ``diff``:

    python3 tools/report_digests.py --criterion-2 > criterion-2.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEEDS = (3, 7, 8, 9, 101)


def scene_paths(workloads, seeds, work_dir: Path) -> list[tuple[str, Path]]:
    """(name, scene file) of every report, in output order; the generated
    scenes are written under `work_dir`."""
    scenes = [(f"scenes/{p.name}", p) for p in sorted((ROOT / "scenes").glob("*.json"))]
    for seed in seeds:
        for kind, generate in (("contact", workloads.contact_scenes), ("chart", workloads.chart_scenes)):
            paths = workloads.write_scenes(work_dir / f"{kind}-seed{seed}", generate(seed))
            scenes += [(f"{kind}/seed{seed}/{path.stem}", path) for path in paths]
    return scenes


def digests(seeds) -> list[str]:
    """The output lines for `seeds`."""
    import warpcheck.cli
    import workloads

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
        out = work_dir / "report.json"
        for name, path in scene_paths(workloads, seeds, work_dir):
            rc = warpcheck.cli.main(["verify", str(path), "--output", "json", "--out", str(out)])
            if rc not in (0, 1):  # invalid input: no report was written
                lines.append(f"{'-' * 64}  {name} (exit {rc})")
                continue
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            lines.append(f"{digest}  {name}" + (f" (exit {rc})" if rc else ""))
            out.unlink()
    return lines


CRITERION_2_FIELDS = ("gap", "lhs", "rhs", "mean_term", "ambient_term", "norm_H")


def criterion_2_digest(samples: int = 10_000) -> str:
    """The output line of ``--criterion-2``: the loop of acceptance criterion
    2 with `samples` draws per ambient (10,000 in the acceptance test)."""
    import numpy as np
    from warpcheck.contact import make_ambient
    from warpcheck.immersion import random_data
    from warpcheck.inequality import general_inequality

    rng = np.random.default_rng(2024)
    ambients = [
        make_ambient("euclidean", m=7),
        make_ambient("kmu-space-form", m=3, kappa=0.5, mu=-1.0, c=1.7),
        make_ambient("sasakian-space-form", m=3, c=-2.0),
        make_ambient("non-sasakian-kmu", m=3, kappa=0.2, mu=0.8),
    ]
    rows = []
    for amb in ambients:
        for _ in range(samples):
            n1 = int(rng.integers(1, 3))
            n2 = int(rng.integers(1, 3))
            report = general_inequality(random_data(rng, amb, n1, n2))
            rows.append([getattr(report, name) for name in CRITERION_2_FIELDS])
    digest = hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()
    return f"{digest}  criterion-2 (seed 2024, {len(ambients)}x{samples} samples: {', '.join(CRITERION_2_FIELDS)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", type=int, nargs="*", default=list(DEFAULT_SEEDS),
        help="benchmark seeds whose generated scenes are reported (default: %(default)s)",
    )
    parser.add_argument(
        "--criterion-2", action="store_true",
        help="print only the digest of acceptance criterion 2's per-sample numbers",
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    for line in [criterion_2_digest()] if args.criterion_2 else digests(args.seeds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
