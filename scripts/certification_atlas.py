#!/usr/bin/env python3
"""Grid-scan the bundled systems and tabulate the certificate cases.

Writes one certificates.csv per system under --out (default ./atlas_out).
"""

import argparse
from collections import Counter
from pathlib import Path

from sdstab.certify import certify_grid
from sdstab.cli import load_system, write_certificate_csv

SCANS = [
    ("dblint", [(-1.0, 1.0), (-1.0, 1.0)], [9, 9]),
    ("planar_cubic", [(-1.0, 1.0), (-1.0, 1.0)], [9, 9]),
    ("rotation3", [(-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)], [5, 5, 5]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--systems-dir", default=Path(__file__).parents[1] / "systems")
    parser.add_argument("--out", default="atlas_out")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, box, res in SCANS:
        sysd = load_system(Path(args.systems_dir) / f"{name}.sys")
        entries = certify_grid(sysd, box, res)
        counts = Counter(
            "skipped" if e.skipped else e.certificate.case.value for e in entries)
        write_certificate_csv(out_dir / f"{name}_certificates.csv", entries, sysd.dim)
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"{name:>13} ({len(entries)} points): {summary}")


if __name__ == "__main__":
    main()
