"""Compare two sets of simbench records, metric by metric.

    python3 simbench/compare.py BASE_DIR NEW_DIR

Each directory holds records that ``run.py`` wrote to ``simbench/out/``
(one per workload, seed and trace mode). For every workload and metric
the script prints the median of each side and the change as a share of
the base median, and marks an end-to-end metric that got worse by more
than its bound in ``BENCHMARK.json``. Exit status: 0 when nothing
regressed past its bound, 1 when something did, 2 when the records
cannot be compared.

It refuses records whose environment stamps differ on the Python version
or on whether the compiled kernel (``repro.accel``) was active: the pure
Python path is the reference, and the two are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
# Stamp fields that must agree for two records to be comparable.
MUST_MATCH = ("python", "accel")


def load(directory: Path) -> List[dict]:
    records = []
    for path in sorted(directory.glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        record["_path"] = str(path)
        records.append(record)
    return records


def medians(records: List[dict]) -> Dict[Tuple[str, str], float]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        for name, value in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(value)
    return {key: statistics.median(samples) for key, samples in values.items()}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    if not base or not new:
        print("compare: no simbench records in one of the directories", file=sys.stderr)
        return 2
    reference = base[0]["stamp"]
    for record in base + new:
        for field in MUST_MATCH:
            if record["stamp"].get(field) != reference.get(field):
                print(f"compare: refused: {record['_path']} has {field}="
                      f"{record['stamp'].get(field)!r}, {base[0]['_path']} has "
                      f"{reference.get(field)!r}", file=sys.stderr)
                return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m.get("bound")) for m in declared["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in declared["per_layer"]})
    before, after = medians(base), medians(new)
    regressed = False
    for key in sorted(before.keys() & after.keys()):
        workload, name = key
        better, bound = bounds.get(name, ("lower", None))
        old, cur = before[key], after[key]
        change = (cur - old) / old if old else 0.0
        worse = change if better == "lower" else -change
        verdict = ""
        if bound is not None and worse > bound:
            verdict, regressed = "REGRESSION", True
        print(f"{workload:12s} {name:42s} {old:14.6g} {cur:14.6g} {change:+8.2%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
