"""Compare two sets of benchmark results metric by metric.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result files written by run.py (``.perfbench_out/*.json``)
or directories of them.  Results are grouped by workload and trace mode and
each metric's median is compared.  Results measured on different kernel
backends are refused: their numbers do not measure the same program.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = []
    for f in files:
        data = json.loads(f.read_text())
        if "metadata" in data and "metrics" in data:
            out.append(data)
    if not out:
        raise SystemExit(f"compare: no results in {arg}")
    return out


def medians(results: list[dict]) -> dict[tuple, dict[str, float]]:
    groups: dict[tuple, dict[str, list[float]]] = {}
    for r in results:
        key = (r["metadata"]["workload"], r["metadata"]["trace"])
        for name, m in r["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return {k: {n: statistics.median(v) for n, v in g.items()} for k, g in groups.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    old, new = load(argv[0]), load(argv[1])
    backends = {r["metadata"]["backend"] for r in old + new}
    if len(backends) != 1:
        print(f"compare: refusing to compare results from different kernel backends: {sorted(backends)}",
              file=sys.stderr)
        return 1
    old_m, new_m = medians(old), medians(new)
    print(f"backend {backends.pop()}; {len(old)} old and {len(new)} new results")
    for key in sorted(set(old_m) & set(new_m)):
        print(f"\n{key[0]} (trace {key[1]})")
        for name in sorted(set(old_m[key]) & set(new_m[key])):
            a, b = old_m[key][name], new_m[key][name]
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"  {name:55s} {a:14.6g} {b:14.6g} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
