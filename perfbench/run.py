"""Benchmark for the wellcovered package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload claim_suite --seed 1 --seconds 10 --trace 0

Workloads: claim_suite, kn_roundtrip, large_products, cli_mix (see
perfbench/README.md).  Each run imports the package from ``src/`` and runs
one client in a closed loop in this process.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` runs the same items untraced and then
traced, reports the per-layer metrics from the spans and replays the
recorded kernel inputs on both kernel backends.  Every output is checked
against ``checks.py`` in pauses of the timed loop.  Reported times are put
on a fixed host speed by ``HostSpeed``.  The last stdout line is the result
JSON; the full result, with metadata and the raw times, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks as C  # noqa: E402
from replay import build_compiled, replay  # noqa: E402
from spans import KERNEL_FNS, TRACED, Tracer  # noqa: E402
from workloads import CLAIM_IDS, WORKLOADS  # noqa: E402

# set-up runs a run makes: at least the first number, and more, up to the
# second, while they have taken less than SETUP_SECONDS together
SETUP_REPEATS = (5, 25)
SETUP_SECONDS = 2.0
CHECK_BATCH = 500  # outputs held before the loop pauses to check them
SAMPLE_EVERY_S = 0.05  # wall time between host-speed samples
OUT_DIR = ROOT / ".perfbench_out"
BUILD_DIR = ROOT / ".bench_build"


class HostSpeed:
    """Puts measured times on one host speed.

    The host of the machine this benchmark was built on slows it by up to
    1.8x for seconds to minutes at a time, which moved raw times by 35%
    between runs.  So the loop pauses every SAMPLE_EVERY_S to time a fixed
    reference computation (pure Python from checks.py, independent of the
    package), and a time t measured around wall time w is reported as
    t * NOMINAL_S / r, with r the median reference time of the samples
    nearest w: the time it would take on a host where the reference takes
    NOMINAL_S.  A change to the package moves t but not r.
    """

    NOMINAL_S = 0.0007
    _GRAPH = C.product(C.cycle(6), C.complete(3))

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")

    def sample(self) -> None:
        t0 = perf_counter()
        C.maximal_independent_sets(self._GRAPH)
        C.maximal_independent_sets(self._GRAPH)
        t1 = perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median of the samples in [start, end] and the
        four on either side of it."""
        i, j = bisect_left(self.at, start), bisect_right(self.at, end)
        return self.NOMINAL_S / statistics.median(self.took[max(0, i - 4):j + 4])


class ItemError:
    """An item that raised instead of returning an output."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


def import_package():
    """A fresh import of wellcovered from the checkout's src/."""
    for name in [m for m in sys.modules if m == "wellcovered" or m.startswith("wellcovered.")]:
        del sys.modules[name]
    wc = importlib.import_module("wellcovered")
    importlib.import_module("wellcovered.cli")
    return wc


def setup(workload, seed: int, host: HostSpeed):
    """Import plus inputs; returns (package, items, raw seconds, normalized seconds)."""
    host.sample()
    t0 = perf_counter()
    wc = import_package()
    items = workload.make_items(wc, random.Random(seed))
    t1 = perf_counter()
    host.sample()
    return wc, items, t1 - t0, (t1 - t0) * host.factor(t0, t1)


@dataclass
class LoopResult:
    count: int = 0
    timed_s: float = 0.0  # wall time of the loop minus its pauses
    latencies: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    reasons: list = field(default_factory=list)
    check_s: float = 0.0

    def normalized(self, host: HostSpeed) -> tuple[list[float], float]:
        """Latencies and timed seconds on the nominal host speed."""
        lat = [t * host.factor(e - t, e) for t, e in zip(self.latencies, self.ends)]
        return lat, self.timed_s * sum(lat) / sum(self.latencies)


def loop(workload, wc, items, host: HostSpeed, seconds: float, count: int | None = None) -> LoopResult:
    """Run items in order, one at a time, until ``seconds`` of timed work
    (ending on a pass boundary for whole-pass workloads) or ``count`` items.
    Pauses, which are not timed, sample the host speed and check outputs."""
    r = LoopResult()
    n = len(items)
    pending: list = []

    def check() -> None:
        t = perf_counter()
        failed, reasons = check_outputs(workload, items, pending)
        r.failed += failed
        r.reasons += reasons
        pending.clear()
        r.check_s += perf_counter() - t

    host.sample()
    seg = last_sample = perf_counter()
    while True:
        now = perf_counter()
        if count is not None:
            if r.count >= count:
                break
        elif r.count and (not workload.whole_passes or r.count % n == 0) and r.timed_s + now - seg >= seconds:
            break
        idx = r.count % n
        t0 = perf_counter()
        try:
            out = workload.run(wc, items[idx])
        except Exception as exc:  # counted as a failed item
            out = ItemError(exc)
        t1 = perf_counter()
        r.latencies.append(t1 - t0)
        r.ends.append(t1)
        pending.append((idx, out))
        r.count += 1
        if t1 - last_sample >= SAMPLE_EVERY_S or len(pending) >= CHECK_BATCH:
            r.timed_s += t1 - seg
            if len(pending) >= CHECK_BATCH:
                check()
            host.sample()
            seg = last_sample = perf_counter()
    r.timed_s += now - seg
    host.sample()
    check()
    return r


def check_outputs(workload, items, pending) -> tuple[int, list[str]]:
    """Failed executions among (item index, output) pairs: an exception, or
    an output the oracle rejects."""
    failed = 0
    reasons: list[str] = []
    for idx, out in pending:
        if isinstance(out, ItemError):
            bad = [out.text]
        else:
            try:
                bad = workload.check(items[idx], out)
            except Exception as exc:  # a malformed output can break the oracle
                bad = [f"checker raised {type(exc).__name__}: {exc}"]
        if bad:
            failed += 1
            reasons.append(f"item {idx}: " + "; ".join(bad))
    return failed, reasons


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(latencies, elapsed: float, setup_times) -> dict:
    return {
        "items_per_s": metric(len(latencies) / elapsed, "1/s"),
        "item_ms_p50": metric(statistics.median(latencies) * 1e3, "ms"),
        "item_ms_p99": metric(statistics.quantiles(latencies, n=100)[98] * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for module, fns in TRACED.items():
        for fn in fns:
            name = f"{module}.{fn}"
            if module == "families":
                units[name + ".graphs"] = "count"
                units[name + ".self_s"] = "s"
            elif module == "cli":
                units[name + (".calls" if fn == "main" else ".self_s")] = "count" if fn == "main" else "s"
            else:
                units[name + ".calls"] = "count"
                units[name + ".self_s"] = "s"
    units["kernel.maximal_independent_sets.sets"] = "count"
    units["kernel.mean_n"] = "vertices"
    for fn in KERNEL_FNS:
        units[f"kernel.{fn}.replay_s.python"] = "s"
        units[f"kernel.{fn}.replay_s.cython"] = "s"
    units["kn_partitions.kn_alpha_i.fallback_ratio"] = "ratio"
    for claim_id in CLAIM_IDS:
        units[f"claims.{claim_id}.self_s"] = "s"
    units["claims.vacuous_ratio"] = "ratio"
    for module in (*TRACED, "claims"):
        units[module + ".errors"] = "count"
    units["bench.other_s"] = "s"
    units["bench.items_per_s"] = "1/s"
    units["bench.trace_overhead"] = "ratio"
    return units


def per_layer(tracer: Tracer, scale: float, traced_wall: float, traced: float, untraced: float,
              items_done: int, replay_s: dict) -> dict:
    """Per-layer metrics; span times are multiplied by ``scale``, the host
    factor of the traced phase.  ``traced`` and ``untraced`` are the
    normalized seconds of the two loops over the same items."""
    agg = tracer.per_name()
    counts = tracer.counts
    values: dict[str, float] = {}
    for name in per_layer_units():
        base, _, field_name = name.rpartition(".")
        if field_name == "calls":
            values[name] = agg.get(base, {}).get("calls", 0)
        elif field_name == "self_s":
            values[name] = agg.get(base, {}).get("self_s", 0.0) * scale
        elif field_name == "graphs":
            values[name] = counts.get(base + ".yields", 0)
    kernel_calls = sum(agg.get(f"kernel.{fn}", {}).get("calls", 0) for fn in KERNEL_FNS)
    values["kernel.maximal_independent_sets.sets"] = counts.get("kernel.maximal_independent_sets.sets", 0)
    values["kernel.mean_n"] = counts.get("kernel.n_sum", 0) / kernel_calls if kernel_calls else 0.0
    kn_calls = agg.get("kn_partitions.kn_alpha_i", {}).get("calls", 0)
    values["kn_partitions.kn_alpha_i.fallback_ratio"] = (
        counts.get("kn_partitions.kn_alpha_i.fallbacks", 0) / kn_calls if kn_calls else 0.0)
    verdicts = counts.get("claims.verdicts", 0)
    values["claims.vacuous_ratio"] = counts.get("claims.vacuous", 0) / verdicts if verdicts else 0.0
    for module in (*TRACED, "claims"):
        values[module + ".errors"] = sum(n for name, n in tracer.errors.items() if name.startswith(module + "."))
    values["bench.other_s"] = (traced_wall - tracer.covered) * scale
    values["bench.items_per_s"] = items_done / traced
    values["bench.trace_overhead"] = traced / untraced - 1
    for fn, backends in replay_s.items():
        for backend, seconds in backends.items():
            values[f"kernel.{fn}.replay_s.{backend}"] = seconds
    units = per_layer_units()
    return {name: metric(values[name], units[name]) for name in units if name in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "wellcovered" / "__init__.py").is_file():
        print(f"perfbench: no wellcovered sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    host = HostSpeed()
    extra: dict = {}

    if args.trace == 0:
        raw_setups, setups = [], []
        while len(setups) < SETUP_REPEATS[0] or (
                sum(raw_setups) < SETUP_SECONDS and len(setups) < SETUP_REPEATS[1]):
            gc.collect()
            wc, items, raw_s, normalized_s = setup(workload, args.seed, host)
            raw_setups.append(raw_s)
            setups.append(normalized_s)
        gc.collect()
        timed_loop = loop(workload, wc, items, host, args.seconds)
        latencies, timed = timed_loop.normalized(host)
        metrics = end_to_end(latencies, timed, setups)
        raw = end_to_end(timed_loop.latencies, timed_loop.timed_s, raw_setups)
        extra["raw_metrics"] = {name: m["value"] for name, m in raw.items()}
        extra["setup_runs_s"] = setups
        runs = [timed_loop]
        meta["replay"] = "not run: untraced"
    else:
        wc, items, _, _ = setup(workload, args.seed, host)
        gc.collect()
        untraced = loop(workload, wc, items, host, args.seconds)
        tracer = Tracer()
        tracer.install(wc)
        try:
            host.sample()
            t_start = perf_counter()
            items = workload.make_items(wc, random.Random(args.seed))
            t_setup = perf_counter() - t_start
            gc.collect()
            traced = loop(workload, wc, items, host, 0, count=untraced.count)
        finally:
            tracer.uninstall()
        scale = host.factor(t_start, perf_counter())
        compiled, why_not = build_compiled(ROOT, BUILD_DIR)
        pure = importlib.import_module("wellcovered._mis_fallback")
        replay_s: dict = {}
        mismatches = 0
        for fn in KERNEL_FNS:
            host.sample()
            t0 = perf_counter()
            py_s, c_s, bad = replay(fn, tracer.replay_inputs[fn], pure, compiled)
            t1 = perf_counter()
            host.sample()
            f = host.factor(t0, t1)
            replay_s[fn] = {"python": py_s * f} if c_s is None else {"python": py_s * f, "cython": c_s * f}
            mismatches += bad
        runs = [untraced, traced]
        if mismatches:
            traced.failed += mismatches
            traced.reasons.append(f"compiled kernel disagrees with the pure kernel on {mismatches} replayed calls")
        meta["replay"] = "ran" if compiled is not None else f"unavailable: {why_not}"
        extra["replay_calls"] = {fn: len(v) for fn, v in tracer.replay_inputs.items()}
        extra["errors_by_function"] = tracer.errors
        extra["host_factor"] = scale
        metrics = per_layer(tracer, scale, t_setup + traced.timed_s, traced.normalized(host)[1],
                            untraced.normalized(host)[1], traced.count, replay_s)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz"
        tracer.write(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    meta["backend"] = wc.kernel.BACKEND
    extra["check_s"] = sum(r.check_s for r in runs)
    attempted = sum(r.count for r in runs)
    failed = sum(r.failed for r in runs)
    reasons = [reason for r in runs for reason in r.reasons]

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"metadata": meta, **result, "error_rate": failed / attempted,
              "failures": reasons[:20], **extra}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {attempted} items, {failed} failed, backend {meta['backend']}, "
          f"replay {meta['replay']}; full result in {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
