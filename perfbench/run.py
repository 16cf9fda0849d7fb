#!/usr/bin/env python3
"""Run one workload of the misrecon benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a misrecon checkout; misrecon is imported from its
src/ directory. Each workload is one closed loop of one caller: the next
instance starts when the previous one ends, until S seconds have passed
(the exhaustive workload always finishes its current pass).

With --trace 0 the run is untraced and reports BENCHMARK.json's end_to_end
metrics. The host's speed drifts by up to 2x over tens of seconds, so a
fixed probe that does not use misrecon (machine_probe) is timed between
instances, at least every PROBE_EVERY_S, and every time metric is
reported at the host's typical speed: each instance's wall time is scaled
by NOMINAL_PROBE_S over the mean of the probes just before and after it.
The unscaled figures are in the run record.

With --trace 1 it reports the per_layer metrics: every instance runs
twice, once untraced and once under the span tracer, alternating which
goes first, so the tracing overhead is measured on the same inputs.

The output is the run record, one line per metric, and as the last line a
JSON object with the keys correct, attempted, failed and metrics. The
record and the metrics are also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 9
CLI_TIMEOUT_S = 120
PROBE_STEPS = 50_000
PROBE_EVERY_S = 0.25
# machine_probe's median time on the benchmark host (a 2-core VM, Python
# 3.11); scaled times read as wall times at the host's typical speed
NOMINAL_PROBE_S = 0.0075

# span name of each traced public function; policies answer through methods
TRACED_FUNCTIONS = {
    "graphs.gen_bounded_degree": "graphs.gen",
    "graphs.enumerate_bounded_degree_graphs": "graphs.enum",
    "graphs.enumerate_clique_family": "graphs.enum",
    "schemes.randomized_scheme": "schemes.build",
    "schemes.cff_scheme": "schemes.build",
    "schemes.is_query_scheme": "schemes.check",
    "schemes.duality_check": "schemes.duality",
    "coverfree.random_cff": "coverfree.build",
    "coverfree.is_cover_free": "coverfree.check",
    "oracle.run_scheme": "oracle.run",
    "oracle.is_mis": "oracle.verify",
    "reconstruct.decode": "reconstruct.decode",
    "lowerbounds.profile_count": "lowerbounds.profile",
}
TRACED_METHODS = {
    f"oracle.{cls}.answer": "oracle.answer"
    for cls in ("GreedyLexPolicy", "GreedyOrderPolicy", "RandomMisPolicy",
                "AdversarialCliquePolicy")
}


def load_misrecon():
    """Import misrecon from this checkout's src/, or exit non-zero."""
    init = SRC / "misrecon" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a misrecon checkout")
    sys.path.insert(0, str(SRC))
    import misrecon

    if Path(misrecon.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported misrecon from {misrecon.__file__}, not {init}")
    return misrecon


def machine_probe() -> float:
    """Seconds a fixed interpreter-bound task that does not use misrecon
    takes right now; it keeps no data, so it sees the host's speed and not
    the state the last instance left the allocator in."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_STEPS):
        acc ^= (i * 2654435761) & 0xFFFF
    return time.perf_counter() - t0


def scaled(walls, probes, before) -> list[float]:
    """Wall times at the host's typical speed: wall i times NOMINAL_PROBE_S
    over the mean of probes[before[i]] and the probe after it."""
    return [
        w * NOMINAL_PROBE_S * 2 / (probes[k] + probes[k + 1])
        for w, k in zip(walls, before)
    ]


@dataclass
class RunData:
    walls: list[float] = field(default_factory=list)  # untraced instance seconds
    outcomes: list = field(default_factory=list)  # of the untraced executions
    traced_walls: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # benchmark-level failures
    probes: list[float] = field(default_factory=list)  # machine_probe seconds
    probe_before: list[int] = field(default_factory=list)  # per instance

    def scaled_walls(self) -> list[float]:
        return scaled(self.walls, self.probes, self.probe_before)


def _execute(wl, inst, tracer=None):
    """One timed execution; returns (start, end, outcome)."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        output, error = wl.execute(inst), None
    except Exception as exc:  # the instance fails; the run goes on
        output, error = None, exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
    return t0, t1, wl.check(inst, output, error)


def timed_loop(wl, insts, seconds: float, tracer=None) -> RunData:
    """Closed loop over `insts` (cycling) until `seconds` have passed."""
    from tracer import wrapped_bindings

    data = RunData()
    stray = wrapped_bindings()
    if stray:
        data.errors.append(f"wrappers installed before the run: {stray}")
    whole_passes = wl.kind == "exhaustive"
    begin = time.perf_counter()
    i = 0
    last_probe = -PROBE_EVERY_S
    while True:
        inst = insts[i % len(insts)]
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            data.probes.append(machine_probe())
            last_probe = time.perf_counter()
        data.probe_before.append(len(data.probes) - 1)
        if tracer is None:
            t0, t1, outcome = _execute(wl, inst)
        else:
            # alternate which of the pair runs first, so warm-up favours neither
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                stray = wrapped_bindings()
                if stray:
                    data.errors.append(f"wrappers installed outside a traced execution: {stray}")
                runs[traced] = _execute(wl, inst, tracer if traced else None)
            t0, t1, outcome = runs[False]
            s0, s1, traced_outcome = runs[True]
            data.traced_walls.append(s1 - s0)
            data.windows.append((s0, s1))
            if traced_outcome.observed() != outcome.observed():
                outcome.errors.append("tracing changed the instance's counters or outputs")
        data.walls.append(t1 - t0)
        data.outcomes.append(outcome)
        i += 1
        if time.perf_counter() - begin >= seconds and (
            not whole_passes or i % len(insts) == 0
        ):
            break
    data.probes.append(machine_probe())
    stray = wrapped_bindings()
    if stray:
        data.errors.append(f"wrappers left installed: {stray}")
    return data


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first timed instance,
    and the machine probes taken before, between and after the samples."""
    samples, probes = [], []
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        probes.append(machine_probe())
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        samples.append(t1 - t0)
    probes.append(machine_probe())
    return samples, probes


def cli_decoded_digest(argv: list[str]) -> str:
    """Digest of the decoded-graph file `misrecon reconstruct ... --out` writes."""
    from workloads import _digest

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"cli-{os.getpid()}.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        subprocess.run(
            [sys.executable, "-m", "misrecon", *argv, "--out", str(out)],
            cwd=ROOT, env=env, check=True, timeout=CLI_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        return _digest([out.read_text()])
    finally:
        out.unlink(missing_ok=True)


def run_record(wl, args) -> dict:
    import numpy

    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "misrecon").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "regime": wl.regime,
        "git_rev": git_rev, "source_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def summarize(data: RunData) -> dict:
    """Figures every run reports, traced or not (in the record only)."""
    from tracer import tail_percentile

    outcomes = data.outcomes
    failed = sum(1 for o in outcomes if o.errors)
    decodes = sum(o.decodes for o in outcomes)
    level, tail = tail_percentile(data.scaled_walls())
    refs = [o.reference for o in outcomes]
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "exact_match_rate": sum(o.exact for o in outcomes) / decodes if decodes else None,
        "instance_tail_s": tail,
        "instance_tail_level": level,
        "instance_s": data.walls,
        "instance_raw_p50_s": statistics.median(data.walls),
        "instances_raw_per_s": len(data.walls) / sum(data.walls),
        "probe_s": data.probes,
        "reference_match": refs.count("match"),
        "reference_differ": refs.count("differ"),
        "reference_unrecorded": refs.count("unrecorded"),
        "failures": sorted({e.splitlines()[0] for o in outcomes for e in o.errors})[:10],
    }


def end_to_end_metrics(data: RunData, setup: list[float]) -> dict[str, float]:
    """`setup` holds the set-up samples already scaled to typical speed."""
    pairs = sum(o.pairs for o in data.outcomes)
    wrong = sum(o.wrong_pairs for o in data.outcomes)
    walls = data.scaled_walls()
    return {
        "setup_s": statistics.median(setup),
        "instances_per_s": len(walls) / sum(walls),
        "instance_p50_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pair_accuracy": 1 - wrong / pairs if pairs else 1.0,
    }


def per_layer_metrics(data: RunData, tracer, workload: str, names) -> dict[str, float]:
    """The metrics `names` of a traced run: span statistics per layer,
    counters per instance, the ratios below and the two trace figures."""
    import numpy as np
    from tracer import analyse, tail_percentile

    spans = tracer.spans()
    analysis = analyse(spans, data.windows)
    counts = np.bincount(spans.code, minlength=len(spans.names))
    n_inst = len(data.windows)
    metrics: dict[str, float] = {}
    for code, name in enumerate(spans.names):
        incl = analysis.incl[name]
        metrics[f"{name}_s"] = sum(incl) / n_inst
        metrics[f"{name}_self_s"] = analysis.self_total[name] / n_inst
        metrics[f"{name}_p50_s"] = float(np.median(incl)) if incl else 0.0
        metrics[f"{name}_tail_s"] = tail_percentile(incl)[1]
        metrics[f"{name}_spans"] = int(counts[code])
    totals: dict[str, float] = {}
    for o in data.outcomes:
        for key, value in o.counters.items():
            totals[key] = totals.get(key, 0) + value
    for name in names:
        if name not in metrics:
            metrics[name] = totals.get(name, 0) / len(data.outcomes)

    def ratio(num: str, den: str) -> float:
        return totals[num] / totals[den] if totals.get(den) else 0.0

    metrics["schemes.mean_query_size"] = ratio("schemes.query_members", "schemes.queries")
    # profile_count returns no transcripts, so its answers are not in this mean
    metrics["oracle.mean_answer_size"] = ratio("oracle.answer_members", "oracle.answered")
    metrics["coverfree.cff_accept_rate"] = ratio("coverfree.cff_accepted", "coverfree.cff_attempts")
    metrics["trace.unattributed_share"] = analysis.unattributed
    metrics["trace.overhead_share"] = sum(data.traced_walls) / sum(data.walls) - 1
    RESULTS.mkdir(exist_ok=True)
    np.savez(
        RESULTS / f"spans-{workload}.npz",
        names=np.array(spans.names), code=spans.code, start=spans.start,
        end=spans.end, parent=np.array(analysis.parent, dtype=np.int64),
        instance=analysis.instance,
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: a child process that stops where the first timed instance
    # would start, so the parent can time set-up from process start
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_misrecon()
    from workloads import REGIMES, Workload, load_reference

    if args.workload not in REGIMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(REGIMES)}")
    wl = Workload(args.workload, REGIMES[args.workload], load_reference())
    insts = wl.instances(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    record = run_record(wl, args)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[section]}

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(TRACED_FUNCTIONS, TRACED_METHODS)
        data = timed_loop(wl, insts, args.seconds, tracer)
        metrics = per_layer_metrics(data, tracer, wl.name, units)
    else:
        setup, setup_probes = measure_setup(wl.name, args.seed)
        record["setup_raw_s"] = setup
        record["setup_probe_s"] = setup_probes
        data = timed_loop(wl, insts, args.seconds)
        metrics = end_to_end_metrics(
            data, scaled(setup, setup_probes, range(len(setup)))
        )
        for argv_cli, expected in wl.cli_cases(insts, data.outcomes):
            try:
                ok = cli_decoded_digest(argv_cli) == expected
                if not ok:
                    data.errors.append(f"CLI output differs: misrecon {' '.join(argv_cli)}")
            except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
                data.errors.append(f"CLI run failed: {exc}")
                ok = False
            record.setdefault("cli_crosscheck", []).append(
                {"argv": argv_cli, "identical": ok}
            )

    summary = summarize(data)
    record.update(summary)
    record["benchmark_errors"] = data.errors
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")

    print("record " + json.dumps(record, sort_keys=True, default=str))
    for name in units:
        print(f"metric {wl.name} {name} = {metrics[name]!r} {units[name]}")
    result = {
        "correct": summary["failed"] == 0 and not data.errors,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{wl.name}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
