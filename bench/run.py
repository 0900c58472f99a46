"""Benchmark of real ``entot`` experiments, end to end and layer by layer.

Usage, from the repository root::

    python3 bench/run.py --workload coverage-desk --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36   # every workload
    python3 bench/run.py --smoke                                # the bench's own test
    python3 bench/run.py --make-reference                       # rewrite references

A run spawns fresh child processes (``bench/child.py``) that import entot
from ``src/`` and call ``entot.cli.run`` in a closed loop: one call at a
time, the next as soon as the previous returns, on a single process using at
most ``nproc`` harness threads, with BLAS/OpenMP pinned to one thread. Call
``i`` of a run forwards ``--seed S + i * 2**32`` to the CLI, so call 0 uses
the workload seed itself and no two runs share inputs.

``--trace 0`` loops for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of calls untraced, then the same calls
traced, then call 0 at the other thread count, and prints the per-layer
metrics. Both then make one untimed call at seed ``S % 32`` and compare its
output with the stored reference. The last stdout line is the result object;
the line before it records the seed, machine and environment. See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_call, parse_config, replicates_per_call  # noqa: E402

SEED_STRIDE = 1 << 32
REFERENCE_SEEDS = 32  # bench/reference/ holds CLI seeds 0 .. REFERENCE_SEEDS - 1
MAX_LOOP_CALLS = 5000
SETUP_PROBES = 16  # half before the loop, half after the reference call
CHILD_TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    command: str           # CLI subcommand
    config: str            # experiment config, relative to the repo root
    parallel: bool         # --threads nproc when true, else --threads 1
    round_replicates: int  # replicates per cell in one CLI call
    call_s: float          # typical seconds per call on 2 cores; sizes --trace 1
    failure_calls: int     # loop calls failed_frac counts; about half of 36 s


WORKLOADS = {
    # What users run: small d=2 cells, 8-14 sweeps per interval, so the fixed
    # per-interval work (cost builds, checks, quantile, sampling) is a large
    # share; two harness threads.
    "coverage-desk": Workload("coverage", "configs/coverage_desk.txt", True, 25, 1.4, 12),
    # Sweep-bound cells at eps=0.5, single-threaded baseline; n=250 fits
    # the cost matrix in L2, n=500 spills it.
    "coverage-small-eps": Workload(
        "coverage", "bench/configs/coverage_small_eps.txt", False, 3, 2.2, 8),
    # Skinny n x 10 solves dominated by per-call overhead, and holder_norm on
    # the 41 x 41 grid; the only workload that reaches the potentials layer.
    "potential-rate": Workload("rate", "configs/potential_rate_desk.txt", True, 20, 0.6, 30),
}


class BenchError(Exception):
    """The benchmark could not run (missing sources, a child crashed)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def round_config(wl: Workload, replicates: int) -> str:
    """The workload's config file with only ``replicates`` changed."""
    path = ROOT / wl.config
    if not path.is_file():
        raise BenchError(f"missing experiment config {wl.config}")
    text, count = re.subn(r"(?m)^replicates\s*=.*$", f"replicates = {replicates}",
                          path.read_text(encoding="utf-8"))
    if count != 1:
        raise BenchError(f"{wl.config} has no single 'replicates' line")
    return text


def _load_reference(name: str, config_text: str) -> dict:
    """Stored outputs by CLI seed; an error when they are missing or were
    written for another config."""
    path = HERE / "reference" / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"missing reference bench/reference/{name}.json")
    ref = json.loads(path.read_text(encoding="utf-8"))
    if ref["config"] != config_text:
        raise BenchError(f"bench/reference/{name}.json was written for another "
                         "config; rewrite it with --make-reference")
    return ref["outputs"]


# ---------------------------------------------------------------------------
# machine and environment


def _steal_jiffies():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def machine_snapshot() -> dict:
    return {"loadavg": _loadavg(), "steal_jiffies": _steal_jiffies(),
            "time": time.time()}


def git_head():
    """HEAD of the repository the bench sits in, if it is a git checkout."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Spawns children into a private work directory inside the checkout."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "entot" / "cli.py").is_file():
            raise BenchError(f"no entot sources under {src}")
        self.src = src
        self.work = ROOT / ".bench_work" / str(os.getpid())
        self.env = {k: v for k, v in os.environ.items() if k != "EOT_THREADS"}
        self.env.update({k: "1" for k in BLAS_VARS})
        self.snapshots = []
        self._jobs = 0

    def __enter__(self):
        self.work.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def spawn(self, mode: str, trace: bool = False, command: str = "",
              config_text: str = "", threads: int = 1, seeds=(),
              seconds: float | None = None, min_calls: int = 0):
        """Run one child; returns (set-up seconds, result dict or None)."""
        self._jobs += 1
        tag = f"job{self._jobs}"
        job = {"mode": mode, "trace": trace, "src": str(self.src),
               "work": str(self.work), "tag": tag, "command": command,
               "config_text": config_text, "threads": threads,
               "seeds": list(seeds), "seconds": seconds, "min_calls": min_calls,
               "result": str(self.work / f"{tag}-result.json")}
        job_path = self.work / f"{tag}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        err_path = self.work / f"{tag}.err"
        before = machine_snapshot()
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=str(ROOT),
                text=True)
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            try:
                proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError(f"{mode} child ran past {CHILD_TIMEOUT_S} s")
            code = proc.returncode
        if mode != "setup":
            self.snapshots.append({"job": tag, "mode": mode, "trace": trace,
                                   "before": before, "after": machine_snapshot()})
        if line.strip() != "ready" or code != 0:
            tail = err_path.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"{mode} child exited with code {code}: {tail}")
        if mode == "setup":
            return setup, None
        return setup, json.loads(Path(job["result"]).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# one workload run


def _seeds(seed: int, count: int) -> list[int]:
    return [seed + i * SEED_STRIDE for i in range(count)]


def _check_calls(calls, cfg, refs):
    """(failed replicates per call, problems, reference-checked call count).

    A call's failed replicates are the ones the harness excluded, or all of
    them when the call exited non-zero or failed the output check.
    """
    per_call = replicates_per_call(cfg)
    failed, problems, checked = [], [], 0
    for call in calls:
        ref = refs.get(str(call["seed"])) if refs is not None else None
        found, excluded = check_call(call, cfg, ref)
        failed.append(per_call if found else excluded)
        checked += ref is not None
        problems += [f"seed {call['seed']}: {p}" for p in found]
    return failed, problems, checked


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 replicates: int | None = None, probes: int = SETUP_PROBES,
                 trace_calls: int | None = None) -> tuple[dict, dict]:
    """Returns (result object, record of seed, machine and environment).

    At the workload's own round size every run compares at least one call
    with the stored reference; at other sizes (``--smoke``) only the
    invariants are checked.
    """
    wl = WORKLOADS[name]
    reps = replicates or wl.round_replicates
    config_text = round_config(wl, reps)
    cfg = parse_config(config_text)
    refs = _load_reference(name, config_text) if replicates is None else None
    per_call = replicates_per_call(cfg)
    threads = nproc() if wl.parallel else 1
    common = {"command": wl.command, "config_text": config_text}

    with Runner() as runner:
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "round_replicates": reps, "threads": threads, "nproc": nproc(),
            "python": platform.python_version(), "git_head": git_head(),
            "blas_env": {k: runner.env[k] for k in BLAS_VARS},
        }

        def reference_calls():
            """One untimed call whose seed has a stored reference."""
            if refs is None:
                return []
            return runner.spawn("fixed", threads=threads, seeds=[seed % REFERENCE_SEEDS],
                                **common)[1]["calls"]

        if not trace:
            setups = [runner.spawn("setup")[0] for _ in range(probes // 2)]
            setup, res = runner.spawn("loop", threads=threads, seconds=seconds,
                                      seeds=_seeds(seed, MAX_LOOP_CALLS),
                                      min_calls=wl.failure_calls, **common)
            setups.append(setup)
            timed = res["calls"]
            calls = timed + reference_calls()
            # Set-up time shifts between machine states that last seconds;
            # probes on both sides of the loop see more than one of them.
            setups += [runner.spawn("setup")[0] for _ in range(probes - probes // 2)]
            record["setup_seconds"] = [round(s, 6) for s in setups]
        else:
            count = trace_calls or max(1, round(seconds / (2 * wl.call_s)))
            seeds = _seeds(seed, count)
            _, plain = runner.spawn("fixed", threads=threads, seeds=seeds, **common)
            _, traced = runner.spawn("fixed", trace=True, threads=threads,
                                     seeds=seeds, **common)
            other = 1 if threads > 1 else nproc()
            _, alt = runner.spawn("fixed", threads=other, seeds=seeds[:1], **common)
            res = traced
            calls = plain["calls"] + traced["calls"] + alt["calls"] + reference_calls()
        failed, problems, checked = _check_calls(calls, cfg, refs)
        if refs is not None and not checked:
            problems.append("no call was compared with a stored reference")
        attempted = per_call * len(calls)
        if not trace:
            # The first failure_calls loop calls and the reference call: a
            # call count that does not depend on how fast the loop ran.
            counted = failed[:wl.failure_calls] + failed[len(timed):]
            metrics = {
                "replicates_per_s": _metric(statistics.median(
                    per_call / c["seconds"] for c in timed), "1/s"),
                "setup_s": _metric(min(setups), "s"),
                "cpu_ms_per_replicate": _metric(statistics.median(
                    1000.0 * c["cpu_s"] / per_call for c in timed), "ms"),
                "peak_rss_mb": _metric(res["maxrss_kb"] / 1024.0, "MB"),
                # Rule-of-succession estimate: never 0, and a single failed
                # replicate moves it by a visible share.
                "failed_frac": _metric((sum(counted) + 1)
                                       / (per_call * len(counted) + 2), "frac"),
            }
        else:
            match = plain["calls"][0]["out"] == alt["calls"][0]["out"]
            if not match:
                problems.append(f"--threads {threads} and --threads {other} outputs differ")
            plain_s = sum(c["seconds"] for c in plain["calls"])
            traced_s = sum(c["seconds"] for c in traced["calls"])
            metrics = layer_metrics(traced["trace"])
            metrics["harness.bytes_match_threads1"] = _metric(int(match), "count")
            metrics["trace_overhead_frac"] = _metric(plain_s / traced_s - 1.0, "frac")
        record.update({
            "numpy": res["numpy"], "calls": len(calls),
            "call_seconds": [round(c["seconds"], 6) for c in calls],
            "call_cpu_s": [round(c["cpu_s"], 6) for c in calls],
            "attempted": attempted, "failed": sum(failed),
            "failure_calls": wl.failure_calls, "reference_checked_calls": checked,
            "problems": problems[:20], "machine": runner.snapshots,
        })
    result = {"correct": not problems, "attempted": attempted, "failed": sum(failed),
              "metrics": metrics}
    return result, record


# ---------------------------------------------------------------------------
# per-layer metrics from a trace summary

_LAYERS = ("cli", "harness", "inference", "sinkhorn", "measures", "potentials",
           "oracle")


def layer_metrics(summary: dict) -> dict:
    def fn(name, key):
        return summary.get(name, {}).get(key, 0)

    def counts(name, width):
        return summary.get(name, {}).get("counts") or (0,) * width

    def layer_sum(layer, key):
        return sum(v[key] for k, v in summary.items() if k.startswith(layer + "."))

    sweeps, sweep_entries, not_converged = counts("sinkhorn.solve", 3)
    solves = fn("sinkhorn.solve", "calls")
    m = {
        "sinkhorn.sweeps": (sweeps, "count"),
        "sinkhorn.sweeps_per_solve": (sweeps / solves if solves else 0.0, "count"),
        "sinkhorn.sweep_entries": (sweep_entries, "count"),
        "sinkhorn.sweep_ns_per_entry": (
            1e9 * fn("sinkhorn.solve", "self_s") / sweep_entries
            if sweep_entries else 0.0, "ns"),
        "sinkhorn.not_converged": (not_converged, "count"),
        "sinkhorn.cost_entries_built": (counts("sinkhorn.half_sq_cost", 1)[0], "count"),
        "potentials.grid_entries": (counts("potentials.evaluate", 1)[0], "count"),
        "harness.wait_s": (sum(v["wait_s"] for v in summary.values()), "s"),
    }
    for name, key in (
        ("sinkhorn.solve", "calls"), ("sinkhorn.solve", "self_s"),
        ("sinkhorn.solve", "wait_s"), ("sinkhorn.half_sq_cost", "calls"),
        ("sinkhorn.half_sq_cost", "self_s"), ("sinkhorn.dual_objective", "self_s"),
        ("sinkhorn.cost", "self_s"), ("inference.ci_two_sample", "self_s"),
        ("inference.normal_quantile", "calls"), ("inference.normal_quantile", "self_s"),
        ("inference.variance_two_sample", "self_s"), ("potentials.holder_norm", "self_s"),
        ("potentials.evaluate", "calls"), ("potentials.evaluate", "self_s"),
        ("measures.sample", "calls"), ("measures.sample", "self_s"),
        ("oracle.gaussian_cost", "self_s"), ("harness.emit", "self_s"),
    ):
        m[f"{name}.{key}"] = (fn(name, key), "count" if key == "calls" else "s")
    for layer in _LAYERS:
        m[f"{layer}.self_s"] = (layer_sum(layer, "self_s"), "s")
    for layer in ("sinkhorn", "potentials"):
        m[f"{layer}.wait_s"] = (layer_sum(layer, "wait_s"), "s")
    return {k: _metric(v, u) for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# modes


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced; checks that each
    metric BENCHMARK.json names is printed with its unit, and nothing else."""
    spec = _spec()
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json workloads differ from bench/run.py", file=sys.stderr)
        return 1
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = run_workload(name, 7, 1.0, trace, replicates=1, probes=1,
                                     trace_calls=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = result["correct"] and got == wanted[trace] and all(
                isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for v in result["metrics"].values())
            ok &= good
            print(f"{name:20s} trace={int(trace)} {'ok' if good else 'FAILED'}")
            if not good:
                print(json.dumps(result), file=sys.stderr)
    return 0 if ok else 1


def make_reference(seeds) -> int:
    """Store call outputs for ``seeds`` at --threads 1, one file per workload."""
    for name, wl in WORKLOADS.items():
        config_text = round_config(wl, wl.round_replicates)
        with Runner() as runner:
            _, res = runner.spawn("fixed", command=wl.command,
                                  config_text=config_text, threads=1, seeds=seeds)
        cfg = parse_config(config_text)
        outputs = {}
        for call in res["calls"]:
            problems, _ = check_call(call, cfg, None)
            if problems:
                raise BenchError(f"{name} seed {call['seed']}: {problems}")
            outputs[str(call["seed"])] = call["out"]
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"config": config_text, "git_head": git_head(),
                                    "outputs": outputs}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"{name}: {len(outputs)} reference outputs")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < SEED_STRIDE:
        parser.error(f"--seed must lie in [0, {SEED_STRIDE})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.smoke:
            return smoke()
        if args.make_reference:
            return make_reference(list(range(REFERENCE_SEEDS)))
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        correct = True
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
            correct &= result["correct"]
            for problem in record["problems"]:
                print(f"{name}: {problem}", file=sys.stderr)
            print(json.dumps({"record": record}))
            if len(names) > 1:
                for key, m in result["metrics"].items():
                    print(f"  {name:20s} {key:36s} {m['value']:.6g} {m['unit']}")
            print(json.dumps(result))
        return 0 if correct else 1
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
