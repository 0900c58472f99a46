"""One benchmark child process: import entot, then run CLI calls in a loop.

Spawned by ``bench/run.py`` with a JSON job file as its only argument. It
prints ``ready`` on stdout once ``entot.cli`` is imported (and, in a traced
job, the tracer installed), then runs its calls and writes a JSON result
next to the job file. The parent times set-up from spawn to ``ready``.

Each call is ``entot.cli.run(["coverage"|"rate", "--config", ..., "--threads",
K, "--seed", S, "--out", ..., "--format", "plot"])``: the same entry point a
user's ``entot`` command reaches.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import numpy

    from entot import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0

    work = Path(job["work"])
    config = work / "round.txt"
    config.write_text(job["config_text"], encoding="utf-8")
    calls = []
    started = time.perf_counter()
    for i, seed in enumerate(job["seeds"]):
        out = work / f"out-{job['tag']}-{i}.csv"
        argv = [job["command"], "--config", str(config),
                "--threads", str(job["threads"]), "--seed", str(seed),
                "--out", str(out), "--format", "plot"]
        table = io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(table):
            code = cli.run(argv)
        seconds = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        out.unlink(missing_ok=True)
        calls.append({"seed": seed, "code": code, "seconds": seconds,
                      "cpu_s": cpu, "out": text, "table": table.getvalue()})
        elapsed = time.perf_counter() - started
        # Time-bounded loops stop before a call that would overrun, but not
        # before their first ``min_calls`` calls are done.
        if (job["seconds"] is not None and len(calls) >= job["min_calls"]
                and elapsed + seconds > job["seconds"]):
            break

    result = {
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "trace": tracer.summary() if tracer else None,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
