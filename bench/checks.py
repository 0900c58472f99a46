"""Output checks for the benchmark's CLI calls.

Every ``--out`` plot file is checked for structural invariants. When a
stored reference exists for the same round config and CLI seed (written by
``run.py --make-reference`` at the commit that defined the benchmark), the
values are also compared with it under these tolerances, which absorb
last-digit shifts of a solver run at ``tol = 1e-9`` but not a wrong answer:

- integer columns (hits, evaluated, excluded, attempted): within 1 per cell;
- coverage: within 2 / evaluated of the reference;
- mean_half_width: relative difference at most 1e-6;
- rate rows: log-scale ``y`` of each point within 1e-6 (a relative 1e-6 on
  the mean), fitted slope and intercept within 1e-5.
"""

from __future__ import annotations

import csv
import io
import math
import re

# Curve labels a rate kind emits; only potential_rate has a workload.
RATE_LABELS = {"potential_rate": ("holder_sq", "sup_sq")}


def parse_config(text: str) -> dict:
    """The ``key = value`` pairs of an experiment config, comments dropped."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _grid(cfg: dict):
    dims = [int(v) for v in cfg["dims"].split(",")]
    eps = [float(v) for v in cfg["eps_list"].split(",")]
    ns = [int(v) for v in cfg["n_list"].split(",")]
    return dims, eps, ns


def replicates_per_call(cfg: dict) -> int:
    dims, eps, ns = _grid(cfg)
    return len(dims) * len(eps) * len(ns) * int(cfg["replicates"])


def _fmt(x: float) -> str:
    return "%.17g" % x


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_coverage(text: str, cfg: dict, ref: str | None):
    """Problems found and replicates excluded, for one coverage plot file."""
    problems = []
    rows = _rows(text)
    dims, eps_list, ns = _grid(cfg)
    reps = int(cfg["replicates"])
    keys = [(str(d), _fmt(e), str(n)) for d in dims for e in eps_list for n in ns]
    if [(r.get("d"), r.get("eps"), r.get("n")) for r in rows] != keys:
        return [f"cells {[(r.get('d'), r.get('eps'), r.get('n')) for r in rows]}"
                f" differ from the config's {keys}"], reps * len(keys)
    excluded = 0
    for r in rows:
        cell = f"cell d={r['d']} eps={r['eps']} n={r['n']}"
        try:
            hits, ev, ex, att = (int(r[k]) for k in
                                 ("hits", "evaluated", "excluded", "attempted"))
            cov, hw = float(r["coverage"]), float(r["mean_half_width"])
        except (TypeError, ValueError) as exc:
            problems.append(f"{cell}: unparsable row ({exc})")
            excluded += reps
            continue
        excluded += ex
        if att != reps or ev + ex != att or not 0 <= hits <= ev:
            problems.append(f"{cell}: counts hits={hits} evaluated={ev} "
                            f"excluded={ex} attempted={att}")
        if ev and not (math.isfinite(cov) and 0.0 <= cov <= 1.0 and cov == hits / ev):
            problems.append(f"{cell}: coverage {cov} is not hits/evaluated")
        if ev and not (math.isfinite(hw) and hw > 0.0):
            problems.append(f"{cell}: mean half-width {hw} is not positive")
    if ref is not None and not problems:
        for r, q in zip(rows, _rows(ref)):
            cell = f"cell d={r['d']} eps={r['eps']} n={r['n']}"
            for k in ("hits", "evaluated", "excluded", "attempted"):
                if abs(int(r[k]) - int(q[k])) > 1:
                    problems.append(f"{cell}: {k} {r[k]} vs reference {q[k]}")
            if abs(float(r["coverage"]) - float(q["coverage"])) > 2.0 / int(q["evaluated"]):
                problems.append(f"{cell}: coverage {r['coverage']} vs reference "
                                f"{q['coverage']}")
            hw, hq = float(r["mean_half_width"]), float(q["mean_half_width"])
            if abs(hw - hq) > 1e-6 * abs(hq):
                problems.append(f"{cell}: mean_half_width {hw} vs reference {hq}")
    return problems, excluded


_POINT_LINE = re.compile(r"^\s+n=(\d+)\s.*evaluated=(\d+)\s+excluded=(\d+)\s*$")


def check_rate(text: str, table: str, cfg: dict, ref: str | None):
    """Problems found and replicates excluded, for one rate plot file.

    The plot format carries no replicate counts, so they are read from the
    human table the CLI prints on stdout.
    """
    problems = []
    dims, eps_list, ns = _grid(cfg)
    reps = int(cfg["replicates"])
    labels = RATE_LABELS[cfg["kind"]]
    keys = []
    for d in dims:
        for e in eps_list:
            for label in labels:
                keys += [(label, str(d), _fmt(e), "point", _fmt(math.log(n)))
                         for n in ns]
                keys.append((label, str(d), _fmt(e), "fit", None))
    rows = _rows(text)
    got = [(r.get("curve"), r.get("d"), r.get("eps"), r.get("row"),
            r.get("x") if r.get("row") == "point" else None) for r in rows]
    if got != keys:
        return [f"rate rows {got} differ from the expected {keys}"], \
            replicates_per_call(cfg)
    for r in rows:
        try:
            finite = math.isfinite(float(r["x"])) and math.isfinite(float(r["y"]))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            problems.append(f"curve {r['curve']} row {r['row']}: bad value "
                            f"x={r['x']} y={r['y']}")
    counts = [tuple(int(v) for v in m.groups())
              for m in map(_POINT_LINE.match, table.splitlines()) if m]
    expected_points = len(dims) * len(eps_list) * len(labels) * len(ns)
    if len(counts) != expected_points:
        problems.append(f"table lists {len(counts)} points, expected {expected_points}")
    excluded = sum(ex for _, _, ex in counts) // len(labels)
    for n, ev, ex in counts:
        if ev + ex != reps:
            problems.append(f"point n={n}: evaluated {ev} + excluded {ex} != {reps}")
    if ref is not None and not problems:
        for r, q in zip(rows, _rows(ref)):
            where = f"curve {r['curve']} d={r['d']} eps={r['eps']} row {r['row']}"
            tol_x, tol_y = (0.0, 1e-6) if r["row"] == "point" else (1e-5, 1e-5)
            if abs(float(r["x"]) - float(q["x"])) > tol_x:
                problems.append(f"{where}: x {r['x']} vs reference {q['x']}")
            if abs(float(r["y"]) - float(q["y"])) > tol_y:
                problems.append(f"{where}: y {r['y']} vs reference {q['y']}")
    return problems, excluded


def check_call(call: dict, cfg: dict, ref: str | None):
    """(problems, replicates excluded) for one CLI call's recorded output."""
    if call["code"] != 0:
        return [f"CLI exited with code {call['code']}"], replicates_per_call(cfg)
    if cfg["kind"] == "coverage":
        return check_coverage(call["out"], cfg, ref)
    return check_rate(call["out"], call["table"], cfg, ref)
