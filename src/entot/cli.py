"""Command-line surface: solve, cost, divergence, ci, coverage, rate.

Exit codes: 0 success, 2 usage error, 3 iteration budget exhausted,
4 IO or file-format error. Human-readable tables print 6 significant
digits; machine outputs written via --out carry 17 significant digits so
values round-trip bit for bit.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptySupport,
    EntotError,
    MalformedFile,
    NonSimplexWeights,
    NotConverged,
)
from .harness import (
    EmitFormat,
    ExperimentKind,
    emit,
    load_config,
    run_experiment,
)
from .inference import ci_two_sample, sinkhorn_divergence
from .measures import fmt17, load_measure
from .sinkhorn import SolverConfig, _solved_cost


def _fmt6(x) -> str:
    return "%.6g" % float(x)


def _print_table(rows) -> None:
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")


def _write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("field,index,value\n")
        for field, index, value in records:
            fh.write(f"{field},{index},{value}\n")


def _report(fields, out) -> None:
    """Print (name, value) fields as a 6-digit table and, when ``out`` is
    set, write them as 17-digit records. Integers print as they are."""
    def fmt(value, fmt_float):
        return str(value) if isinstance(value, int) else fmt_float(value)

    _print_table([(name, fmt(value, _fmt6)) for name, value in fields])
    if out:
        _write_records(out, [(name, "", fmt(value, fmt17)) for name, value in fields])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entot",
        description="Entropic optimal transport: solving, inference, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--p", required=True, help="first measure file")
        p.add_argument("--q", required=True, help="second measure file")
        p.add_argument("--eps", type=float, required=True, help="regularization")
        p.add_argument("--tol", type=float, default=SolverConfig.tol,
                       help="marginal residual target")
        p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, dest="max_iter")
        p.add_argument("--out", default=None, help="write machine-readable CSV here")
        return p

    add_solver_command("solve", _cmd_solve, "solve the dual and print diagnostics")
    add_solver_command("cost", _cmd_cost, "print the transport cost only")
    add_solver_command("divergence", _cmd_divergence, "debiased divergence (three solves)")
    p_ci = add_solver_command("ci", _cmd_ci, "two-sample confidence interval")
    p_ci.add_argument("--alpha", type=float, default=0.05, help="1 - level")

    for name, help_text in (
        ("coverage", "Monte Carlo interval coverage per (d, eps, n) cell"),
        ("rate", "Monte Carlo convergence-rate experiment"),
    ):
        p_exp = sub.add_parser(name, help=help_text)
        p_exp.set_defaults(handler=_cmd_experiment)
        p_exp.add_argument("--config", required=True, help="experiment config file")
        p_exp.add_argument("--out", default=None, help="emit results to this file")
        p_exp.add_argument("--format", choices=["csv", "plot"], default="csv")
        p_exp.add_argument("--threads", type=int, default=None,
                           help="most replicate threads (default: usable CPUs; "
                                "1 = serial; below 1 exits 2)")
        p_exp.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
    return parser


def _load_inputs(args):
    P = load_measure(args.p)
    Q = load_measure(args.q)
    cfg = SolverConfig(eps=args.eps, tol=args.tol, max_iter=args.max_iter)
    return P, Q, cfg


def _cmd_solve(args) -> int:
    P, Q, cfg = _load_inputs(args)
    pair, report, value = _solved_cost(P, Q, cfg)
    _print_table([
        ("cost", _fmt6(value)),
        ("dual", _fmt6(report.dual_value)),
        ("iterations", str(report.iterations)),
        ("residual", _fmt6(report.final_residual)),
        ("converged", "yes" if report.converged else "no"),
    ])
    if args.out:
        records = [
            ("cost", "", fmt17(value)),
            ("dual_value", "", fmt17(report.dual_value)),
            ("final_residual", "", fmt17(report.final_residual)),
            ("iterations", "", str(report.iterations)),
            ("converged", "", "1" if report.converged else "0"),
            ("eps", "", fmt17(cfg.eps)),
        ]
        records += [("f", str(i), fmt17(v)) for i, v in enumerate(pair.f)]
        records += [("g", str(j), fmt17(v)) for j, v in enumerate(pair.g)]
        _write_records(args.out, records)
    return 0


def _cmd_cost(args) -> int:
    P, Q, cfg = _load_inputs(args)
    value = _solved_cost(P, Q, cfg)[2]
    print(fmt17(value))
    if args.out:
        _write_records(args.out, [("cost", "", fmt17(value))])
    return 0


def _cmd_divergence(args) -> int:
    P, Q, cfg = _load_inputs(args)
    div = sinkhorn_divergence(P, Q, cfg)
    s_pq, s_pp, s_qq = div.parts
    _report([("divergence", div.value), ("s_pq", s_pq), ("s_pp", s_pp),
             ("s_qq", s_qq), ("eps", div.eps)], args.out)
    return 0


def _cmd_ci(args) -> int:
    P, Q, cfg = _load_inputs(args)
    ci = ci_two_sample(P, Q, cfg, args.alpha)
    _report([
        ("center", ci.center), ("half_width", ci.half_width), ("low", ci.low),
        ("high", ci.high), ("level", ci.level), ("variance", ci.variance.value),
        ("n", ci.variance.n), ("m", ci.variance.m),
    ], args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    expect_coverage = args.command == "coverage"
    is_coverage = cfg.kind is ExperimentKind.COVERAGE
    if expect_coverage != is_coverage:
        wanted = "coverage" if expect_coverage else "a rate kind"
        raise ConfigError(f"config kind is {cfg.kind.value}, expected {wanted}")
    result = run_experiment(cfg, threads=args.threads)
    if is_coverage:
        print("d  eps  n  coverage  mean_half_width  evaluated  excluded")
        for c in result.cells:
            print(f"{c.d}  {_fmt6(c.eps)}  {c.n}  {_fmt6(c.coverage)}  "
                  f"{_fmt6(c.mean_half_width)}  {c.evaluated}  {c.excluded}")
    else:
        for curve in result.curves:
            print(f"curve {curve.label} d={curve.d} eps={_fmt6(curve.eps)} "
                  f"slope={_fmt6(curve.slope)} slope_se={_fmt6(curve.slope_se)}")
            for p in curve.points:
                print(f"  n={p.n}  mean={_fmt6(p.mean)}  sd={_fmt6(p.sd)}  "
                      f"evaluated={p.evaluated}  excluded={p.excluded}")
    if args.out:
        fmt = EmitFormat.CSV_TABLE if args.format == "csv" else EmitFormat.PLOT_DATA
        emit(result, args.out, fmt)
    return 0


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except NotConverged as exc:
        print(f"entot: not converged: {exc}", file=sys.stderr)
        return 3
    except (OSError, MalformedFile, NonSimplexWeights, EmptySupport,
            ConfigError, DimensionMismatch) as exc:
        print(f"entot: {exc}", file=sys.stderr)
        return 4
    except (EntotError, ValueError) as exc:
        print(f"entot: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
