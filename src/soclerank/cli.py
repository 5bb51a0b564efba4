"""Command line front end.

Subcommands cover scalar evaluation (theta, mu), coefficient queries,
stratum enumeration, the brute-force oracles, the verification grids,
and the conjectural Betti report.  Output formats: pretty (default),
json, csv.  Exit codes: 0 success, 1 at least one verification report
not ok, 2 usage error.
"""

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import oracles
from .coeffs import c_coefficient
from .exact import format_scalar
from .ranks import betti_report, verify_housing_theorem, verify_rank_theorem
from .socle import ModuliContext, mu, mu_dprime, mu_prime, theta
from .strata import enumerate_boundary_generators, enumerate_pure_housing_partitions

FORMATS = ("pretty", "json", "csv")


def _partition_arg(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise argparse.ArgumentTypeError("expected a JSON list such as [3,1]")
    if not isinstance(data, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in data
    ):
        raise argparse.ArgumentTypeError("expected a JSON list of positive integers")
    ordered = sorted(data, reverse=True)
    if ordered != data:
        print(
            "warning: partition %s reordered to %s" % (data, ordered),
            file=sys.stderr,
        )
    return tuple(ordered)


def _partition_list_arg(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise argparse.ArgumentTypeError("expected a JSON list of lists")
    if isinstance(data, list) and all(isinstance(x, int) for x in data):
        data = [data]
    if not isinstance(data, list):
        raise argparse.ArgumentTypeError("expected a JSON list of lists")
    return tuple(_partition_arg(json.dumps(item)) for item in data)


def _order_arg(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise argparse.ArgumentTypeError("expected a JSON list of indices")
    if not isinstance(data, list) or sorted(data) != list(range(len(data))):
        raise argparse.ArgumentTypeError("expected a permutation of 0..n-1")
    return tuple(data)


def _jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else format_scalar(x)
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    return x


def _print_csv(rows, fieldnames):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k, "")) for k in fieldnames})
    print(out.getvalue(), end="")


def _csv_cell(v):
    if isinstance(v, (list, tuple)):
        return json.dumps(_jsonable(v))
    if isinstance(v, Fraction):
        return format_scalar(v)
    return v


def _emit_scalar(fmt, payload, value):
    if fmt == "json":
        print(json.dumps(_jsonable(payload | {"value": value})))
    elif fmt == "csv":
        _print_csv([payload | {"value": value}], list(payload) + ["value"])
    else:
        print(format_scalar(value) if isinstance(value, (int, Fraction)) else value)


def _emit_report(fmt, report):
    if fmt == "json":
        print(json.dumps(_jsonable(report)))
    elif fmt == "csv":
        _print_csv([report], list(report))
    else:
        print(" ".join("%s=%s" % (k, _csv_cell(v)) for k, v in report.items()))


def _parser():
    top = argparse.ArgumentParser(
        prog="soclerank",
        description="Exact socle pairing values, strata, coefficients, and rank checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="pretty")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", parents=[common], help="compact-type evaluation")
    p.add_argument("--sigma", type=_partition_arg, required=True)
    p.add_argument("--tau", type=_partition_arg, default=())

    p = sub.add_parser("mu", parents=[common], help="smooth-locus evaluation")
    p.add_argument("--sigma", type=_partition_arg, required=True)
    p.add_argument("--tau", type=_partition_arg, default=())
    p.add_argument("--variant", choices=("plain", "prime", "dprime"), default="plain")

    p = sub.add_parser("coeff", parents=[common], help="expansion coefficient")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--gamma", type=_partition_arg, required=True)
    p.add_argument("--kappa", type=_partition_list_arg, default=None)
    p.add_argument("--psi", type=_partition_list_arg, default=None)

    p = sub.add_parser("strata", parents=[common], help="stratum enumeration")
    strata_sub = p.add_subparsers(dest="strata_command", required=True)
    q = strata_sub.add_parser("enumerate", parents=[common])
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--pure", action="store_true")

    p = sub.add_parser("oracle", parents=[common], help="brute-force cross-checks")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    specs = {
        "lemma-tool": (("--sigma", True), ("--tau", False), ("--order", False)),
        "main-claim": (("--lambda", True), ("--tau", False), ("--rho", False)),
        "comb": (("--pi", True),),
        "a1": (("--lambda", True), ("--tau", False)),
        "a4": (("--sigma", True), ("--tau", False), ("--r", False)),
        "b2": (("--sigma", True), ("--tau", False)),
    }
    for name, flags in specs.items():
        q = oracle_sub.add_parser(name, parents=[common])
        for flag, required in flags:
            if flag == "--order":
                q.add_argument(flag, type=_order_arg, default=None)
            elif flag == "--r":
                q.add_argument(flag, type=int, default=None)
            elif flag == "--lambda":
                q.add_argument(flag, dest="lam", type=_partition_arg, required=required)
            else:
                q.add_argument(
                    flag,
                    type=_partition_arg,
                    required=required,
                    default=None if required else (),
                )
        q.add_argument("--max-symbols", type=int, default=oracles.DEFAULT_MAX_SYMBOLS)

    p = sub.add_parser("verify", parents=[common], help="theorem verification")
    verify_sub = p.add_subparsers(dest="verify_command", required=True)
    q = verify_sub.add_parser("housing", parents=[common])
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--r", type=int, default=None)
    q = verify_sub.add_parser("rank", parents=[common])
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--d", type=int, default=None)
    q = verify_sub.add_parser("all", parents=[common])
    q.add_argument("--max-g", type=int, default=5)
    q.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("report", parents=[common], help="summary reports")
    report_sub = p.add_subparsers(dest="report_command", required=True)
    q = report_sub.add_parser("betti", parents=[common])
    q.add_argument("--g", type=int, required=True)

    return top


def _cmd_theta(args):
    payload = {"sigma": args.sigma, "tau": args.tau}
    _emit_scalar(args.format, payload, theta(args.sigma, args.tau))
    return 0


def _cmd_mu(args):
    func = {"plain": mu, "prime": mu_prime, "dprime": mu_dprime}[args.variant]
    payload = {"sigma": args.sigma, "tau": args.tau, "variant": args.variant}
    _emit_scalar(args.format, payload, func(args.sigma, args.tau))
    return 0


def _cmd_coeff(args):
    k = len(args.gamma)
    kappas = args.kappa if args.kappa is not None else ((),) * k
    psis = args.psi if args.psi is not None else ((),) * k
    if len(kappas) != k or len(psis) != k:
        print("error: need one decoration per gamma part", file=sys.stderr)
        return 2
    value = c_coefficient(args.lam, args.gamma, kappas, psis)
    oracle = None
    if len(args.gamma) == 1:
        symbols = (
            sum(args.lam) + len(args.lam)
            + sum(kappas[0]) + len(kappas[0]) + sum(psis[0])
        )
        if symbols <= 8:
            oracle = oracles.count_main_claim(args.lam, kappas[0], psis[0])
    payload = {
        "lambda": args.lam,
        "gamma": args.gamma,
        "kappa": kappas,
        "psi": psis,
        "coefficient": value,
        "oracle": oracle,
    }
    if args.format == "json":
        print(json.dumps(_jsonable(payload)))
    elif args.format == "csv":
        _print_csv([payload], list(payload))
    else:
        print(format_scalar(value))
        if oracle is not None:
            print("oracle %s" % format_scalar(oracle))
    return 0


def _cmd_strata(args):
    if args.pure:
        rows = [
            {"gamma": list(sigma), "kappa": [[] for _ in sigma], "psi": [[] for _ in sigma]}
            for sigma in sorted(enumerate_pure_housing_partitions(args.g, args.d))
        ]
    else:
        rows = [
            {
                "gamma": [m for m, _, _ in data],
                "kappa": [list(kap) for _, kap, _ in data],
                "psi": [list(psi) for _, _, psi in data],
            }
            for data in enumerate_boundary_generators(args.g, args.d)
        ]
    if args.format == "csv":
        _print_csv(rows, ["gamma", "kappa", "psi"])
    else:
        for row in rows:
            print(json.dumps(row))
    return 0


def _cmd_oracle(args):
    name = args.oracle_command
    bound = args.max_symbols
    if name == "lemma-tool":
        payload = {"oracle": name, "sigma": args.sigma, "tau": args.tau}
        value = oracles.count_lemma_tool(args.sigma, args.tau, args.order, bound)
    elif name == "main-claim":
        payload = {"oracle": name, "lambda": args.lam, "tau": args.tau, "rho": args.rho}
        value = oracles.count_main_claim(args.lam, args.tau, args.rho, bound)
    elif name == "comb":
        payload = {"oracle": name, "pi": args.pi}
        value = oracles.count_comb_linear_extensions(args.pi, bound)
    elif name == "a1":
        payload = {"oracle": name, "lambda": args.lam, "tau": args.tau}
        value = oracles.count_a1(args.lam, args.tau, bound)
    elif name == "a4":
        payload = {"oracle": name, "sigma": args.sigma, "tau": args.tau, "r": args.r}
        value = oracles.count_a4(args.sigma, args.tau, args.r, bound)
    else:
        payload = {"oracle": name, "sigma": args.sigma, "tau": args.tau}
        value = oracles.count_b2(args.sigma, args.tau, bound)
    _emit_scalar(args.format, payload, value)
    return 0


def _cmd_verify_housing(args):
    ModuliContext(args.g, d=args.d, r=args.r)
    report = verify_housing_theorem(args.g, args.d)
    _emit_report(args.format, report)
    return 0 if report["ok"] else 1


def _cmd_verify_rank(args):
    ModuliContext(args.g, d=args.d, r=args.r)
    report = verify_rank_theorem(args.g, args.r)
    _emit_report(args.format, report)
    return 0 if report["ok"] else 1


def _verify_cell(cell):
    kind, g, x = cell
    if kind == "housing":
        report = verify_housing_theorem(g, x)
        return {"check": kind, "g": g, "d": x, "r": 2 * g - 3 - x} | report
    report = verify_rank_theorem(g, x)
    return {"check": kind, "g": g, "d": 2 * g - 3 - x, "r": x} | report


def _cmd_verify_all(args):
    if args.max_g < 2:
        raise ValueError("--max-g must be at least 2")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    cells = []
    for g in range(2, args.max_g + 1):
        for d in range(0, 2 * g - 3):
            cells.append(("housing", g, d))
        for r in range(0, g - 1):
            cells.append(("rank", g, r))
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    jobs = min(jobs, len(cells))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_verify_cell, cells))
    else:
        reports = [_verify_cell(cell) for cell in cells]
    if args.format == "csv":
        fields = [
            "check", "g", "d", "r",
            "rank_pure", "rank_full", "formula",
            "rank_stacked", "rank_boundary", "rank_smooth", "ok",
        ]
        _print_csv(reports, fields)
    else:
        for report in reports:
            _emit_report(args.format, report)
    return 0 if all(report["ok"] for report in reports) else 1


def _cmd_report_betti(args):
    report = betti_report(args.g)
    if args.format == "json":
        print(json.dumps(_jsonable(report)))
    elif args.format == "csv":
        rows = [{"status": report["status"], "g": report["g"]} | row for row in report["rows"]]
        fields = [
            "status", "g", "e", "d", "ambient_rank",
            "gamma_conjectural", "delta_conjectural", "kernel_conjectural",
        ]
        _print_csv(rows, fields)
    else:
        print("%s kernel report, g=%d" % (report["status"], report["g"]))
        for row in report["rows"]:
            print(
                "  e=%d d=%d ambient=%d gamma=%d delta=%d kernel=%d"
                % (
                    row["e"], row["d"], row["ambient_rank"],
                    row["gamma_conjectural"], row["delta_conjectural"],
                    row["kernel_conjectural"],
                )
            )
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {
        "theta": _cmd_theta,
        "mu": _cmd_mu,
        "coeff": _cmd_coeff,
        "strata": _cmd_strata,
        "oracle": _cmd_oracle,
        "report": _cmd_report_betti,
    }
    try:
        if args.command == "verify":
            handler = {
                "housing": _cmd_verify_housing,
                "rank": _cmd_verify_rank,
                "all": _cmd_verify_all,
            }[args.verify_command]
            return handler(args)
        return handlers[args.command](args)
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
