"""Command line front end.

Subcommands cover scalar evaluation (theta, mu), coefficient queries,
stratum enumeration, the brute-force oracles, the verification grids,
and the conjectural Betti report.  Each returns its rows, which ``main``
writes through ``_emit`` as pretty (default), json or csv.  With
``--jobs`` N above 1, ``verify all`` forks up to N workers, worker k
owning the (g, d) pairs k, k + N, k + 2N, ... of the grid; it needs
``os.fork``, and without it ``--jobs`` defaults to 1.  Exit codes: 0
success, 1 a verification report not ok, 2 a usage error, a refused
input or a worker that died (once the parent reaches one of its
pairs), 141 (128 + SIGPIPE) a stdout closed before the last row.
"""

import argparse
import csv
import itertools
import json
import os
import pickle
import signal
import sys
from fractions import Fraction

from . import oracles
from .coeffs import c_coefficient
from .exact import format_scalar
from .ranks import MAX_GENUS, betti_report, verify_housing_theorem, verify_rank_theorem
from .socle import mu, mu_dprime, mu_prime, theta
from .strata import enumerate_pure_housing_partitions, reduced_data

FORMATS = ("pretty", "json", "csv")
REPORTED = (ValueError, ArithmeticError, RecursionError, ChildProcessError)  # exit 2
VERIFY_ALL_FIELDS = ["check", "g", "d", "r", "rank_pure", "rank_full", "formula",
                     "rank_stacked", "rank_boundary", "rank_smooth", "ok"]
BETTI_FIELDS = ["status", "g", "e", "d", "ambient_rank",
                "gamma_conjectural", "delta_conjectural", "kernel_conjectural"]
# oracle subcommand -> (counter, flags).  The flags are the counter's
# arguments in order, before the symbol budget; the first is required.
ORACLES = {
    "lemma-tool": (oracles.count_lemma_tool, ("sigma", "tau", "order")),
    "main-claim": (oracles.count_main_claim, ("lambda", "tau", "rho")),
    "comb": (oracles.count_comb_linear_extensions, ("pi",)),
    "a1": (oracles.count_a1, ("lambda", "tau")),
    "a4": (oracles.count_a4, ("sigma", "tau", "r")),
    "b2": (oracles.count_b2, ("sigma", "tau")),
}


def _loads(text, expected):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise argparse.ArgumentTypeError("expected " + expected)


def _partition_arg(text):
    return _partition(_loads(text, "a JSON list such as [3,1]"))


def _partition(data):
    if not isinstance(data, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in data
    ):
        raise argparse.ArgumentTypeError("expected a JSON list of positive integers")
    ordered = sorted(data, reverse=True)
    if ordered != data:
        print("warning: partition %s reordered to %s" % (data, ordered), file=sys.stderr)
    return tuple(ordered)


def _partition_list_arg(text):
    data = _loads(text, "a JSON list of lists")
    if not isinstance(data, list):
        raise argparse.ArgumentTypeError("expected a JSON list of lists")
    return tuple(map(_partition, [data] if all(isinstance(x, int) for x in data) else data))


def _order_arg(text):
    data = _loads(text, "a JSON list of indices")
    if not (isinstance(data, list) and all(type(x) is int for x in data)
            and sorted(data) == list(range(len(data)))):
        raise argparse.ArgumentTypeError("expected a permutation of 0..n-1")
    return tuple(data)


def _dest(flag):
    # --lambda parses into args.lam, as for coeff
    return "lam" if flag == "lambda" else flag


def _scalar(x):
    # what the JSON encoder cannot write itself: a Fraction, as an int or exactly
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else format_scalar(x)
    raise TypeError("%r is not JSON serializable" % (x,))


_encode = json.JSONEncoder(default=_scalar).encode


def _csv_cell(v):
    if isinstance(v, (list, tuple)):
        return _encode(v)
    if isinstance(v, Fraction):
        return format_scalar(v)
    return v


def _emit(fmt, rows, fields, pretty):
    """Write each row to stdout as it arrives, flush it; return whether all were ok.

    json writes one object per row and pretty the text ``pretty(row)``.
    csv writes the header of ``fields`` first, then one line per row, or
    one per entry of the row's nested ``rows`` list when it has one.
    Integers print in full, past Python's int-to-str digit limit.  No
    row is kept once written; a row without an ``ok`` entry counts as ok.
    A generator of rows is closed on any exit, which stops its workers.
    """
    # the int-to-str digit limit came with Python 3.10.7; 0 means no limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    writer, ok = csv.DictWriter(sys.stdout, fields), True
    try:
        if fmt == "csv":
            writer.writeheader()
        for row in rows:
            if fmt == "json":
                print(_encode(row))
            elif fmt == "csv":
                for sub in row.get("rows", [{}]):
                    writer.writerow({k: _csv_cell((row | sub).get(k, "")) for k in fields})
            else:
                print(pretty(row))
            sys.stdout.flush()
            ok = ok and bool(row.get("ok", True))
    finally:
        if hasattr(rows, "close"):
            rows.close()
        if limit:
            sys.set_int_max_str_digits(limit)
    return ok


def _value(row):
    return format_scalar(row["value"])


def _pairs(report):
    return " ".join("%s=%s" % (k, _csv_cell(v)) for k, v in report.items())


def _coeff_lines(row):
    oracle = "" if row["oracle"] is None else "\noracle %s" % format_scalar(row["oracle"])
    return format_scalar(row["coefficient"]) + oracle


def _betti_lines(report):
    return "\n".join(["%(status)s kernel report, g=%(g)d" % report] + [
        "  e=%(e)d d=%(d)d ambient=%(ambient_rank)d gamma=%(gamma_conjectural)d"
        " delta=%(delta_conjectural)d kernel=%(kernel_conjectural)d" % row
        for row in report["rows"]
    ])


def _parser():
    top = argparse.ArgumentParser(
        prog="soclerank",
        description="Exact socle pairing values, strata, coefficients, and rank checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="pretty")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", parents=[common], help="compact-type evaluation")
    p.set_defaults(run=_cmd_theta, pretty=_value)
    p.add_argument("--sigma", type=_partition_arg, required=True)
    p.add_argument("--tau", type=_partition_arg, default=())

    p = sub.add_parser("mu", parents=[common], help="smooth-locus evaluation")
    p.set_defaults(run=_cmd_mu, pretty=_value)
    p.add_argument("--sigma", type=_partition_arg, required=True)
    p.add_argument("--tau", type=_partition_arg, default=())
    p.add_argument("--variant", choices=("plain", "prime", "dprime"), default="plain")

    p = sub.add_parser("coeff", parents=[common], help="expansion coefficient")
    p.set_defaults(run=_cmd_coeff, pretty=_coeff_lines)
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--gamma", type=_partition_arg, required=True)
    p.add_argument("--kappa", type=_partition_list_arg, default=None)
    p.add_argument("--psi", type=_partition_list_arg, default=None)

    p = sub.add_parser("strata", help="stratum enumeration")
    strata_sub = p.add_subparsers(dest="strata_command", required=True)
    q = strata_sub.add_parser("enumerate", parents=[common])
    q.set_defaults(run=_cmd_strata, pretty=json.dumps)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--pure", action="store_true")

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    for name, (_, flags) in ORACLES.items():
        q = oracle_sub.add_parser(name, parents=[common])
        q.set_defaults(run=_cmd_oracle, pretty=_value)
        for i, flag in enumerate(flags):
            # --order and --r default to None, optional partitions to ()
            kind = {"order": _order_arg, "r": int}.get(flag, _partition_arg)
            q.add_argument("--" + flag, dest=_dest(flag), type=kind, required=i == 0,
                           default=() if i and kind is _partition_arg else None)
        q.add_argument("--max-symbols", type=int, default=oracles.DEFAULT_MAX_SYMBOLS)

    p = sub.add_parser("verify", help="theorem verification")
    verify_sub = p.add_subparsers(dest="verify_command", required=True)
    q = verify_sub.add_parser("housing", parents=[common])
    q.set_defaults(run=_cmd_verify, pretty=_pairs)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q = verify_sub.add_parser("rank", parents=[common])
    q.set_defaults(run=_cmd_verify, pretty=_pairs)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q = verify_sub.add_parser("all", parents=[common])
    q.set_defaults(run=_cmd_verify_all, pretty=_pairs)
    q.add_argument("--max-g", type=int, default=5)
    q.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("report", help="summary reports")
    report_sub = p.add_subparsers(dest="report_command", required=True)
    q = report_sub.add_parser("betti", parents=[common])
    q.set_defaults(run=_cmd_report_betti, pretty=_betti_lines)
    q.add_argument("--g", type=int, required=True)

    return top


def _cmd_theta(args):
    row = {"sigma": args.sigma, "tau": args.tau, "value": theta(args.sigma, args.tau)}
    return [row], list(row)


def _cmd_mu(args):
    func = {"plain": mu, "prime": mu_prime, "dprime": mu_dprime}[args.variant]
    row = {"sigma": args.sigma, "tau": args.tau, "variant": args.variant}
    row["value"] = func(args.sigma, args.tau)
    return [row], list(row)


def _cmd_coeff(args):
    k = len(args.gamma)
    kappas = args.kappa if args.kappa is not None else ((),) * k
    psis = args.psi if args.psi is not None else ((),) * k
    value = c_coefficient(args.lam, args.gamma, kappas, psis)
    oracle = None
    if k == 1:
        try:
            oracle = oracles.count_main_claim(args.lam, kappas[0], psis[0], max_symbols=8)
        except ValueError:  # over 8 symbols: no oracle
            pass
    row = {"lambda": args.lam, "gamma": args.gamma, "kappa": kappas, "psi": psis,
           "coefficient": value, "oracle": oracle}
    return [row], list(row)


def _cmd_strata(args):
    if args.g > MAX_GENUS:
        raise ValueError("genus %d exceeds the listing cap %d" % (args.g, MAX_GENUS))
    if args.pure:
        strata = ([(m, (), ()) for m in sigma]
                  for sigma in sorted(enumerate_pure_housing_partitions(args.g, args.d)))
    else:
        strata = reduced_data(args.g, args.d)  # printed as the search finds them
    # per-vertex (remainder, kappa, psi) triples, read as three columns
    fields = ["gamma", "kappa", "psi"]
    return (dict(zip(fields, zip(*data))) for data in strata), fields


def _cmd_oracle(args):
    counter, flags = ORACLES[args.oracle_command]
    values = [getattr(args, _dest(flag)) for flag in flags]
    row = {"oracle": args.oracle_command} | dict(zip(flags, values))
    row["value"] = counter(*values, args.max_symbols)
    return [row], list(row)


def _check(kind, g, d, r):
    return verify_housing_theorem(g, d) if kind == "housing" else verify_rank_theorem(g, r)


def _cmd_verify(args):
    report = _check(args.verify_command, args.g, vars(args).get("d"), vars(args).get("r"))
    return [report], list(report)


def _verify_cell(cell):
    kind, g, d, r = cell
    return {"check": kind, "g": g, "d": d, "r": r} | _check(kind, g, d, r)


def _verify_cells(cells):
    # the cells of one (g, d), which share its span memo; an error main reports stands for each
    try:
        return {cell: _verify_cell(cell) for cell in cells}
    except REPORTED as exc:
        return dict.fromkeys(cells, exc)


def _forked(cells, groups, jobs):
    """Yield each cell's row, in order, from ``jobs`` forked workers, each on its own pipe.

    Worker k pickles the rows of its pairs, ``groups[k::jobs]``, in grid order; the
    parent reads pair i from worker i % jobs when the first cell of pair i is due.
    """
    workers, done = {}, {}
    try:
        for k in range(jobs):
            source, out = os.pipe()
            if (pid := os.fork()) == 0:  # worker k: exits 0 once its pairs are written, else 1
                try:
                    with open(out, "wb") as pipe:
                        for group in groups[k::jobs]:
                            pickle.dump(_verify_cells(group), pipe)
                            pipe.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(out)
            workers[pid] = open(source, "rb")
        owners = itertools.cycle(list(workers))
        for cell in cells:
            if cell not in done:  # its pair is the next one due
                pid = next(owners)
                try:
                    done |= pickle.load(workers[pid])
                except (EOFError, pickle.UnpicklingError):  # the worker died: reap it, end the run
                    workers.pop(pid).close()
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = "by signal %d" % -code if code < 0 else "with status %d" % code
                    raise ChildProcessError("worker %d ended %s" % (pid, how))
            if isinstance(row := done.pop(cell), Exception):
                raise row
            yield row
    finally:  # on any exit: stop the workers left and reap them
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)


def _cmd_verify_all(args):
    if args.max_g < 2:
        raise ValueError("--max-g must be at least 2")
    if args.max_g > MAX_GENUS:
        raise ValueError("--max-g %d exceeds the verifier cap %d" % (args.max_g, MAX_GENUS))
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    cells, pairs = [], {}
    for g in range(2, args.max_g + 1):
        cells += [("housing", g, d, 2 * g - 3 - d) for d in range(0, 2 * g - 3)]
        cells += [("rank", g, 2 * g - 3 - r, r) for r in range(0, g - 1)]
    for cell in cells:
        pairs.setdefault(cell[1:3], []).append(cell)
    # by default the CPU count, or one process where os.fork is missing
    jobs = min(args.jobs or hasattr(os, "fork") and os.cpu_count() or 1, len(pairs))
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError("--jobs above 1 needs os.fork, which this platform lacks")
    rows = _forked(cells, list(pairs.values()), jobs) if jobs > 1 else map(_verify_cell, cells)
    return rows, VERIFY_ALL_FIELDS


def _cmd_report_betti(args):
    return [betti_report(args.g)], BETTI_FIELDS


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return 0 if _emit(args.format, *args.run(args), args.pretty) else 1
    except REPORTED as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout closed early: no more output, and no flush error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, written out as Windows has no signal.SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
