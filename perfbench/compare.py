"""Compare a parent and a change with the benchmark, pair by pair.

    python3 perfbench/compare.py pairs --parent PARENT_DIR --change CHANGE_DIR \\
        --out pairs.jsonl [--first-seed 100] [--trace 0|1]
    python3 perfbench/compare.py report pairs.jsonl

``pairs`` runs this checkout's ``run.py`` against both trees (each a
checkout root holding ``src/soclerank``) on every workload of
``BENCHMARK.json``, ``MIN_PAIRS`` pairs of runs with the same seed and
run length, alternating which side runs first, and appends one JSON
record per run to ``--out``.  A second call on the same file adds pairs
numbered after the ones already there, so no run is lost.  ``report``
reads every record and prints, per workload and metric, each side's
median and quartiles, the share of pairs the change won, and a verdict:

- ``improved``: the change won at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` and either every change run is
  worse than every parent run or the parent's quartile spread is within
  the bound;
- ``unresolved``: the parent's own spread is wider than the bound, and
  the change runs neither all beat nor all lose to the parent runs;
- ``no worse``: otherwise.

Per-layer metrics have no bound; they read ``improved``, ``worse`` (the
parent won 9 of 10 pairs by more than the spread) or ``unresolved``.  A
change with more failed items than its parent, or fewer than ten
complete pairs, gets no ``improved``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10  # fewer pairs back no claim of a gain


def _load_benchmark():
    with open(BENCHMARK) as fh:
        return json.load(fh)


def _read(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_pairs(args):
    bench = _load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    done = _read(args.out) if os.path.exists(args.out) else []
    first_pair = 1 + max((rec["pair"] for rec in done), default=-1)
    with open(args.out, "a") as out:
        for i in range(MIN_PAIRS):
            pair, seed = first_pair + i, args.first_seed + i
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            for workload in names:
                for side, root in sides:
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                         "--trace", str(args.trace)],
                        cwd=root, capture_output=True, text=True)
                    lines = proc.stdout.strip().splitlines()
                    if not lines or not lines[-1].startswith("{"):
                        raise SystemExit("%s run of %s failed:\n%s" % (side, workload, proc.stderr))
                    record = {"pair": pair, "side": side, "workload": workload, "seed": seed,
                              "result": json.loads(lines[-1])}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print("pair %d %s %s done" % (pair, workload, side), file=sys.stderr)
    return 0


def verdict(parent, change, bound, lower_is_better):
    """Verdict for one metric from the values of paired runs (same index, same pair)."""
    sign = 1 if lower_is_better else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    gain = sign * (p_med - c_med)  # positive when the change is better
    if wins >= 0.9 * len(parent) and gain > spread:
        return "improved", wins
    if bound is None:
        worse = losses >= 0.9 * len(parent) and -gain > spread
        return ("worse" if worse else "unresolved"), wins
    if spread > bound * abs(p_med):
        if all(sign * (c - p) > 0 for p in parent for c in change) and -gain > bound * abs(p_med):
            return "worse", wins
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "no worse", wins
        return "unresolved", wins
    if -gain > bound * abs(p_med):
        return "worse", wins
    return "no worse", wins


def report(args):
    bench = _load_benchmark()
    rules = {m["name"]: (m.get("bound"), m["better"] == "lower")
             for m in bench["end_to_end"] + bench["per_layer"]}
    records = _read(args.results)
    runs = {}
    for rec in records:
        sides = runs.setdefault(rec["workload"], {}).setdefault(rec["pair"], {})
        if rec["side"] in sides:
            raise SystemExit("%s: two %s runs of %s in pair %d"
                             % (args.results, rec["side"], rec["workload"], rec["pair"]))
        sides[rec["side"]] = rec
    print("%d runs read from %s" % (len(records), args.results))
    print("%-16s %-38s %-34s %-34s %-7s %s"
          % ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
             "wins", "verdict"))
    for workload, pairs in runs.items():
        complete = [p for p in sorted(pairs) if len(pairs[p]) == 2]
        for p in complete:
            if pairs[p]["parent"]["seed"] != pairs[p]["change"]["seed"]:
                raise SystemExit("%s: pair %d of %s mixes two seeds" % (args.results, p, workload))
        if len(complete) < len(pairs):
            print("%-16s %d pairs lack a side and are left out"
                  % (workload, len(pairs) - len(complete)))
        if len(complete) < 2:
            print("%-16s needs at least two complete pairs" % workload)
            continue
        result = {side: [pairs[p][side]["result"] for p in complete] for side in ("parent", "change")}
        failed = {side: sum(r["failed"] for r in result[side]) for side in result}
        for name in result["parent"][0]["metrics"]:
            parent = [r["metrics"][name]["value"] for r in result["parent"]]
            change = [r["metrics"][name]["value"] for r in result["change"]]
            bound, lower = rules.get(name, (None, True))
            word, wins = verdict(parent, change, bound, lower)
            if word == "improved" and len(complete) < MIN_PAIRS:
                word = "unresolved (fewer than %d pairs)" % MIN_PAIRS
            elif word == "improved" and failed["change"] > failed["parent"]:
                word = "unresolved (more failed items)"
            print("%-16s %-38s %-34s %-34s %-7s %s"
                  % (workload, name, _summary(parent), _summary(change),
                     "%d/%d" % (wins, len(complete)), word))
        print("%-16s failed items: parent %d, change %d"
              % (workload, failed["parent"], failed["change"]))
    return 0


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return "%.6g [%.6g, %.6g]" % (median, q1, q3)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run parent and change in alternated pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("report", help="medians, pair wins and verdicts")
    p.add_argument("results")
    args = parser.parse_args(argv)
    return run_pairs(args) if args.command == "pairs" else report(args)


if __name__ == "__main__":
    sys.exit(main())
