"""The soclerank benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload grid-g7 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a fixed item set (see ``workloads.py``).  A run runs whole
passes over the items, each pass in a fresh interpreter with cold
caches, until ``--seconds`` have passed (at least one pass).  Around the
passes it starts ``SETUP_SAMPLES`` more interpreters that only import
the package and build the inputs.  Every pass is checked against the references under
``ref/`` outside the timed section.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics (medians over passes; ``setup_s`` over all set-ups).
With ``--trace 1`` a run makes one untraced and one traced pass and
reports the per-layer metrics instead; the traced pass also writes its
spans to ``out/``.  The lines before the JSON print every
metric by name and unit, and ``failed_frac``.  The exit code is 0 when
every item was correct, 1 when one was not, 2 when the checkout holds no
package to measure, 3 when a run went past ``RUN_LIMIT_S``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import tracer
import workloads
from worker import child_env

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# set-up samples per run, half before and half after the passes, so that
# their median spans the run
SETUP_SAMPLES = 8
# a run ends within this many seconds (the caller allows 180) or exits
# with code 3 and no result
RUN_LIMIT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = dict(tracer.METRICS) | {
    "oracles.agree_ratio": "ratio",
    "cli.first_row_s": "s",
    "cli.rows": "count",
    "trace.overhead_s": "s",
}


class TimeLimit(Exception):
    """A run went on past ``RUN_LIMIT_S``."""


def spawn(root, workload, seed, tiny, mode, deadline, trace_out=None):
    """Run one worker process and return its report.

    The worker gets its own process group, so that on a timeout the CLI
    it may have started, and that CLI's pool workers, end with it.
    """
    t0 = perf_counter()
    spec = {"root": root, "workload": workload, "seed": seed, "tiny": tiny,
            "mode": mode, "t0": t0, "trace_out": trace_out}
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise TimeLimit("%s %s ran past the run's limit of %d s" % (workload, mode, RUN_LIMIT_S))
    if proc.returncode != 0:
        raise RuntimeError("worker failed (%s, %s):\n%s" % (workload, mode, err))
    return json.loads(out.strip().splitlines()[-1])


class Gate:
    """Counts attempted and failed items over the passes of one run."""

    def __init__(self, root, workload, seed, tiny):
        self.workload, self.tiny = workload, tiny
        self.items = workloads.items(workload, seed, tiny)
        self.ref = checks.load_reference(workload, seed, tiny)
        self.attempted = self.failed = 0
        self.oracle_agree = self.oracle_items = 0
        self._sr = None
        self._root = root

    def _modules(self):
        if self._sr is None:
            sys.path.insert(0, os.path.join(self._root, "src"))
            from soclerank import exact, partitions

            self._sr = type("Modules", (), {"partitions": partitions, "exact": exact})
        return self._sr

    def add(self, report):
        if self.workload == "grid-g7-cli-j2":
            rows = checks.cli_rows(report["output"])
            report["rows"] = len(rows)
            attempted, failed = checks.check_cli(rows, report["exit_code"], self.tiny, self.ref)
            self.attempted += attempted
            self.failed += failed
            return
        results = report.pop("results")
        self.attempted += len(self.items)
        if len(results) != len(self.items):
            self.failed += len(self.items)
            return
        for item, result in zip(self.items, results):
            ok = checks.item_ok(self._modules(), self.workload, item, result, self.ref)
            self.failed += not ok
            if item[0] == "oracle":
                self.oracle_items += 1
                self.oracle_agree += isinstance(result, list) and result[0] == result[1]


def measure(root, workload, seed, seconds, trace, tiny):
    """One run of one workload: (metrics, gate, human-readable extras)."""
    deadline = perf_counter() + RUN_LIMIT_S
    gate = Gate(root, workload, seed, tiny)

    def run(mode, trace_out=None):
        return spawn(root, workload, seed, tiny, mode, deadline, trace_out)

    if trace:
        plain = run("pass")
        traced = run("trace", os.path.join(HERE, "out", "trace-%s-seed%d.json" % (workload, seed)))
        for report in (plain, traced):
            gate.add(report)
        layers = dict.fromkeys(tracer.METRICS, 0) | traced.get("layers", {})
        cli = workload == "grid-g7-cli-j2"
        layers |= {
            "oracles.agree_ratio": gate.oracle_agree / gate.oracle_items if gate.oracle_items else 0,
            "cli.first_row_s": traced["first_row_s"] if cli else 0,
            "cli.rows": traced["rows"] if cli else 0,
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        }
        extras = {"untraced.wall_s": (plain["wall_s"], "s"),
                  "traced.wall_s": (traced["wall_s"], "s"),
                  "traced.self_sum_s": (traced.get("self_sum_s", 0.0), "s")}
        return {k: (layers[k], PER_LAYER[k]) for k in PER_LAYER}, gate, extras
    setups = [run("setup")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run("pass"))
        gate.add(passes[-1])
    setups += [run("setup")["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
    setups += [p["setup_s"] for p in passes]
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[name] = statistics.median(p[name] for p in passes)
    extras = {"passes": (len(passes), "count"), "setup_samples": (len(setups), "count")}
    return {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}, gate, extras


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small configuration for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(BENCHMARK) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "soclerank", "__init__.py")):
        print("error: no src/soclerank under %s; run from the root of a soclerank checkout"
              % root, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    summary = {}
    for name in names:
        try:
            metrics, gate, extras = measure(root, name, args.seed, args.seconds, args.trace,
                                            args.tiny)
        except TimeLimit as exc:
            print("error: %s; no result" % exc, file=sys.stderr)
            return 3
        for metric, (value, unit) in list(metrics.items()) + list(extras.items()):
            print("%s %s %s %s" % (name, metric, _fmt(value), unit))
        print("%s failed_frac %s fraction (%d of %d items failed)"
              % (name, _fmt(gate.failed / gate.attempted), gate.failed, gate.attempted))
        attempted += gate.attempted
        failed += gate.failed
        prefix = "" if len(names) == 1 else name + "."
        summary |= {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if failed == 0 else 1


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


if __name__ == "__main__":
    sys.exit(main())
