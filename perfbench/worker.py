"""One measured process of the benchmark: set up, run the timed section, report.

``run.py`` starts a fresh interpreter on this file for every set-up sample
and every pass, so each pass starts with the package's caches cold, as
every real ``soclerank`` invocation does.  The argument is a JSON spec:

- ``root``: checkout whose ``src/`` holds the package under test;
- ``workload``, ``seed``, ``tiny``: which items to run;
- ``mode``: ``setup`` (stop before the timed section), ``pass`` or ``trace``;
- ``t0``: ``time.perf_counter()`` of the parent just before it started
  this process (CLOCK_MONOTONIC, shared by all processes on Linux);
- ``trace_out``: where a traced pass writes its spans.

The one line of JSON on stdout carries the metrics and every item result.
"""

import json
import os
import resource
import subprocess
import sys
from time import perf_counter


def _import_package(root, workload):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import soclerank

    if not os.path.abspath(soclerank.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("soclerank was imported from %s, not from %s" % (soclerank.__file__, src))
    if workload == "grid-g7-cli-j2":
        import soclerank.cli  # what the CLI process imports before its first cell
    from soclerank import coeffs, exact, oracles, partitions, ranks, socle, strata

    return {"partitions": partitions, "exact": exact, "socle": socle, "strata": strata,
            "coeffs": coeffs, "ranks": ranks, "oracles": oracles}


def child_env(root):
    """Environment of every measured process: the checkout's package, a fixed
    hash seed, and the package's default cache policy."""
    env = dict(os.environ)
    env.pop("SOCLERANK_CACHE_SIZE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run_cli(root, argv):
    """Run the CLI as a subprocess and observe it from outside."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "soclerank.cli"] + argv, cwd=root, env=child_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = []
    first_row = None
    for line in proc.stdout:
        lines.append(line)
        if first_row is None and len(lines) == 2:  # the line after the CSV header
            first_row = perf_counter() - start
    proc.stdout.close()
    # wait4 reports the CLI's own usage plus that of the pool workers it
    # reaped; its maxrss is the largest of those processes
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "first_row_s": wall if first_row is None else first_row,
        "exit_code": proc.returncode,
        "output": "".join(lines),
    }


def _run_items(sr, item_list, run_item):
    results = []
    for item in item_list:
        try:
            results.append(run_item(sr, item))
        except Exception as exc:  # a raising item is a failed item, not a failed run
            results.append({"error": "%s: %s" % (type(exc).__name__, exc)})
    return results


def main(spec):
    root, workload = spec["root"], spec["workload"]
    modules = _import_package(root, workload)
    import workloads

    item_list = workloads.items(workload, spec["seed"], spec["tiny"])
    out = {}
    if spec["mode"] == "setup":
        out["setup_s"] = perf_counter() - spec["t0"]
        return out
    if workload == "grid-g7-cli-j2":
        out["setup_s"] = perf_counter() - spec["t0"]
        out |= _run_cli(root, workloads.cli_argv(spec["tiny"]))
        return out
    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(modules)
    sr = type("Modules", (), modules)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    out["setup_s"] = start - spec["t0"]
    out["results"] = _run_items(sr, item_list, workloads.run_item)
    out["wall_s"] = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    out["peak_rss_mb"] = after.ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["self_sum_s"] = tracer.self_total()
        if spec.get("trace_out"):
            os.makedirs(os.path.dirname(spec["trace_out"]), exist_ok=True)
            with open(spec["trace_out"], "w") as fh:
                json.dump({"columns": ["group", "function", "start", "end", "parent"],
                           "spans": tracer.spans,
                           "aggregates": [[g, p] + rec for (g, p), rec in tracer.agg.items()]},
                          fh)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
