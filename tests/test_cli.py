import csv
import io
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

import soclerank.cli as cli
from soclerank import DecoratedTree, LinearForm
from soclerank.ranks import MAX_BETTI_GENUS


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_pretty(capsys):
    code, out, err = run(capsys, ["theta", "--sigma", "[2,1]"])
    assert code == 0
    assert out == "9\n"
    assert err == ""


def test_theta_json(capsys):
    code, out, _ = run(capsys, ["theta", "--sigma", "[2,1]", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"sigma": [2, 1], "tau": [], "value": 9}


def test_theta_csv_agrees_with_json(capsys):
    code, out, _ = run(capsys, ["theta", "--sigma", "[2,1]", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert json.loads(rows[0]["sigma"]) == [2, 1]
    assert rows[0]["value"] == "9"


def test_unsorted_partition_warns(capsys):
    code, out, err = run(capsys, ["theta", "--sigma", "[1,2]"])
    assert code == 0
    assert out == "9\n"
    assert "reordered" in err


def test_mu_variants(capsys):
    assert run(capsys, ["mu", "--sigma", "[]", "--tau", "[1]"])[1] == "8\n"
    assert run(capsys, ["mu", "--sigma", "[1]", "--tau", "[1]"])[1] == "512\n"
    assert (
        run(capsys, ["mu", "--sigma", "[]", "--tau", "[2]", "--variant", "prime"])[1]
        == "48\n"
    )
    code, out, _ = run(
        capsys, ["mu", "--sigma", "[1,1]", "--variant", "dprime", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {
        "sigma": [1, 1],
        "tau": [],
        "variant": "dprime",
        "value": 560,
    }


def test_coeff_with_oracle(capsys):
    code, out, _ = run(
        capsys, ["coeff", "--lambda", "[1,1]", "--gamma", "[2]", "--kappa", "[[1]]"]
    )
    assert code == 0
    assert out == "16\noracle 16\n"
    code, out, _ = run(
        capsys,
        [
            "coeff", "--lambda", "[1,1]", "--gamma", "[2]",
            "--kappa", "[[1]]", "--format", "json",
        ],
    )
    assert json.loads(out) == {
        "lambda": [1, 1],
        "gamma": [2],
        "kappa": [[1]],
        "psi": [[]],
        "coefficient": 16,
        "oracle": 16,
    }


def test_coeff_above_oracle_budget(capsys):
    # 9 symbols: the brute-force check is skipped, only the value prints
    code, out, _ = run(capsys, ["coeff", "--lambda", "[4,3]", "--gamma", "[7]"])
    assert code == 0
    assert out == "0\n"


def test_coeff_decoration_mismatch(capsys):
    code, _, err = run(
        capsys,
        ["coeff", "--lambda", "[2]", "--gamma", "[2]", "--kappa", "[[1],[1]]"],
    )
    assert code == 2
    assert "one decoration per gamma part" in err


def test_strata_enumerate(capsys):
    code, out, _ = run(capsys, ["strata", "enumerate", "--g", "3", "--d", "2"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [{"gamma": [2], "kappa": [[]], "psi": [[]]}]


def test_strata_enumerate_pure(capsys):
    code, out, _ = run(
        capsys, ["strata", "enumerate", "--g", "4", "--d", "2", "--pure"]
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [
        {"gamma": [1, 1], "kappa": [[], []], "psi": [[], []]},
        {"gamma": [2], "kappa": [[]], "psi": [[]]},
    ]


def test_oracle_commands(capsys):
    assert run(capsys, ["oracle", "lemma-tool", "--sigma", "[1,1]"])[1] == "5\n"
    assert run(capsys, ["oracle", "b2", "--sigma", "[]", "--tau", "[1]"])[1] == "8\n"
    assert run(capsys, ["oracle", "comb", "--pi", "[1]"])[1] == "2\n"
    code, out, _ = run(
        capsys,
        ["oracle", "main-claim", "--lambda", "[1,1]", "--tau", "[1]",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["value"] == 16


def test_oracle_budget_error(capsys):
    code, _, err = run(
        capsys, ["oracle", "comb", "--pi", "[2,2]", "--max-symbols", "5"]
    )
    assert code == 2
    assert err.startswith("error:")


def test_oracle_max_symbols_ceiling(capsys):
    # the bound itself is refused, even for a 2-symbol instance
    code, out, err = run(
        capsys, ["oracle", "lemma-tool", "--sigma", "[1]", "--max-symbols", "17"]
    )
    assert (code, out, err) == (2, "", "error: max_symbols is at most 16\n")
    ok = run(capsys, ["oracle", "lemma-tool", "--sigma", "[1]", "--max-symbols", "16"])
    assert ok == (0, "1\n", "")


def test_verify_housing_json(capsys):
    code, out, _ = run(
        capsys, ["verify", "housing", "--g", "3", "--d", "1", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == {
        "rank_pure": 1,
        "rank_full": 1,
        "formula": 1,
        "ok": True,
    }


@pytest.mark.parametrize("argv", [
    ["verify", "housing", "--g", "3", "--d", "1", "--r", "2"],
    ["verify", "rank", "--g", "4", "--r", "1", "--d", "4"],
])
def test_verify_takes_one_degree(capsys, argv):
    # the other degree is 2g-3 minus the given one, so it is no option
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_verify_rank_pretty(capsys):
    code, out, _ = run(capsys, ["verify", "rank", "--g", "3", "--r", "1"])
    assert code == 0
    assert out == "rank_stacked=2 rank_boundary=1 rank_smooth=1 ok=True\n"


def test_verify_all_csv(capsys):
    code, out, _ = run(
        capsys, ["verify", "all", "--max-g", "2", "--jobs", "1", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["check"] for row in rows] == ["housing", "rank"]
    assert all(row["ok"] == "True" for row in rows)
    housing = rows[0]
    assert (housing["g"], housing["d"], housing["r"]) == ("2", "0", "1")
    assert housing["rank_pure"] == housing["formula"] == "1"
    assert housing["rank_stacked"] == ""


def test_verify_all_matches_reference_grid(capsys):
    # every reported number of the g <= 7 grid, against the reference
    # CSV that the benchmark checks its grid-g7 passes with
    ref = ROOT / "perfbench" / "ref" / "grid-g7.csv"
    code, out, _ = run(
        capsys, ["verify", "all", "--max-g", "7", "--jobs", "1", "--format", "csv"]
    )
    assert code == 0
    expected = list(csv.reader(io.StringIO(ref.read_text())))
    assert len(expected) == 58
    assert list(csv.reader(io.StringIO(out))) == expected


def test_verify_all_parallel(capsys):
    code, out, _ = run(capsys, ["verify", "all", "--max-g", "3", "--jobs", "2"])
    assert code == 0
    assert all("ok=True" in line for line in out.splitlines())


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "verify_housing_theorem",
        lambda g, d: {"rank_pure": 0, "rank_full": 0, "formula": 1, "ok": False},
    )
    code, _, _ = run(capsys, ["verify", "housing", "--g", "3", "--d", "1"])
    assert code == 1


def test_report_betti(capsys):
    code, out, _ = run(capsys, ["report", "betti", "--g", "3"])
    assert code == 0
    assert out.splitlines()[0] == "CONJECTURAL kernel report, g=3"
    code, out, _ = run(capsys, ["report", "betti", "--g", "3", "--format", "csv"])
    assert code == 0
    assert "CONJECTURAL" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["theta"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["theta", "--sigma", "nope"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["theta", "--sigma", "[0]"])
    assert info.value.code == 2
    capsys.readouterr()


def test_domain_errors_exit_two(capsys):
    code, _, err = run(capsys, ["verify", "housing", "--g", "3", "--d", "3"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["oracle", "--format", "json", "lemma-tool", "--sigma", "[1,1]"],
    ["verify", "--format", "csv", "housing", "--g", "3", "--d", "1"],
])
def test_group_level_format_rejected(capsys, argv):
    # --format belongs to the leaf commands only
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_recursion_error_exits_two(capsys):
    # theta of n equal parts recurses about n frames deep in the kernel;
    # with a limit 100 frames above the current depth, 120 ones (inside
    # the kernel's work bound) run out of frames
    depth = 0
    frame = sys._getframe()
    while frame:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        code, out, err = run(capsys, ["theta", "--sigma", json.dumps([1] * 120)])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: maximum recursion depth exceeded")


@pytest.mark.parametrize("sigma", [list(range(16, 0, -1)), [1] * 480, [5] * 190, [100] * 60],
                         ids=["16-distinct-parts", "480-ones", "190-fives", "60-hundreds"])
def test_kernel_work_bound_exits_two(capsys, sigma):
    # past the set-partition kernel's work bound theta answers at once
    start = time.perf_counter()
    code, out, err = run(capsys, ["theta", "--sigma", json.dumps(sigma)])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_theta_psi_cap_exits_two(capsys):
    # past the psi exponent cap theta answers before its first multinomial
    start = time.perf_counter()
    code, out, err = run(capsys, ["theta", "--sigma", "[1]", "--tau", json.dumps([1] * 120000)])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err == "error: psi exponents sum to 120000, above the cap 4000\n"


def test_coeff_degree_cap_exits_two(capsys):
    # past the degree cap c_expansion answers before it lists P(d)
    start = time.perf_counter()
    code, out, err = run(capsys, ["coeff", "--lambda", "[28]", "--gamma", "[28]"])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("row", [
    ["--lambda", "[18]", "--gamma", "[18]", "--kappa", json.dumps([[1] * 40])],
    ["--lambda", "[18]", "--gamma", "[18]", "--psi", json.dumps([[1] * 4000])],
    ["--lambda", "[2]", "--gamma", "[2]", "--kappa", json.dumps([[1] * 127]),
     "--psi", json.dumps([[1] * 4000])],
    # 2**39 sub-multisets of distinct parts: the shared walk stops at the cap
    ["--lambda", "[1]", "--gamma", "[1]", "--kappa", json.dumps([list(range(40, 0, -1))])],
], ids=["40-ones-kappa", "4000-ones-psi", "127-ones-kappa-4000-ones-psi", "40-distinct-kappa"])
def test_coeff_row_cap_exits_two(capsys, row):
    # the row's thetas together pass the caps, however they share the
    # kernel memo: the row checks answer before the first of them
    start = time.perf_counter()
    code, out, err = run(capsys, ["coeff"] + row)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: row too large")


@pytest.mark.parametrize("row, value", [
    (["--lambda", "[21]", "--gamma", "[21]", "--kappa", "[[2]]"], "2299"),
    (["--lambda", "[21]", "--gamma", "[21]", "--kappa", "[[1,1]]"], "86801"),
    (["--lambda", "[18]", "--gamma", "[18]", "--kappa", json.dumps([[1] * 6])], "729014010160671"),
], ids=["21-kappa-2", "21-kappa-1-1", "18-kappa-six-ones"])
def test_coeff_row_cap_counts_shared_thetas_once(capsys, row, value):
    # the row's thetas share the kernel memo, so the cap weighs its states
    # once each and these rows answer within the 10 s bound
    start = time.perf_counter()
    code, out, err = run(capsys, ["coeff"] + row)
    assert time.perf_counter() - start < 10.0
    assert (code, out, err) == (0, value + "\n", "")


def test_verify_rank_skips_the_row_caps(capsys):
    # the (13, 0) cell's kappa row runs over all of P(23), past what the
    # coeff row caps let in, and still answers
    code, out, err = run(capsys, ["verify", "rank", "--g", "13", "--r", "0"])
    assert code == 0 and err == ""
    assert "rank_stacked=1 rank_boundary=0 rank_smooth=1 ok=True" in out


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--max-g", "1"],
    ["verify", "all", "--jobs", "0"],
    ["verify", "all", "--jobs", "-3"],
])
def test_verify_all_bad_arguments_exit_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def count_forks(monkeypatch):
    """Wrap ``os.fork``; return the list of worker pids it hands the parent."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ["verify", "rank", "--g", "40", "--r", "0"],
    ["verify", "housing", "--g", "30", "--d", "29"],
    ["verify", "rank", "--g", str(cli.MAX_GENUS + 1), "--r", "0"],
    ["verify", "all", "--max-g", "100", "--jobs", "1"],
    ["verify", "all", "--max-g", str(cli.MAX_GENUS + 1), "--jobs", "2"],
    ["strata", "enumerate", "--g", "40", "--d", "39", "--format", "csv"],
    ["strata", "enumerate", "--g", "40", "--d", "39", "--pure"],
])
def test_verify_genus_cap_exits_two(capsys, monkeypatch, argv):
    # refused at once, before any output (a csv header included), and for
    # verify all before any worker is forked
    forks = count_forks(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out, forks) == (2, "", [])
    assert len(err.splitlines()) == 1 and str(cli.MAX_GENUS) in err


def test_verify_all_pool_no_larger_than_grid(capsys, monkeypatch):
    forks = count_forks(monkeypatch)
    # max-g 3 has seven cells in six (g, d) pairs: (2, 0), (2, 1), (3, 0) ... (3, 3)
    counts = []
    for jobs in ("3", "8"):
        code, _, _ = run(capsys, ["verify", "all", "--max-g", "3", "--jobs", jobs])
        assert code == 0
        counts.append(len(forks))
        forks.clear()
    assert counts == [3, 6]
    assert_no_child_left()


def test_verify_all_one_task_per_pair(capsys, monkeypatch, tmp_path):
    # each worker appends its pid and the cells of every task it computes to
    # one O_APPEND file, one write per task
    log = tmp_path / "tasks"
    verify_cells = cli._verify_cells

    def logged(cells):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, (json.dumps([os.getpid(), cells]) + "\n").encode())
        finally:
            os.close(fd)
        return verify_cells(cells)

    monkeypatch.setattr(cli, "_verify_cells", logged)
    code, out, _ = run(capsys, ["verify", "all", "--max-g", "5", "--jobs", "2", "--format", "json"])
    assert code == 0
    assert_no_child_left()
    cells = [(row["check"], row["g"], row["d"], row["r"]) for row in map(json.loads, out.splitlines())]
    tasks = [(pid, [tuple(cell) for cell in group])
             for pid, group in map(json.loads, log.read_text().splitlines())]
    pairs = [{cell[1:3] for cell in group} for _, group in tasks]
    # each task holds the cells of one (g, d), no (g, d) is split over two
    # tasks or computed twice, and each worker takes its tasks in grid order
    assert all(len(pair) == 1 for pair in pairs)
    grid = list(dict.fromkeys(cell[1:3] for cell in cells))
    assert sorted(grid.index(pair.pop()) for pair in pairs) == list(range(len(grid)))
    assert sorted(cell for _, group in tasks for cell in group) == sorted(cells)
    assert sum(len(group) == 2 for _, group in tasks) == 6  # d = g-1 .. 2g-4 for g = 3, 4, 5
    workers = {pid for pid, _ in tasks}
    assert os.getpid() not in workers  # the parent computes no cell
    for worker in workers:
        order = [grid.index(group[0][1:3]) for pid, group in tasks if pid == worker]
        assert order == sorted(order)


def test_verify_all_task_error_exits_two(capsys, monkeypatch):
    def fail(g, r):
        raise ValueError("no rank at g=%d" % g)

    monkeypatch.setattr(cli, "verify_rank_theorem", fail)
    code, out, err = run(capsys, ["verify", "all", "--max-g", "3", "--jobs", "2"])
    assert code == 2
    assert len(out.splitlines()) == 1  # the housing row before the first rank row
    assert err == "error: no rank at g=2\n"
    assert_no_child_left()


def test_verify_all_dead_worker_exits_two(capsys, monkeypatch):
    # a worker killed as the OOM killer would do ends the run: exit 2, one
    # line, the rows before it printed, no worker left behind
    parent, housing = os.getpid(), cli.verify_housing_theorem

    def die_at_4_3(g, d):
        if (g, d) == (4, 3) and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return housing(g, d)

    _, everything, _ = run(capsys, ["verify", "all", "--max-g", "5", "--jobs", "1"])
    monkeypatch.setattr(cli, "verify_housing_theorem", die_at_4_3)
    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", "all", "--max-g", "5", "--jobs", "2"])
    assert time.perf_counter() - start < 10
    assert code == 2
    assert re.fullmatch(r"error: worker \d+ ended by signal %d\n" % signal.SIGKILL, err)
    assert everything.startswith(out) and "g=4 d=3 " not in out
    assert_no_child_left()


def test_verify_all_needs_fork_above_one_job(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    code, out, err = run(capsys, ["verify", "all", "--max-g", "3", "--jobs", "2"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "os.fork" in err
    code, out, _ = run(capsys, ["verify", "all", "--max-g", "3", "--jobs", "1"])
    assert code == 0 and len(out.splitlines()) == 7
    # with no --jobs, a multi-CPU platform without os.fork runs in one process
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code, out, _ = run(capsys, ["verify", "all", "--max-g", "3"])
    assert code == 0 and len(out.splitlines()) == 7


def test_cli_import_skips_heavy_modules():
    # what `soclerank` imports at startup: no process pool, no dataclasses
    # (which pulls in inspect, ast, dis and tokenize), no concurrent.futures
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, soclerank.cli; print(sorted({m.split('.')[0] for m in sys.modules}"
             " & {'multiprocessing', 'dataclasses', 'inspect', 'concurrent'}))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("make, args, other, bad, check", [
    (LinearForm, (2, (3, 7)), (2, (3, 8)), [(2, (3,)), (0, ())],
     lambda form: form((2,)) == 3 and form((1, 1)) == 7
     and form.items() == (((2,), 3), ((1, 1), 7))),
    (DecoratedTree, ((1, 1), [(1, 0)]), ((2,),), [((1, 1),), ((1, 1, 1), ((0, 1), (0, 1))),
                                                  ((2, 2), ((0, 0),)), ((0,),), ((-1, 3), ((0, 1),))],
     lambda tree: tree.genera == (1, 1) and tree.edges == ((0, 1),)
     and tree.genus == 2 and tree.valence(0) == 1),
], ids=["LinearForm", "DecoratedTree"])
def test_value_types_keep_their_contract(make, args, other, bad, check):
    value = make(*args)
    assert check(value)
    for wrong in bad:
        with pytest.raises(ValueError):
            make(*wrong)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], args[0])
    with pytest.raises(AttributeError):
        value.note = "extra"
    twin = make(*args)
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert make(*other) != value


def test_verify_all_pool_matches_one_process():
    # cold processes, so the forked workers compute every span themselves
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outs = [
        subprocess.run(
            [sys.executable, "-m", "soclerank.cli", "verify", "all", "--max-g", "6",
             "--jobs", jobs, "--format", "csv"],
            env=env, capture_output=True, check=True, timeout=120,
        ).stdout
        for jobs in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 1 + 40 and b"False" not in outs[0]


def test_mu_large_single_part(capsys):
    # one block: mu((s,)) = (2s + 2)!!, far past the recursion limit for s = 1000
    code, out, err = run(capsys, ["mu", "--sigma", "[1000]"])
    assert code == 0
    assert err == ""
    assert out == "%d\n" % math.prod(range(2002, 0, -2))


# stdout, stderr and exit code of each command in each format, recorded
# from the CLI before its output moved behind one emitter; the only
# change since is that oracle lemma-tool echoes --order
GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(capsys, case):
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["out"], case["err"])


def test_verify_all_streams_rows(capsys, monkeypatch):
    # when a cell starts, the rows of every earlier cell are already out
    chunks, starts = [], []

    def watch(check):
        def run(g, x):
            chunks.append(capsys.readouterr().out)
            starts.append(len("".join(chunks).splitlines()))
            return check(g, x)
        return run

    monkeypatch.setattr(cli, "verify_housing_theorem", watch(cli.verify_housing_theorem))
    monkeypatch.setattr(cli, "verify_rank_theorem", watch(cli.verify_rank_theorem))
    assert cli.main(["verify", "all", "--max-g", "3", "--jobs", "1"]) == 0
    chunks.append(capsys.readouterr().out)
    assert starts == list(range(7))
    assert len("".join(chunks).splitlines()) == 7


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="Python before 3.10.7 has no int-to-str digit limit",
)


@needs_digit_limit
@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_mu_prints_past_digit_limit(capsys, fmt):
    # mu((2000,)) = (4002)!! has about 6300 digits, past the default 4300
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, ["mu", "--sigma", "[2000]", "--format", fmt])
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        value = str(math.prod(range(4002, 0, -2)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert err == ""
    assert out == {
        "pretty": value + "\n",
        "json": '{"sigma": [2000], "tau": [], "variant": "plain", "value": %s}\n' % value,
        "csv": "sigma,tau,variant,value\r\n[2000],[],plain,%s\r\n" % value,
    }[fmt]


@needs_digit_limit
def test_huge_partition_literal_still_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["mu", "--sigma", "[%s]" % ("9" * 5000)])
    assert info.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_report_betti_large_genus(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["report", "betti", "--g", "60"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "CONJECTURAL kernel report, g=60"
    assert len(lines) == 60  # one row per excess e = 0..58


def test_report_betti_genus_cap(capsys):
    # the report costs about g^3: past the cap it is refused at once, and
    # the cap itself still answers, one csv line per excess plus the header
    start = time.perf_counter()
    code, out, err = run(capsys, ["report", "betti", "--g", "100000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: genus 100000 exceeds the report cap %d\n" % MAX_BETTI_GENUS
    code, out, err = run(capsys, ["report", "betti", "--g", str(MAX_BETTI_GENUS), "--format", "csv"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == MAX_BETTI_GENUS


@pytest.mark.parametrize("argv", [
    ["strata", "enumerate", "--g", "9", "--d", "8", "--format", "csv"],
    ["verify", "all", "--max-g", "10", "--jobs", "2", "--format", "csv"],
], ids=["strata-319-KB", "verify-all-two-workers"])
def test_closed_stdout_exits_quietly(argv):
    # the reader takes one line and closes the pipe while rows are still to
    # come (319 KB of strata, or seconds of cells): exit 141 (128 + SIGPIPE),
    # nothing on stderr, and no process of the command's session left
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "soclerank.cli"] + argv, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (141, b"")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
