"""The correctness gate, applied to every pass outside the timed section.

Reference results live under ``ref/``:

- ``grid-g7.csv``: the output of ``soclerank verify all --max-g 7
  --format csv`` at the seed commit; it checks both grid workloads;
- ``identity-g6.json`` and ``kernels-seeded-seed0.json``: the item results
  of the seed commit, keyed by item, for every identity item and for the
  kernel items of the default seed.

Items of any other seed are checked without a stored value: ``theta`` and
the ``mu`` family against the direct set-partition sums below, and every
word oracle against the closed form it re-derives.
"""

import csv
import io
import json
import math
import os
from fractions import Fraction

import workloads

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")


def grid_reference():
    with open(os.path.join(REF_DIR, "grid-g7.csv"), newline="") as fh:
        return {workloads.key([row["check"], int(row["g"]),
                               int(row["d"] if row["check"] == "housing" else row["r"])]): row
                for row in csv.DictReader(fh)}


def load_reference(workload, seed, tiny):
    """Stored results keyed by item, or {} where none are stored."""
    if workload in ("grid-g7", "grid-g7-cli-j2"):
        return grid_reference()
    if workload == "identity-g6":
        name = "identity-g6.json"
    elif seed == workloads.DEFAULT_SEED and not tiny:
        name = "kernels-seeded-seed%d.json" % seed
    else:
        return {}
    with open(os.path.join(REF_DIR, name)) as fh:
        return json.load(fh)


def item_ok(sr, workload, item, result, ref):
    """True when one item's result is correct."""
    if isinstance(result, dict) and "error" in result:
        return False
    stored = ref.get(workloads.key(item))
    if workload != "kernels-seeded" and stored is None:
        return False  # every grid and identity item has a stored result
    if stored is not None and stored != result:
        return False
    kind = item[0]
    if kind in ("housing", "rank", "span", "length"):
        return result["ok"] in (True, "True")
    if kind == "roundtrip":
        _, d, i = item
        delta = [str(int(j == i)) for j in range(len(result[0]))]
        return result == [delta, delta]
    if kind == "reassemble":
        return result[0] == result[1] and result[2] == result[3]
    if kind == "triangular":
        return result is True
    if kind == "oracle":
        return result[0] == result[1]
    if stored is None:
        return result == str(direct_sum(sr, kind, tuple(item[1]), tuple(item[2])))
    return True


def cli_rows(output):
    """The CSV rows the CLI printed."""
    return list(csv.DictReader(io.StringIO(output)))


def check_cli(rows, exit_code, tiny, ref):
    """(attempted, failed) for one CLI pass: row i must equal the reference
    row of grid cell i."""
    cells = workloads.grid_cells(workloads.grid_max_g(tiny))
    expected = [ref[workloads.key(cell)] for cell in cells]
    if exit_code != 0:
        return len(cells), len(cells)
    failed = sum(1 for i, row in enumerate(expected) if i >= len(rows) or rows[i] != row)
    return len(cells), failed + max(0, len(rows) - len(cells))


def direct_sum(sr, kind, sigma, tau):
    """theta or a mu variant as a plain signed sum over set partitions.

    Independent of the package's own summation: it uses only
    ``partitions.enumerate_set_partitions`` and ``exact.multinomial``.
    """
    enumerate_set_partitions = sr.partitions.enumerate_set_partitions
    if kind == "theta":
        size = sum(sigma) + sum(tau)
        total = 0
        for blocks in enumerate_set_partitions(range(len(sigma))):
            merged = [sum(sigma[i] for i in b) + 1 for b in blocks]
            term = sr.exact.multinomial(size + len(blocks), merged + list(tau))
            total += term if (len(blocks) + len(sigma)) % 2 == 0 else -term
        return total
    # mu(sigma, tau) sums over set partitions of the joint index set;
    # mu_prime keeps those separating the tau indices, mu_dprime also
    # those separating the sigma indices
    values = list(sigma) + list(tau)
    n_sigma = len(sigma)
    size = sum(values)
    total = Fraction(0)
    for blocks in enumerate_set_partitions(range(len(values))):
        if kind != "mu" and any(sum(1 for i in b if i >= n_sigma) > 1 for b in blocks):
            continue
        if kind == "mu_dprime" and any(sum(1 for i in b if i < n_sigma) > 1 for b in blocks):
            continue
        den = math.prod(_double_factorial(2 * sum(values[i] for i in b) + 1) for b in blocks)
        term = Fraction(math.factorial(2 * size + 1 + len(blocks)), den)
        total += -term if (len(values) + len(blocks)) % 2 else term
    return total


def _double_factorial(n):
    return math.prod(range(n, 0, -2))
