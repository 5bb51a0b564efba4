"""Workload definitions: the item set of each workload and how one item runs.

An item is a JSON list; its ``json.dumps`` form is the key under which
its reference result is stored.  The seed permutes the item order of the
fixed grids and draws the ``kernels-seeded`` inputs; nothing else varies
with it.  ``tiny`` selects the small configuration the self-tests use.

Item results are JSON values built from ``str`` of the exact scalars, so
they compare exactly against the stored references.
"""

import json
import math
import random

WORKLOADS = ("grid-g7", "grid-g7-cli-j2", "identity-g6", "kernels-seeded")

# The seed whose kernels-seeded results are stored under ref/.
DEFAULT_SEED = 0

CLI_JOBS = 2


def grid_max_g(tiny):
    return 4 if tiny else 7


def cli_argv(tiny):
    return ["verify", "all", "--max-g", str(grid_max_g(tiny)),
            "--jobs", str(CLI_JOBS), "--format", "csv"]


def key(item):
    return json.dumps(item)


def items(workload, seed, tiny=False):
    """The workload's items, in the order the seed gives them."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload in ("grid-g7", "grid-g7-cli-j2"):
        out = grid_cells(grid_max_g(tiny))
        if workload == "grid-g7-cli-j2":
            return out  # the CLI fixes its own order
    elif workload == "identity-g6":
        out = identity_items(tiny)
    elif workload == "kernels-seeded":
        return kernel_items(rng, tiny)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(out)
    return out


def grid_cells(max_g):
    """The cells of ``soclerank verify all --max-g max_g``, in CLI order."""
    cells = []
    for g in range(2, max_g + 1):
        cells += [["housing", g, d] for d in range(0, 2 * g - 3)]
        cells += [["rank", g, r] for r in range(0, g - 1)]
    return cells


def _partitions(n, largest=None):
    # weakly decreasing tuples; kept local so item generation needs no import
    # of the package under test
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(first,) + rest
            for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, first)]


def identity_items(tiny):
    """The criterion-5 grid: phi round trips, mu reassembly, triangular
    identity, span equality and length restriction."""
    max_d, max_st, max_tri_g, max_span_g = (3, 3, 4, 4) if tiny else (6, 5, 5, 6)
    out = []
    for d in range(0, max_d + 1):
        out += [["roundtrip", d, i] for i in range(len(_partitions(d)))]
    for s in range(0, max_st + 1):
        for t in range(0, max_st + 1 - s):
            out += [["reassemble", list(sigma), list(tau)]
                    for sigma in _partitions(s) for tau in _partitions(t)]
    for g in range(2, max_tri_g + 1):
        for r in range(0, g - 1):
            out += [["triangular", list(sigma), g, r]
                    for sigma in _partitions(g - 2 - r) if len(sigma) <= r + 1]
    for g in range(2, max_span_g + 1):
        for r in range(0, g - 1):
            out += [["span", g, r], ["length", g, r]]
    return out


# kernels-seeded draws every input from a class of equal cost, so that the
# run time does not depend on the seed.  Large instances fix the number of
# summation indices (the Bell-number work) and draw the part values.
_LARGE = (("theta", 10, 1), ("theta", 9, 2), ("theta", 9, 1),
          ("mu", 5, 4), ("mu_prime", 4, 5), ("mu_dprime", 6, 3))
_LARGE_TINY = (("theta", 5, 1), ("mu", 3, 2), ("mu_prime", 2, 3), ("mu_dprime", 3, 1))

# Each oracle instance below is an exemplar.  The seed picks any instance
# with the same cost signature: the number of words the oracle enumerates
# and the number of kinds (or kind orders) it checks per word.
_ORACLES = (
    ("lemma_tool", (1, 1, 1), (1, 1, 1)),
    ("lemma_tool", (2, 1), (2, 1, 1)),
    ("lemma_tool", (1, 1), (1, 1, 1, 1, 1)),
    ("main_claim", (1, 1), (1,), (1, 1, 1)),
    ("main_claim", (1,), (1, 1), (1, 1)),
    ("main_claim", (2, 1), (1,), (1,)),
    ("b2", (2,), (1,)),
    ("a4", (), (3,)),
    ("a4", (3,), ()),
    ("comb", (2, 1)),
)
_ORACLES_TINY = (
    ("lemma_tool", (1, 1), (1,)),
    ("main_claim", (1,), (1,), ()),
    ("b2", (1,), ()),
    ("a4", (), (1,)),
    ("comb", (1,)),
)


def kernel_items(rng, tiny):
    out = []
    for name, n_sigma, n_tau in (_LARGE_TINY if tiny else _LARGE):
        while True:
            sigma = sorted((rng.randint(1, 2) for _ in range(n_sigma)), reverse=True)
            tau = sorted((rng.randint(1, 2) for _ in range(n_tau)), reverse=True)
            item = [name, sigma, tau]
            if item not in out:
                break
        out.append(item)
    for exemplar in (_ORACLES_TINY if tiny else _ORACLES):
        name, args = exemplar[0], exemplar[1:]
        pool = sorted(c for c in _oracle_candidates(name, _symbols(name, args))
                      if _signature(name, c) == _signature(name, args))
        args = pool[rng.randrange(len(pool))]
        item = ["oracle", name] + [list(a) for a in args]
        if name == "lemma_tool":
            order = list(range(len(args[0])))
            rng.shuffle(order)
            item.append(order)
        out.append(item)
    return out


def _symbols(name, args):
    if name == "lemma_tool":
        sigma, tau = args
        return sum(sigma) + len(sigma) + sum(tau)
    if name == "main_claim":
        lam, tau, rho = args
        return sum(lam) + len(lam) + sum(tau) + len(tau) + sum(rho)
    if name == "comb":
        (pi,) = args
        return 2 * sum(pi) + len(pi)
    sigma, tau = args
    return 2 * (sum(sigma) + sum(tau)) + len(sigma) + len(tau) + 1


def _copies(name, args):
    if name == "lemma_tool":
        return [s + 1 for s in args[0]] + list(args[1])
    lam, tau, rho = args
    return [x + 1 for x in lam + tau] + list(rho)


def _signature(name, args):
    if name in ("lemma_tool", "main_claim"):
        copies = _copies(name, args)
        words = math.factorial(sum(copies))
        for c in copies:
            words //= math.factorial(c)
        kinds = [len(args[0])] if name == "lemma_tool" else [len(args[0]), len(args[1])]
        return (words, tuple(kinds))
    return (_symbols(name, args), tuple(len(a) for a in args))


def _oracle_candidates(name, n):
    """Every argument tuple for the oracle ``name`` with ``n`` symbols."""
    parts = [p for s in range(n + 1) for p in _partitions(s)]

    def cost(p):  # symbols taken by one family of kinds with copies p + 1
        return sum(p) + len(p)

    if name == "lemma_tool":
        return [(a, b) for a in parts if cost(a) <= n for b in _partitions(n - cost(a))]
    if name == "main_claim":
        return [(a, b, c) for a in parts for b in parts if cost(a) + cost(b) <= n
                for c in _partitions(n - cost(a) - cost(b))]
    combs = [p for p in parts if cost(p) + sum(p) <= n]
    if name == "comb":
        return [(p,) for p in combs if cost(p) + sum(p) == n]
    out = [(a, b) for a in combs for b in combs
           if cost(a) + sum(a) + cost(b) + sum(b) + 1 == n]
    if name == "a4":
        out = [(sigma, tau) for sigma, tau in out if len(sigma) <= sum(tau) + 1]
    return out


def run_item(sr, item):
    """Evaluate one item with the package modules in ``sr``; JSON result."""
    kind = item[0]
    if kind in ("housing", "rank"):
        _, g, x = item
        if kind == "housing":
            report = sr.ranks.verify_housing_theorem(g, x)
            return _row(kind, g, x, 2 * g - 3 - x, report)
        report = sr.ranks.verify_rank_theorem(g, x)
        return _row(kind, g, 2 * g - 3 - x, x, report)
    if kind == "roundtrip":
        _, d, i = item
        width = len(sr.partitions.enumerate_partitions(d))
        delta = sr.coeffs.LinearForm(d, tuple(int(j == i) for j in range(width)))
        back = sr.coeffs.phi_transform(sr.coeffs.phi_inverse_transform(delta))
        forth = sr.coeffs.phi_inverse_transform(sr.coeffs.phi_transform(delta))
        return [_strs(back.values), _strs(forth.values)]
    if kind == "reassemble":
        _, sigma, tau = item
        sigma, tau = tuple(sigma), tuple(tau)
        socle = sr.socle
        return _strs([socle.mu(sigma, tau), socle.mu_from_mu_prime(sigma, tau),
                      socle.mu_prime(sigma, tau), socle.mu_prime_from_mu_dprime(sigma, tau)])
    if kind == "triangular":
        _, sigma, g, r = item
        return sr.coeffs.verify_triangular_identity(tuple(sigma), g, r)
    if kind == "span":
        return sr.ranks.verify_span_equality(item[1], item[2])
    if kind == "length":
        return sr.ranks.verify_length_restriction(item[1], item[2])
    if kind == "theta":
        return str(sr.socle.theta(tuple(item[1]), tuple(item[2])))
    if kind in ("mu", "mu_prime", "mu_dprime"):
        return str(getattr(sr.socle, kind)(tuple(item[1]), tuple(item[2])))
    if kind == "oracle":
        return _strs(_oracle_pair(sr, item[1], [tuple(a) for a in item[2:]]))
    raise ValueError("unknown item %r" % (item,))


def _oracle_pair(sr, name, args):
    """The word count and the closed form it re-derives."""
    oracles = sr.oracles
    if name == "lemma_tool":
        sigma, tau, order = args
        return (oracles.count_lemma_tool(sigma, tau, order), sr.socle.theta(sigma, tau))
    if name == "main_claim":
        lam, tau, rho = args
        return (oracles.count_main_claim(lam, tau, rho),
                sr.coeffs.c_coefficient(lam, (sum(lam),), (tau,), (rho,)))
    if name == "b2":
        sigma, tau = args
        return (oracles.count_b2(sigma, tau), sr.socle.mu_dprime(sigma, tau))
    if name == "a4":
        sigma, tau = args
        r = sum(tau)
        g = sum(sigma) + 2 + r
        return (oracles.count_a4(sigma, tau, r), sr.coeffs.eta_dprime_form(sigma, g, r)(tau))
    (pi,) = args
    return (oracles.count_comb_linear_extensions(pi), sr.exact.comb_count(pi))


# the columns of `soclerank verify all --format csv`
GRID_FIELDS = ("check", "g", "d", "r", "rank_pure", "rank_full", "formula",
               "rank_stacked", "rank_boundary", "rank_smooth", "ok")


def _row(kind, g, d, r, report):
    # the row, as strings, that the CLI writes for this cell
    row = {"check": kind, "g": g, "d": d, "r": r} | report
    return {k: str(row.get(k, "")) for k in GRID_FIELDS}


def _strs(values):
    return [str(v) for v in values]

