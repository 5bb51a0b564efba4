"""Per-layer tracing by rebinding the package's public functions at run time.

No source file of the package changes.  ``install`` replaces each traced
function by a wrapper in every ``soclerank`` module that holds it by
name (``coeffs.theta``, ``ranks.exact_rank``, ...), so calls between
modules and calls from the benchmark both pass through the wrapper.

Calls nest, so one stack gives each call's self time: its duration minus
the time its traced children covered.  ``coeffs``, ``strata``, ``ranks``
and ``oracles`` calls are recorded as full spans (name, start, end,
parent).  ``socle`` and ``partitions`` are called millions of times, so
they are only aggregated, per (group, enclosing span group).  All of it
stays in memory until ``metrics`` and ``spans`` read it at the end.
"""

from time import perf_counter

# module -> {function: metric group}.  Helpers of ``exact`` are not traced;
# their cost falls into the self time of the layer that calls them.
LAYERS = {
    "partitions": {
        "enumerate_set_partitions": "partitions.set_partitions",
        "enumerate_refining_functions": "partitions.refining_functions",
    },
    "socle": {
        "theta": "socle.theta",
        "mu": "socle.mu",
        "mu_prime": "socle.mu",
        "mu_dprime": "socle.mu",
        "mu_from_mu_prime": "socle.reassembly",
        "mu_prime_from_mu_dprime": "socle.reassembly",
    },
    "strata": {
        "enumerate_boundary_generators": "strata.generators",
        "enumerate_pure_housing_partitions": "strata.pure_housing",
    },
    "coeffs": {
        "tabulate": "coeffs.form_values",
        "v_form": "coeffs.v_form",
        "m_form": "coeffs.m_form",
        "m_basis": "coeffs.expansion",
        "c_expansion": "coeffs.expansion",
        "c_coefficient": "coeffs.c_coefficient",
        "eta_form": "coeffs.eta",
        "eta_prime_form": "coeffs.eta",
        "eta_dprime_form": "coeffs.eta",
        "phi_transform": "coeffs.phi",
        "phi_inverse_transform": "coeffs.phi",
        "verify_triangular_identity": "coeffs.triangular",
    },
    "ranks": {
        "exact_rank": "ranks.exact_rank",
        "verify_housing_theorem": "ranks.verify",
        "verify_rank_theorem": "ranks.verify",
        "verify_span_equality": "ranks.verify",
        "verify_length_restriction": "ranks.verify",
    },
    "oracles": {
        "count_lemma_tool": "oracles",
        "count_main_claim": "oracles",
        "count_comb_linear_extensions": "oracles",
        "count_a1": "oracles",
        "count_a4": "oracles",
        "count_b2": "oracles",
    },
}

_AGGREGATED = ("partitions", "socle")
# groups whose distinct canonical arguments are counted
_DISTINCT = ("socle.theta", "socle.mu")

# The per-layer metrics the tracer reports, with their units.
METRICS = {
    "partitions.set_partitions.calls": "count",
    "partitions.set_partitions.items": "count",
    "partitions.set_partitions.self_s": "s",
    "partitions.refining_functions.calls": "count",
    "partitions.refining_functions.items": "count",
    "partitions.refining_functions.self_s": "s",
    "socle.theta.calls": "count",
    "socle.theta.distinct": "count",
    "socle.theta.self_s": "s",
    "socle.mu.calls": "count",
    "socle.mu.distinct": "count",
    "socle.mu.self_s": "s",
    "socle.reassembly.self_s": "s",
    "strata.generators.calls": "count",
    "strata.generators.items": "count",
    "strata.generators.self_s": "s",
    "strata.generators.theta_s": "s",
    "strata.pure_housing.self_s": "s",
    "coeffs.v_form.calls": "count",
    "coeffs.v_form.self_s": "s",
    "coeffs.m_form.calls": "count",
    "coeffs.m_form.self_s": "s",
    "coeffs.expansion.self_s": "s",
    "coeffs.c_coefficient.calls": "count",
    "coeffs.c_coefficient.self_s": "s",
    "coeffs.eta.self_s": "s",
    "coeffs.phi.self_s": "s",
    "coeffs.triangular.self_s": "s",
    "coeffs.form_values": "count",
    "ranks.exact_rank.calls": "count",
    "ranks.exact_rank.entries": "count",
    "ranks.exact_rank.self_s": "s",
    "ranks.verify.self_s": "s",
    "oracles.calls": "count",
    "oracles.self_s": "s",
}


def _rows_entries(args, out):
    rows = getattr(args[0], "entries", args[0])
    return sum(len(row) for row in rows)


def _result_len(args, out):
    return len(out)


# group -> the work count one call adds to the group's ``items``
_ITEMS = {
    "partitions.set_partitions": _result_len,
    "partitions.refining_functions": _result_len,
    "strata.generators": _result_len,
    "ranks.exact_rank": _rows_entries,
}


def _canonical(name, args):
    sigma, tau = (tuple(args) + ((),))[:2]
    return (name, tuple(sorted(sigma, reverse=True)), tuple(sorted(tau, reverse=True)))


class Tracer:
    def __init__(self):
        # one [child time] cell per open call; the bottom cell is the root
        self._stack = [[0.0]]
        # enclosing full span: (span index, group); None at the root
        self._span_stack = [(None, None)]
        self.spans = []  # [group, function, start, end, parent index]
        self.agg = {}  # (group, enclosing span group) -> [calls, items, self_s, total_s]
        self.args = {}  # group -> argument tuples seen, for the groups in _DISTINCT

    def wrap(self, fn, group, full):
        stack, span_stack, spans, agg = self._stack, self._span_stack, self.spans, self.agg
        seen = self.args.setdefault(group, set()) if group in _DISTINCT else None
        items = _ITEMS.get(group)
        name = fn.__name__
        if group == "coeffs.form_values":
            # a count only: the time belongs to the caller's span
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                rec = agg.setdefault((group, span_stack[-1][1]), [0, 0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += len(out.values)
                return out

            return counted

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if full:
                index = len(spans)
                spans.append([group, name, 0.0, 0.0, span_stack[-1][0]])
                span_stack.append((index, group))
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if full:
                    span_stack.pop()
                    spans[index][2:4] = start, end
                duration = end - start
                stack[-1][0] += duration
                rec = agg.get((group, span_stack[-1][1]))
                if rec is None:
                    rec = agg[(group, span_stack[-1][1])] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += duration - frame[0]
                rec[3] += duration
            if items is not None:
                rec[1] += items(args, out)
            if seen is not None:
                try:
                    seen.add((name,) + args)
                except TypeError:  # unhashable arguments such as lists
                    seen.add(_canonical(name, args))
            return out

        return traced

    def install(self, modules):
        """Rebind every traced function in every module of ``modules``."""
        for home, functions in LAYERS.items():
            for fname, group in functions.items():
                original = getattr(modules[home], fname)
                wrapped = self.wrap(original, group, home not in _AGGREGATED)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def metrics(self):
        """Per-layer metric values from everything recorded so far."""
        total = {}
        for (group, _), (calls, items, self_s, _) in self.agg.items():
            acc = total.setdefault(group, [0, 0, 0.0])
            acc[0] += calls
            acc[1] += items
            acc[2] += self_s
        out = {}
        for name in METRICS:
            if name == "coeffs.form_values":
                out[name] = total.get(name, [0, 0])[1]
                continue
            if name == "strata.generators.theta_s":
                # inclusive time of theta calls made inside the generator span
                out[name] = self.agg.get(("socle.theta", "strata.generators"), [0, 0, 0, 0.0])[3]
                continue
            group, _, field = name.rpartition(".")
            calls, items, self_s = total.get(group, (0, 0, 0.0))
            if field == "distinct":
                out[name] = len({_canonical(a[0], a[1:]) for a in self.args.get(group, ())})
            else:
                out[name] = {"calls": calls, "items": items, "entries": items,
                             "self_s": self_s}[field]
        return out

    def self_total(self):
        """Sum of the self times of every traced call."""
        return sum(rec[2] for rec in self.agg.values())
