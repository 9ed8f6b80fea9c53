"""Span recorder that wraps the library's public functions from outside it.

Each wrapped call records one span: its name, its parent span, start and end
times, the job it ran in, and a few counts read from its arguments or result.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.

Wrappers are rebound in every ``freezing_dyson`` namespace that holds the
function (``stats.eigen_tridiag`` as well as ``orthopoly.eigen_tridiag``), so
calls between modules are seen too.  The library itself is not edited.
"""

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("elemsym", "finfree", "orthopoly", "dynamics", "stochastic", "stats", "cli")
# In the cli module only ``main`` is wrapped, so that cli.main's self time is
# all of the CLI's own work: argument parsing, reading inputs, formatting and
# writing outputs.
CLI_WRAPPED = ("main",)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _simulation(args, kwargs, result):
    cfg = result.config
    return {"n": cfg.n, "path_steps": cfg.paths * cfg.n_steps, "clamps": int(result.clamp_events)}


# Counts recorded per span, read from the call's arguments and result.
EXTRACTORS = {
    "orthopoly.eigen_tridiag_batch": lambda a, k, r: {"lanes": r.shape[0], "lane_eigs": r.size},
    "elemsym.roots_of_monic": lambda a, k, r: {"degree": r.n},
    "elemsym.esp_rows": lambda a, k, r: {"rows": r.shape[0]},
    "finfree.hermite_roots": lambda a, k, r: {"key": ["hermite", r.n, None]},
    "finfree.laguerre_roots": lambda a, k, r: {
        "key": ["laguerre", r.n, float(_arg(a, k, 1, "alpha"))]
    },
    "stochastic.simulate_dyson": _simulation,
    "stochastic.simulate_laguerre": _simulation,
    "stochastic.sample_gbe_batch": lambda a, k, r: {"samples": r.shape[0]},
    "stochastic.sample_ble_batch": lambda a, k, r: {"samples": r.shape[0]},
}

# Span fields, stored as lists: [name, parent, start, end, counts, job].
NAME, PARENT, START, END, COUNTS, JOB = range(6)


class Tracer:
    """Wraps the public functions of the library's layers; records spans
    while installed."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._swaps = []
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"freezing_dyson.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if layer == "cli" and name not in CLI_WRAPPED:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "freezing_dyson" and not modname.startswith("freezing_dyson."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._swaps.append((namespace, name, obj, entry[1]))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if extract is not None:
                span[COUNTS] = extract(args, kwargs, result)
            return result

        return traced

    def install(self):
        for namespace, name, _, wrapper in self._swaps:
            namespace[name] = wrapper

    def uninstall(self):
        for namespace, name, original, _ in self._swaps:
            namespace[name] = original

    def wrapped_names(self) -> list:
        return sorted({f"{ns['__name__']}.{name}" for ns, name, _, _ in self._swaps})

    def write(self, path: str):
        """Write the spans as JSON lines, each with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
                fh.write(json.dumps({
                    "id": i, "name": span[NAME], "parent": span[PARENT], "job": span[JOB],
                    "start": span[START], "end": span[END], "self_s": own,
                    "counts": span[COUNTS],
                }) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the time covered by its children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def _totals(spans) -> tuple:
    """(self time of each span, calls per name, self seconds per name)."""
    selfs = self_times(spans)
    calls, own = {}, {}
    for span, s in zip(spans, selfs):
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        own[span[NAME]] = own.get(span[NAME], 0.0) + s
    return selfs, calls, own


def layer_metrics(spans, output_bytes: int) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}`` from a run's spans."""
    selfs, calls, own = _totals(spans)

    def counts(name, key):
        # a call that raised recorded no counts
        return [span[COUNTS][key] for span in spans if span[NAME] == name and span[COUNTS]]

    def self_of(*names):
        return sum(own.get(n, 0.0) for n in names)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    batch = "orthopoly.eigen_tridiag_batch"
    lane_eigs = sum(counts(batch, "lane_eigs"))
    m[f"{batch}.calls"] = (calls.get(batch, 0), "count")
    m[f"{batch}.self_s"] = (own.get(batch, 0.0), "s")
    m[f"{batch}.lanes"] = (sum(counts(batch, "lanes")), "count")
    m[f"{batch}.lane_eigs"] = (lane_eigs, "count")
    m[f"{batch}.ns_per_lane_eig"] = (ratio(own.get(batch, 0.0), lane_eigs, 1e9), "ns")
    m["orthopoly.eigen_tridiag.calls"] = (calls.get("orthopoly.eigen_tridiag", 0), "count")
    m["orthopoly.dual_system.self_s"] = (
        self_of(
            "orthopoly.dual", "orthopoly.dual_hermite_system", "orthopoly.dual_laguerre_system"
        ),
        "s",
    )

    m["elemsym.roots_of_monic.calls"] = (calls.get("elemsym.roots_of_monic", 0), "count")
    m["elemsym.roots_of_monic.self_s"] = (own.get("elemsym.roots_of_monic", 0.0), "s")
    m["elemsym.roots_of_monic.degree_sum"] = (
        sum(counts("elemsym.roots_of_monic", "degree")), "count"
    )
    m["elemsym.esp_rows.self_s"] = (own.get("elemsym.esp_rows", 0.0), "s")
    m["elemsym.esp_rows.rows"] = (sum(counts("elemsym.esp_rows", "rows")), "count")

    for name in ("boxplus", "hermite_roots", "laguerre_roots"):
        m[f"finfree.{name}.calls"] = (calls.get(f"finfree.{name}", 0), "count")
        m[f"finfree.{name}.self_s"] = (own.get(f"finfree.{name}", 0.0), "s")
    m["finfree.convolve_esp.self_s"] = (own.get("finfree.convolve_esp", 0.0), "s")
    # a repeat is a call whose (family, n, alpha) an earlier call of the run had
    keys = [
        tuple(k)
        for k in counts("finfree.hermite_roots", "key") + counts("finfree.laguerre_roots", "key")
    ]
    m["finfree.classical_zeros.repeat_frac"] = (
        ratio(len(keys) - len(set(keys)), len(keys)), "ratio"
    )

    m["dynamics.limit_roots.calls"] = (calls.get("dynamics.limit_roots", 0), "count")
    m["dynamics.limit_roots.self_s"] = (own.get("dynamics.limit_roots", 0.0), "s")
    for name in ("gaussian_limit_closed", "laguerre_limit_closed"):
        m[f"dynamics.{name}.self_s"] = (own.get(f"dynamics.{name}", 0.0), "s")
    m["dynamics.gk.self_s"] = (self_of("dynamics.gaussian_gk", "dynamics.laguerre_gk"), "s")

    clamps = 0
    for kind in ("dyson", "laguerre"):
        name = f"stochastic.simulate_{kind}"
        m[f"{name}.self_s"] = (own.get(name, 0.0), "s")
        runs = [(span[COUNTS], s) for span, s in zip(spans, selfs)
                if span[NAME] == name and span[COUNTS]]
        m[f"stochastic.{kind}.path_steps"] = (sum(c["path_steps"] for c, _ in runs), "count")
        for n in (4, 16):
            steps = sum(c["path_steps"] for c, _ in runs if c["n"] == n)
            secs = sum(s for c, s in runs if c["n"] == n)
            m[f"stochastic.{kind}.n{n}.ns_per_path_step"] = (ratio(secs, steps, 1e9), "ns")
        clamps += sum(c["clamps"] for c, _ in runs)
    m["stochastic.clamp_events"] = (clamps, "count")
    # A sampler's time includes building its tridiagonal models (the chi draws).
    m["stochastic.sample_gbe_batch.self_s"] = (
        self_of("stochastic.sample_gbe_batch", "stochastic.gbe_tridiagonal_batch"), "s"
    )
    m["stochastic.sample_ble_batch.self_s"] = (
        self_of("stochastic.sample_ble_batch", "stochastic.ble_tridiagonal_batch"), "s"
    )
    m["stochastic.samples"] = (
        sum(counts("stochastic.sample_gbe_batch", "samples"))
        + sum(counts("stochastic.sample_ble_batch", "samples")),
        "count",
    )

    for name in ("ek_drift_report", "clt_covariance_gaussian", "clt_covariance_laguerre",
                 "primitive_clt_check"):
        m[f"stats.{name}.self_s"] = (own.get(f"stats.{name}", 0.0), "s")
    m["stats.build_q_matrix.self_s"] = (
        self_of("stats.build_q_matrix_gaussian", "stats.build_q_matrix_laguerre"), "s"
    )

    m["cli.main.calls"] = (calls.get("cli.main", 0), "count")
    m["cli.main.self_s"] = (own.get("cli.main", 0.0), "s")
    m["cli.output_bytes"] = (output_bytes, "B")

    total = sum(selfs)
    for layer in LAYERS:
        layer_self = sum(s for n, s in own.items() if n.startswith(layer + "."))
        m[f"{layer}.self_frac"] = (ratio(layer_self, total), "ratio")
    return m


def largest_self(spans) -> tuple:
    """(name, self seconds) of the wrapped function with the most self time."""
    own = _totals(spans)[2]
    return max(own.items(), key=lambda item: item[1]) if own else ("", 0.0)
