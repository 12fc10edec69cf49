"""Span tracer that instruments hessiankit from outside the package.

``Tracer.install`` replaces public functions and a few methods of the
package modules with timing wrappers.  A function is replaced in *every*
namespace that binds it: ``barrier`` imports ``estimate_modulus`` and the
samplers by name, ``radial`` and ``geometry`` import
``elementary_symmetric_all``, ``radial`` imports ``holder_fit``; patching
only the defining module would silently lose those calls.

Each call opens a span (name, start, end, parent).  When it closes, its
duration and self time (duration minus the time covered by child spans)
are folded into per-name totals; the first 50,000 spans of the first
traced pass are also kept in memory and written out when the run ends.
Counts (points, pairs, panels, ...) are recorded at the same boundaries;
the work counts are computed from argument and result array sizes, not
read from inside the package.  ``estimate_modulus`` also runs under
``tracemalloc``, so its peak allocation (numpy reports its buffers there)
is measured, whatever blocking the package uses.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import math
import tracemalloc
from collections import defaultdict
from time import perf_counter

# verify is a front end over these layers and is not instrumented
LAYERS = ("core", "geometry", "barrier", "modulus", "radial", "cli")


class Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.keep_spans = True
        self.max_spans = 50_000  # bounds memory and the size of the spans file
        self._next_id = 0
        self._stack = []  # open frames: [name, start, child time, id, parent id]
        self._patched = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, 0.0, 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self._stack.pop()
        name, start, child, span_id, parent = frame
        dur = end - start
        own = dur - child
        st = self.stats[name]
        st.calls += 1
        st.total += dur
        st.self += own
        layer = name.split(".", 1)[0]
        if layer == "linalg":
            # numpy kernels count toward the layer that called them
            layer = self._stack[-1][0].split(".", 1)[0] if self._stack else "bench"
        self.layer_self[layer] += own
        if self._stack:
            self._stack[-1][2] += dur
        if self.keep_spans and len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent))

    @contextlib.contextmanager
    def span(self, name):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name, fn, count=None, name_of=None, bind=True, peak_alloc=False):
        """Timing wrapper.

        ``count(counts, span_name, arguments, result)`` adds work counts and
        ``name_of(arguments)`` picks the span name per call; ``arguments``
        maps parameter names to values, defaults included (None when
        ``bind`` is false, for counters that only read the result).  With
        ``peak_alloc`` the call runs under ``tracemalloc`` and the largest
        peak over calls is kept as ``<span name>.peak_alloc_bytes``.
        """
        sig = inspect.signature(fn) if (count or name_of) and bind else None
        tracer = self

        def wrapper(*args, **kwargs):
            arguments = None
            span_name = name
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                if name_of is not None:
                    span_name = name_of(arguments)
            if peak_alloc:
                tracemalloc.start()
            frame = tracer._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if peak_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                count(tracer.counts, span_name, arguments, result)
            if peak_alloc:
                key = f"{span_name}.peak_alloc_bytes"
                tracer.counts[key] = max(tracer.counts[key], peak)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, replacement, namespaces):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._patched.append((ns, attr, original))

    def install(self):
        """Wrap every public function of the layer modules plus the
        envelope, density and eigvalsh entry points."""
        import numpy as np

        mods = {name: importlib.import_module(f"hessiankit.{name}") for name in LAYERS}
        namespaces = list(mods.values()) + [importlib.import_module("hessiankit")]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # wrapped under its own module's name
                count, name_of = SPECIAL.get(f"{layer}.{attr}", (None, None))
                wrapper = self.wrap(f"{layer}.{attr}", fn, count, name_of,
                                    peak_alloc=f"{layer}.{attr}" in PEAK_ALLOC)
                self._replace_everywhere(fn, wrapper, namespaces)

        barrier = mods["barrier"]
        env = barrier.BarrierEnvelope
        self._patch_attr(env, "__call__", self.wrap("barrier.envelope_eval", env.__call__, _count_envelope))
        self._patch_attr(env, "branch_info", self.wrap("barrier.branch_info", env.branch_info, _count_envelope))
        radial = mods["radial"]
        for cls in (radial.ConstDensity, radial.PowerDensity, radial.LogDensity, radial.TableDensity):
            self._patch_attr(cls, "inner_integral", self.wrap(f"radial.inner_integral.{cls.kind}", cls.inner_integral))
        self._patch_attr(np.linalg, "eigvalsh", self.wrap("linalg.eigvalsh", np.linalg.eigvalsh, _count_matrices, bind=False))

    def _patch_attr(self, owner, attr, replacement):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# -- computed work counts ---------------------------------------------------


def _count_points(counts, name, args, result):
    counts[f"{name}.points"] += int(args["count"])


def _count_envelope(counts, name, args, result):
    import numpy as np

    z = np.asarray(args["z"])
    points = 1 if z.ndim == 1 else z.shape[0]
    counts[f"{name}.point_barriers"] += points * len(args["self"].barriers)


def _count_matrices(counts, name, args, result):
    counts[f"{name}.matrices"] += math.prod(result.shape[:-1])


def _modulus_path(args):
    import numpy as np

    n = np.shape(args["points"])[0]
    return "modulus.estimate_modulus." + ("exact" if n <= args["pair_threshold"] else "sampled")


def _count_pairs(counts, name, args, result):
    import numpy as np

    n = np.shape(args["points"])[0]
    counts[f"{name}.pairs"] += n * (n - 1) // 2 if name.endswith("exact") else int(args["pair_budget"])


def _count_panels(counts, name, args, result):
    counts[f"{name}.panels"] += result.r.size - 1


def _count_probe(counts, name, args, result):
    counts[f"{name}.points_tested"] += result.points_tested
    counts[f"{name}.points_smooth"] += result.points_smooth


SPECIAL = {
    "geometry.sample_interior": (_count_points, None),
    "geometry.sample_boundary": (_count_points, None),
    "modulus.estimate_modulus": (_count_pairs, _modulus_path),
    "radial.radial_solve": (_count_panels, None),
    "barrier.msh_probe": (_count_probe, None),
    "barrier.lalpha_probe": (_count_probe, None),
}
# measured under tracemalloc: the pair-difference intermediates live here
PEAK_ALLOC = {"modulus.estimate_modulus"}


# -- per-layer metrics ------------------------------------------------------


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass values of every per-layer metric the tracer can produce.

    Counts and self times are totals over the traced passes divided by the
    number of passes; per-call and per-element costs use inclusive time.
    """
    out = {}
    st = tracer.stats
    ct = tracer.counts

    def per_pass(x):
        return x / passes

    def calls_self(name, key=None):
        key = key or name
        out[f"{key}.calls"] = per_pass(st[name].calls) if name in st else 0.0
        out[f"{key}.self_s"] = per_pass(st[name].self) if name in st else 0.0

    def count(key):
        out[key] = per_pass(ct.get(key, 0.0))

    for fn in ("garding_check", "polarized_form", "sigma_tilde", "inf_characterization",
               "gamma_m_contains", "elementary_symmetric_all", "sample_gamma_hat", "sample_sigma_m"):
        calls_self(f"core.{fn}")
    pf = st.get("core.polarized_form")
    out["core.polarized_form.us_per_call"] = _ratio(pf.total, pf.calls, 1e6) if pf else 0.0
    out["linalg.eigvalsh.calls"] = per_pass(st["linalg.eigvalsh"].calls) if "linalg.eigvalsh" in st else 0.0
    count("linalg.eigvalsh.matrices")

    for fn in ("sample_interior", "sample_boundary"):
        calls_self(f"geometry.{fn}")
        count(f"geometry.{fn}.points")
    calls_self("geometry.pseudoconvexity_constant")

    for fn in ("build_subsolution", "build_point_barrier", "cone_coefficient",
               "verification_grid", "verify_modulus_bound"):
        calls_self(f"barrier.{fn}")
    for fn in ("envelope_eval", "branch_info"):
        name = f"barrier.{fn}"
        calls_self(name)
        count(f"{name}.point_barriers")
    env = st.get("barrier.envelope_eval")
    out["barrier.envelope_eval.ns_per_point_barrier"] = _ratio(
        env.total if env else 0.0, ct.get("barrier.envelope_eval.point_barriers", 0.0), 1e9
    )
    for fn in ("msh_probe", "lalpha_probe"):
        name = f"barrier.{fn}"
        out[f"{name}.self_s"] = per_pass(st[name].self) if name in st else 0.0
        count(f"{name}.points_tested")
        count(f"{name}.points_smooth")
        out[f"{name}.smooth_ratio"] = _ratio(
            ct.get(f"{name}.points_smooth", 0.0), ct.get(f"{name}.points_tested", 0.0)
        )

    for path in ("exact", "sampled"):
        name = f"modulus.estimate_modulus.{path}"
        calls_self(name)
        count(f"{name}.pairs")
        out[f"{name}.peak_alloc_bytes"] = ct.get(f"{name}.peak_alloc_bytes", 0.0)
        est = st.get(name)
        out[f"{name}.ns_per_pair"] = _ratio(est.total if est else 0.0, ct.get(f"{name}.pairs", 0.0), 1e9)
    for fn in ("concave_majorant", "holder_fit", "scaling_bound_check"):
        calls_self(f"modulus.{fn}")

    calls_self("radial.radial_solve")
    count("radial.radial_solve.panels")
    solve = st.get("radial.radial_solve")
    panels = ct.get("radial.radial_solve.panels", 0.0)
    out["radial.radial_solve.us_per_panel"] = _ratio(solve.total if solve else 0.0, panels, 1e6)
    integrand_calls = 0
    for kind in ("const", "power", "log", "table"):
        name = f"radial.inner_integral.{kind}"
        calls_self(name)
        integrand_calls += st[name].calls if name in st else 0
    # inner_integral is only reached through radial_solve's integrand
    out["radial.inner_integral.calls_per_panel"] = _ratio(integrand_calls, panels)
    for fn in ("radial_hessian_residual", "holder_exponent_check", "log_example_check"):
        calls_self(f"radial.{fn}")

    calls_self("cli.main")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = per_pass(tracer.layer_self.get(layer, 0.0))
    return out


def layer_shares(tracer: Tracer) -> dict:
    """Share of traced self time per layer, the benchmark's own code included."""
    total = sum(tracer.layer_self.values())
    return {k: _ratio(v, total) for k, v in sorted(tracer.layer_self.items())}
