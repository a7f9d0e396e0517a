"""Spans around the calls into each elacomplex module, installed from outside.

Nothing inside `src/` is changed: `Tracer.install()` replaces each public
function listed in `LAYERS` by a timing wrapper wherever the package binds
it, so calls through a name imported by value (`cli.build_complex`, the
`poly_calculus` operators that `identity_suite` imports) are seen too, and
`uninstall()` puts the originals back.  `rational` and `tensor_algebra`
are not wrapped: their functions are called far too often to time cheaply,
and their cost shows inside `poly_calculus` and `identity_suite`.

A span is (name, start, end, parent span index, item id, info).  Spans are
kept in memory and written out by the runner when the run ends.
"""

import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict

LAYERS = {
    "exactlin": ("select_rows", "certified_rank", "modmul"),
    "poly_calculus": ("sym_grad", "rotrot_t", "Div", "Grad"),
    "elasticity_assembly": (
        "build_complex",
        "ElasticityComplex.finite_complex",
        "korn_constant",
    ),
    "fa_toolbox": (
        "cohomology",
        "helmholtz",
        "complex_constants",
        "regular_decomposition",
    ),
    "derham": ("build_cubical", "incidence_betti"),
    "identity_suite": ("run_identity",),
    "cli": ("main",),
}

MARK = "__perfbench_span__"
NAME, START, END, PARENT, ITEM, INFO = range(6)


def _package_modules():
    import elacomplex

    return [elacomplex] + [
        importlib.import_module("elacomplex." + m.name)
        for m in pkgutil.iter_modules(elacomplex.__path__)
    ]


def installed_wrappers():
    """Names of span wrappers currently bound anywhere in the package."""
    found = set()
    for module in _package_modules():
        for value in list(vars(module).values()):
            if hasattr(value, MARK):
                found.add(getattr(value, MARK))
            elif inspect.isclass(value):
                for member in vars(value).values():
                    if hasattr(member, MARK):
                        found.add(getattr(member, MARK))
    return sorted(found)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _selection_info(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    primes = a["primes"]
    if primes is None:  # select_rows' own default: 2 primes, 3 with expansions
        flags = a["expand_flags"]
        primes = (0, 0) if flags is None or not any(flags) else (0, 0, 0)
    kept = len(result[0]) if isinstance(result, tuple) else int(result)
    return {"rows": int(a["nums"].shape[0]), "kept": kept, "primes": len(primes)}


def _modmul_info(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    (m, k), n = a["A"].shape, a["B"].shape[1]
    # two limb products, each 2*m*k*n floating-point operations
    return {"flops": 4 * m * k * n}


def _build_info(fn, args, kwargs, result):
    return {"potentials_added": int(result.meta["potentials_added"])}


_INFO_FUNCS = {
    "exactlin.select_rows": _selection_info,
    "exactlin.certified_rank": _selection_info,
    "exactlin.modmul": _modmul_info,
    "elasticity_assembly.build_complex": _build_info,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        tracer = self
        info = _INFO_FUNCS.get(name)

        def span(*args, **kwargs):
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[END] = time.perf_counter()
                stack.pop()
                record[INFO] = {"raised": type(exc).__name__}
                raise
            record[END] = time.perf_counter()
            stack.pop()
            if info is not None:
                record[INFO] = info(fn, args, kwargs, result)
            return result

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        setattr(span, MARK, name)
        return span

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for layer, names in LAYERS.items():
            home = sys.modules["elacomplex." + layer]
            for qualname in names:
                *cls, attr = qualname.split(".")
                owner = getattr(home, cls[0]) if cls else home
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append("%s.%s" % (layer, qualname))
                    continue
                wrapper = self._wrap("%s.%s" % (layer, attr), original)
                if cls:
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _layer(name):
    return name.split(".", 1)[0]


def _outermost_in_layer(spans):
    """Spans with no ancestor of the same layer (their durations never overlap)."""
    out = []
    for s in spans:
        layer, parent = _layer(s[NAME]), s[PARENT]
        while parent >= 0 and _layer(spans[parent][NAME]) != layer:
            parent = spans[parent][PARENT]
        out.append(parent < 0)
    return out


def layer_self_by_item(spans):
    """{item: {layer: self seconds}}."""
    own = self_times(spans)
    out = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, own):
        out[s[ITEM]][_layer(s[NAME])] += t
    return out


def per_layer_metrics(spans, passes, report_bytes):
    """Every per-layer metric as {name: (value, unit)}, per traced pass."""
    calls, busy = defaultdict(int), defaultdict(float)
    layer_self, layer_busy = defaultdict(float), defaultdict(float)
    for s, own, outer in zip(spans, self_times(spans), _outermost_in_layer(spans)):
        d = s[END] - s[START]
        calls[s[NAME]] += 1
        busy[s[NAME]] += d
        layer_self[_layer(s[NAME])] += own
        if outer:
            layer_busy[_layer(s[NAME])] += d

    def info_sum(names, key):
        return sum(
            s[INFO][key]
            for s in spans
            if s[NAME] in names and s[INFO] and key in s[INFO]
        )

    selection = ("exactlin.select_rows", "exactlin.certified_rank")
    rows_in = info_sum(selection, "rows")
    selection_busy = sum(busy[n] for n in selection)
    retries = sum(
        1
        for s in spans
        if s[NAME] in selection and s[INFO] and s[INFO].get("raised") == "ReconstructionFailure"
    )
    # a build_complex call assembled (rather than hit the cache) iff it
    # has exactlin work beneath it
    assembled = set()
    for s in spans:
        if _layer(s[NAME]) == "exactlin":
            p = s[PARENT]
            while p >= 0:
                if spans[p][NAME] == "elasticity_assembly.build_complex":
                    assembled.add(p)
                p = spans[p][PARENT]
    chain_passes = sum(
        1 + (spans[i][INFO]["potentials_added"] > 0) for i in assembled
    )
    case_max = max(
        (s[END] - s[START] for s in spans if s[NAME] == "identity_suite.run_identity"),
        default=0.0,
    )

    n = float(passes)
    m = {}

    def fn(name, with_calls=True):
        if with_calls:
            m[name + ".calls"] = (calls[name] / n, "count")
        m[name + ".busy_s"] = (busy[name] / n, "s")

    for name in ("select_rows", "certified_rank", "modmul"):
        fn("exactlin." + name)
    m["exactlin.modmul.flops"] = (info_sum(("exactlin.modmul",), "flops") / n, "flop")
    m["exactlin.modmul_share"] = (
        busy["exactlin.modmul"] / selection_busy if selection_busy else 0.0,
        "1",
    )
    m["exactlin.prime_passes"] = (info_sum(selection, "primes") / n, "count")
    m["exactlin.retries"] = (retries / n, "count")
    m["exactlin.rows_in"] = (rows_in / n, "count")
    m["exactlin.kept_ratio"] = (
        info_sum(selection, "kept") / rows_in if rows_in else 0.0,
        "1",
    )
    for name in ("sym_grad", "rotrot_t", "Div", "Grad"):
        fn("poly_calculus." + name)
    m["poly_calculus.ops.busy_s"] = (layer_busy["poly_calculus"] / n, "s")
    fn("elasticity_assembly.build_complex")
    m["elasticity_assembly.self_s"] = (layer_self["elasticity_assembly"] / n, "s")
    m["elasticity_assembly.chain_passes"] = (chain_passes / n, "count")
    fn("elasticity_assembly.finite_complex", with_calls=False)
    fn("elasticity_assembly.korn_constant", with_calls=False)
    for name in ("cohomology", "helmholtz", "complex_constants", "regular_decomposition"):
        fn("fa_toolbox." + name)
    m["fa_toolbox.busy_s"] = (layer_busy["fa_toolbox"] / n, "s")
    fn("derham.build_cubical", with_calls=False)
    fn("derham.incidence_betti", with_calls=False)
    m["derham.self_s"] = (layer_self["derham"] / n, "s")
    fn("identity_suite.run_identity")
    m["identity_suite.case_max_s"] = (case_max, "s")
    fn("cli.main")
    m["cli.self_s"] = (layer_self["cli"] / n, "s")
    m["cli.report_bytes"] = (report_bytes / n, "bytes")
    return m
