"""Spans and counters around funcfields' layer functions, kept in memory.

The tracer wraps each layer function once and rebinds every module-level
name that refers to it (``funcfields.class_number.signature_at``,
``funcfields.signature.signature_at``, ...), so calls made between the
program's own modules are seen without changing the program.  Every call
adds to a per-name record of calls, inclusive seconds and self seconds
(duration minus the time covered by child spans).  Calls of functions
marked hot are only counted; all others are also kept as span records
(id, parent id, op id, name, start, end, attributes) for the trace file.
"""

import functools
import importlib
import sys
import time

# (module, function, metric prefix, hot).  Hot primitives run thousands of
# times per op; they get counts and self time but no span records.
TARGETS = (
    ("poly", "gp_pow_mod", "poly.gp_pow_mod", True),
    ("poly", "residue_field", "poly.residue_field", True),
    ("poly", "monic_irreducibles", "poly.monic_irreducibles", False),
    ("poly", "factorize", "poly.factorize", False),
    ("models", "minimal_polynomial_fq", "models.minimal_polynomial_fq", False),
    ("signature", "signature_at", "signature.signature_at", False),
    ("signature", "kummer_signature", "signature.kummer_signature", False),
    ("invariants", "field_discriminant", "invariants.field_discriminant", False),
    ("invariants", "genus", "invariants.genus", False),
    ("integral_basis", "integral_basis_cubic", "integral_basis.build", False),
    ("integral_basis", "integral_basis_quartic", "integral_basis.build", False),
    ("integral_basis", "verify_basis", "integral_basis.verify_basis", False),
    ("units", "construct_rank1", "units.construct", False),
    ("units", "construct_rank2", "units.construct", False),
    ("class_number", "exact_h", "class_number.exact_h", False),
    ("class_number", "estimate_h", "class_number.estimate_h", False),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0


class Tracer:
    """Single-threaded span stack with per-name aggregates."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.op_id = None
        self.paused = 0
        self._stack = []  # [span id, start, child seconds]
        self._next_id = 0

    def stat(self, name):
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def call(self, fn, names, hot, args, kwargs, classify=None, cache=None):
        """Run fn inside a span and charge it to every name in names."""
        if self.paused:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        hits = cache.cache_info().hits if cache is not None else 0
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, parent, names, hot, False)
            raise
        hit = cache is not None and cache.cache_info().hits > hits
        extra = classify(args, result) if classify is not None else ()
        self._close(frame, parent, names + extra, hot, hit)
        return result

    def _close(self, frame, parent, names, hot, hit):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        own = dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        for name in names:
            s = self.stat(name)
            s.calls += 1
            s.total_s += dur
            s.self_s += own
            s.hits += hit
        if not hot:
            self.spans.append((frame[0], parent, self.op_id, names[0], frame[1], end, names[1:]))


def _signature_classes(args, result):
    """Per-degree and per-method names for one signature_at call."""
    place = args[1]
    out = ["signature.method.%s" % result.method]
    if not place.is_infinite:
        out.append("signature.degree.d%d" % place.degree)
    sig = result.signature
    if sig is not None and all(e == 1 for e, _ in sig.pairs):
        out.append("signature.unramified")
    return tuple(out)


def install(tracer):
    """Wrap every target the program has, at every module name bound to it."""
    import funcfields.cli  # noqa: F401  (so its imported names get rebound too)

    modules = [m for n, m in sys.modules.items() if n == "funcfields" or n.startswith("funcfields.")]
    for modname, fname, metric, hot in TARGETS:
        mod = importlib.import_module("funcfields." + modname)
        orig = getattr(mod, fname, None)
        if orig is None:
            continue
        cache = orig if hasattr(orig, "cache_info") else None
        classify = _signature_classes if fname == "signature_at" else None
        names = (metric,)

        def wrapper(*args, _orig=orig, _names=names, _hot=hot, _classify=classify, _cache=cache, **kwargs):
            return tracer.call(_orig, _names, _hot, args, kwargs, _classify, _cache)

        functools.update_wrapper(wrapper, orig)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)
