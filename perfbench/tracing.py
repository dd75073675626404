"""Per-layer spans recorded from outside the program.

The traced run replaces each layer's public function, in every dkpfields
module that looks the name up, with a wrapper that records a span: layer,
start, end, parent span and case id.  Element products and polynomial
products are wrapped on their class.  Spans stay in memory; the run writes
them out at exit.  A layer's self time is its span minus its child spans.

Names follow <module>.<function>; '_linalg.invert' is reported as
'linalg.invert' because a metric name must start with a letter.
"""

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# layer -> function targets as (module, attribute) or (module, class, attribute)
LAYERS = {
    "algebra.adjoint": [("algebra", "adjoint")],
    "algebra.mul": [("algebra", "AlgebraElement", "__mul__")],
    "algebra.embed": [("algebra", "embed_vector"), ("algebra", "embed_covector")],
    "algebra.contract": [("algebra", "contract")],
    "dkp.make_generator": [("dkp", "make_generator")],
    "dkp.check_trilinear": [("dkp", "check_trilinear")],
    "dkp.beta_mu": [("dkp", "beta_mu")],
    "subspaces.act_dkp": [("subspaces", "act_dkp")],
    "subspaces.in_zp": [("subspaces", "in_zp")],
    "fock.represent": [("fock", "represent")],
    "fock.matmul": [("fock", "DenseOperator", "__matmul__")],
    "fields.dwh_derive": [("fields", "dwh_derive")],
    "fields.substitute": [("fields", "FieldPoly", "substitute")],
    "fields.bracket": [("fields", "bracket")],
    "fields.bracket_closed_form": [("fields", "bracket_closed_form")],
    "fields.nabla": [("fields", "nabla"), ("fields", "nabla_adjoint")],
    "fields.polymul": [("fields", "FieldPoly", "__mul__"), ("fields", "FieldPoly", "__rmul__")],
    "parser.parse_expr": [("parser", "parse_expr")],
    "cli.main": [("cli", "main")],
    "linalg.invert": [("_linalg", "invert")],
}

# the benchmark's own verdict code, so that no time goes unassigned
CHECK = "bench.check"


def _mul_counts(counts, args, result):
    x, y = args
    uppers = defaultdict(int)
    for be in y.support():
        uppers[be.upper] += 1
    counts["term_pairs"] += len(x) * len(y)
    counts["hits"] += sum(uppers[be.lower] for be in x.support())
    counts["terms_out"] += len(result)


def _adjoint_counts(counts, args, result):
    counts["terms_in"] += len(args[0])
    counts["terms_out"] += len(result)


def _parse_counts(counts, args, result):
    counts["terms_out"] += len(result.terms)


def _report_counts(counts, args, result):
    written = getattr(sys.stdout, "getvalue", None)  # the caller captures stdout
    if written is not None:
        counts["report_bytes"] += len(written().encode())


# layer -> (counters it reports besides calls and self_s, how to count them)
COUNTERS = {
    "algebra.adjoint": (("terms_in", "terms_out"), _adjoint_counts),
    "algebra.mul": (("term_pairs", "terms_out", "hit_ratio"), _mul_counts),
    "parser.parse_expr": (("terms_out",), _parse_counts),
    "cli.main": (("report_bytes",), _report_counts),
}


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS) + [CHECK]
        self.spans = []  # (layer index, start, end, parent span or -1, case id)
        self.stack = []
        self.counts = {name: defaultdict(int) for name in self.layers}
        self.case = -1
        self._patched = []

    # -- spans ------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append((self.layers.index(name), perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.case))
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.stack.pop()
        lid, start, _, parent, case = self.spans[idx]
        self.spans[idx] = (lid, start, perf_counter(), parent, case)

    def _wrap(self, name, fn):
        lid = self.layers.index(name)
        spans, stack, clock = self.spans, self.stack, perf_counter
        counter = COUNTERS.get(name, ((), None))[1]
        counts = self.counts[name]
        tracer = self
        is_mul = name == "algebra.mul"

        def traced(*args, **kwargs):
            if is_mul and type(args[1]) is not type(args[0]):
                return fn(*args, **kwargs)  # scalar scaling is not a product
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (lid, start, end, stack[-1] if stack else -1, tracer.case)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer target wherever a dkpfields module holds it.

        Returns the targets the code no longer has, so that a renamed layer
        is reported rather than silently read as zero.
        """
        mods = [m for k, m in sorted(sys.modules.items())
                if (k == "dkpfields" or k.startswith("dkpfields.")) and m is not None]
        missing = []
        for name, targets in LAYERS.items():
            for target in targets:
                try:
                    home = importlib.import_module(f"dkpfields.{target[0]}")
                except ModuleNotFoundError:
                    missing.append(".".join(target))
                    continue
                if len(target) == 3:
                    cls = getattr(home, target[1], None)
                    fn = cls.__dict__.get(target[2]) if cls is not None else None
                    if fn is None:
                        missing.append(".".join(target))
                        continue
                    self._patch(cls, target[2], self._wrap(name, fn))
                    continue
                fn = getattr(home, target[1], None)
                if fn is None:
                    missing.append(".".join(target))
                    continue
                wrapper = self._wrap(name, fn)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapper)
        return missing

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def summary(self, start=0):
        """Per-layer metrics over the spans from index start on, with the
        counters gathered since the last summary, and the summed duration
        of the top-level spans."""
        spans = self.spans
        child = defaultdict(float)
        for lid, t0, t1, parent, _ in spans[start:]:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        top = 0.0
        for i in range(start, len(spans)):
            lid, t0, t1, parent, _ = spans[i]
            calls[lid] += 1
            self_s[lid] += t1 - t0 - child[i]
            if parent < 0:
                top += t1 - t0
        out = {}
        for lid, name in enumerate(self.layers):
            out[f"{name}.calls"] = calls[lid]
            out[f"{name}.self_s"] = self_s[lid]
            counts = self.counts[name]
            for stat in COUNTERS.get(name, ((), None))[0]:
                if stat == "hit_ratio":
                    pairs = counts["term_pairs"]
                    out[f"{name}.{stat}"] = counts["hits"] / pairs if pairs else 0.0
                else:
                    out[f"{name}.{stat}"] = counts[stat]
            counts.clear()
        return out, top

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("layer\tstart\tend\tparent\tcase\n")
            for lid, start, end, parent, case in self.spans:
                fh.write(f"{self.layers[lid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{case}\n")
