"""Span tracing of omtq's layers, installed from outside the package.

Each traced function is replaced, where its callers look it up, by a
wrapper that records a span: a call count and self time (the span's
duration minus the part its child spans cover).  Spans are aggregated
in memory per request and layer; ``Tracer.finish_request`` closes one
request and returns the time no span covered.

``omt`` imports ``minimize_var`` and ``conjunction_min`` by name, and
``parser`` and ``encodings`` import ``cnfize`` by name, so those names
are patched in the importing modules.  The package-level
``parse_problem``, ``encode_pb`` and ``solve`` are the names the
benchmark itself calls.
"""

from __future__ import annotations

import time

# (layer name, owner path inside the omtq package, attribute)
SPANS = (
    ("parser.parse_problem", "", "parse_problem"),
    ("encodings.encode_pb", "", "encode_pb"),
    ("omt.solve", "", "solve"),
    ("formula.cnfize", "parser", "cnfize"),
    ("formula.cnfize", "encodings", "cnfize"),
    ("formula.copy", "formula.CnfFormula", "copy"),
    ("sat.solve", "sat.SatSolver", "solve"),
    ("omt.after_bcp", "omt.TheoryBridge", "after_bcp"),
    ("omt.on_backjump", "omt.TheoryBridge", "on_backjump"),
    ("omt.on_level_zero", "omt.InlineBridge", "on_level_zero"),
    ("omt.transform_conflict", "omt.TheoryBridge", "transform_conflict"),
    ("omt.transform_conflict", "omt.InlineBridge", "transform_conflict"),
    ("optimize.minimize_var", "omt", "minimize_var"),
    ("optimize.conjunction_min", "omt", "conjunction_min"),
    ("lra.assert_atom", "omt.LraSolver", "assert_atom"),
    ("lra.backtrack_to", "omt.LraSolver", "backtrack_to"),
    ("lra.check", "omt.LraSolver", "check"),
    ("lra.entailed", "omt.LraSolver", "entailed"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# a "hit" is a call whose result did useful work: an entailed literal,
# or an unsat verdict from the simplex check
HITS = {
    "lra.entailed": lambda result: result is not None,
    "lra.check": lambda result: result[0] == "unsat",
}


def _resolve(omtq, path: str):
    obj = omtq
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self._undo: list[tuple] = []  # (owner, attribute, original)
        # frames of open spans: [start_ns, ns covered by child spans];
        # the bottom frame is the request itself
        self.stack: list[list[int]] = []
        self.current: dict[str, list[int]] = {}  # layer -> [calls, self_ns, hits]

    def install(self, omtq):
        for name, path, attr in SPANS:
            owner = _resolve(omtq, path)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self.stack
        hit = HITS.get(name)
        tracer = self

        def span(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                stack[-1][1] += dur
                rec = tracer.current.get(name)
                if rec is None:
                    rec = tracer.current[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur - frame[1]
            if hit is not None and hit(result):
                rec[2] += 1
            return result

        return span

    def start_request(self, start_ns: int):
        self.current = {}
        self.stack[:] = [[start_ns, 0]]

    def finish_request(self, end_ns: int) -> tuple[dict, int]:
        """(layer -> [calls, self_ns, hits], ns of the request no span covered)."""
        start, covered = self.stack.pop()
        return self.current, end_ns - start - covered
