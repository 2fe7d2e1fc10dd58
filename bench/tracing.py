"""Layer timing for the traced run, from outside the program.

The tracer replaces pqk's public functions at each layer boundary with
wrappers, under every name a pqk module binds them to (``interp`` and
``simulator`` import ``append``, ``check_signature`` and ``path_set`` from
their home modules, so patching the home module alone would miss those
calls).  A wrapper records a span only while ``tracer.on`` is set, which the
benchmark sets around each timed operation, so output checks stay untraced.

Spans are folded into per-function aggregates as they close (calls, time,
self time) instead of being stored one by one: the trees functions run
hundreds of thousands of times per operation.  A layer's self time is its
spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import pqk.circuit
import pqk.fuzz
import pqk.interp
import pqk.parser
import pqk.simulator
import pqk.trees
import pqk.typecheck

LAYERS = ("parser", "typecheck", "interp", "circuit", "trees", "simulator", "fuzz")

# metric key -> (owner, attribute); the owner is a module or a class.
TARGETS = {
    "parser.parse_program": (pqk.parser, "parse_program"),
    "parser.parse_circuit_text": (pqk.parser, "parse_circuit_text"),
    "typecheck.check_closed_term": (pqk.typecheck, "check_closed_term"),
    "typecheck.typecheck_closed_right_config": (pqk.typecheck, "typecheck_closed_right_config"),
    "interp.run_closed": (pqk.interp, "run_closed"),
    "circuit.append": (pqk.circuit, "append"),
    "circuit.check_signature": (pqk.circuit, "check_signature"),
    "circuit.insert": (pqk.circuit, "insert"),
    "trees.path_set": (pqk.trees, "path_set"),
    "trees.compose": (pqk.trees, "compose"),
    "trees.union": (pqk.trees.Assignment, "union"),
    "simulator.branch_distribution": (pqk.simulator, "branch_distribution"),
    "simulator.simulate": (pqk.simulator, "simulate"),
    "fuzz.run_fuzz": (pqk.fuzz, "run_fuzz"),
    "fuzz.gen_corpus": (pqk.fuzz, "gen_corpus"),
    "fuzz.check_sr": (pqk.fuzz, "check_sr"),
    "fuzz.check_progress": (pqk.fuzz, "check_progress"),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.calls: Counter = Counter()
        self.time: defaultdict = defaultdict(float)  # outermost call of each function
        self.self_time: defaultdict = defaultdict(float)
        self.layer_time: defaultdict = defaultdict(float)  # outermost span of each layer
        self.in_eval: defaultdict = defaultdict(float)  # per function, while run_closed runs
        self.layer_in_eval: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # steps, instructions, shots, programs, ...
        self._depth: Counter = Counter()
        self._layer_depth: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pqk" or name.startswith("pqk."))]
        for key, (owner, attr) in TARGETS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans

    def _wrap(self, key: str, fn):
        layer = key.split(".", 1)[0]
        pre = getattr(self, "_pre_" + key.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            post = None
            if pre is not None:
                args, kwargs, post = pre(args, kwargs)
            outer_key = tracer._depth[key] == 0
            outer_layer = tracer._layer_depth[layer] == 0
            in_eval = tracer._layer_depth["interp"] > 0
            tracer._depth[key] += 1
            tracer._layer_depth[layer] += 1
            child = [0.0]
            tracer._stack.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                tracer._stack.pop()
                tracer._depth[key] -= 1
                tracer._layer_depth[layer] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += d
                tracer.calls[key] += 1
                tracer.self_time[key] += d - child[0]
                if outer_key:
                    tracer.time[key] += d
                    if in_eval:
                        tracer.in_eval[key] += d
                if outer_layer:
                    tracer.layer_time[layer] += d
                    if in_eval:
                        tracer.layer_in_eval[layer] += d
                if post is not None:
                    post()

        wrapper.__wrapped__ = fn
        return wrapper

    # Per-function counts beyond calls and time.

    def _pre_interp_run_closed(self, args, kwargs):
        if len(args) > 1:
            env = args[1]
        else:
            env = kwargs.pop("env", None)
        if env is None:
            env = pqk.interp.EvalEnv()
        fuel = env.fuel
        if self._layer_depth["fuzz"]:
            self.counts["fuzz.evals"] += 1

        def post():
            self.counts["interp.steps"] += fuel - env.fuel

        return (args[0], env), {}, post

    def _pre_circuit_check_signature(self, args, kwargs):
        self.counts["circuit.signature_instrs"] += len(args[0].instructions)
        if self._layer_depth["simulator"]:
            self.counts["simulator.signature_calls"] += 1
        return args, kwargs, None

    def _pre_typecheck_check_closed_term(self, args, kwargs):
        if self._layer_depth["fuzz"]:
            self.counts["fuzz.checks"] += 1
        return args, kwargs, None

    def _pre_simulator_branch_distribution(self, args, kwargs):
        self.counts["simulator.shots"] += args[2] if len(args) > 2 else kwargs.get("shots", 1024)
        return args, kwargs, None

    def _pre_fuzz_run_fuzz(self, args, kwargs):
        self.counts["fuzz.programs"] += args[1] if len(args) > 1 else kwargs["count"]
        return args, kwargs, None

    # -- report

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-operation layer metrics over `ops` traced operations."""
        t, c, n = self.time, self.calls, self.counts
        programs = n["fuzz.programs"]
        eval_s = t["interp.run_closed"]
        per_op = {
            "parser.parse_s": self.layer_time["parser"],
            "parser.calls": c["parser.parse_program"] + c["parser.parse_circuit_text"],
            "typecheck.check_s": self.layer_time["typecheck"],
            "typecheck.calls": c["typecheck.check_closed_term"] + c["typecheck.typecheck_closed_right_config"],
            "interp.eval_s": eval_s,
            "interp.eval_self_s": eval_s - self.in_eval["circuit.append"],
            "interp.steps": n["interp.steps"],
            "circuit.append_s": t["circuit.append"],
            "circuit.append_calls": c["circuit.append"],
            "circuit.signature_s": t["circuit.check_signature"],
            "circuit.signature_calls": c["circuit.check_signature"],
            "circuit.signature_instrs": n["circuit.signature_instrs"],
            "circuit.insert_s": t["circuit.insert"],
            "trees.path_set_calls": c["trees.path_set"],
            "trees.path_set_s": t["trees.path_set"],
            "trees.union_calls": c["trees.union"],
            "trees.compose_calls": c["trees.compose"],
            "simulator.distribution_s": t["simulator.branch_distribution"],
            "simulator.simulate_calls": c["simulator.simulate"],
            "simulator.simulate_s": t["simulator.simulate"],
            "simulator.signature_calls": n["simulator.signature_calls"],
            "simulator.shots": n["simulator.shots"],
            "fuzz.gen_s": t["fuzz.gen_corpus"],
            "fuzz.sr_s": t["fuzz.check_sr"],
            "fuzz.progress_s": t["fuzz.check_progress"],
            "fuzz.programs": programs,
        }
        for layer in LAYERS:
            per_op[f"{layer}.self_s"] = sum(v for k, v in self.self_time.items() if k.startswith(layer + "."))
        per_op["trace.overhead_s"] = traced_s - untraced_s
        out = {k: v / ops for k, v in per_op.items()}
        out["fuzz.checks_per_program"] = n["fuzz.checks"] / programs if programs else 0.0
        out["fuzz.evals_per_program"] = n["fuzz.evals"] / programs if programs else 0.0
        out["interp.signature_share"] = self.in_eval["circuit.check_signature"] / eval_s if eval_s else 0.0
        out["interp.trees_share"] = self.layer_in_eval["trees"] / eval_s if eval_s else 0.0
        for layer in LAYERS:
            out[f"{layer}.op_share"] = self.layer_time[layer] / traced_s if traced_s else 0.0
        out["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        return out

    def functions(self) -> dict[str, dict[str, float]]:
        """Raw aggregates per wrapped function, for the trace file."""
        return {key: {"calls": self.calls[key], "time_s": self.time[key],
                      "self_s": self.self_time[key], "in_eval_s": self.in_eval[key]}
                for key in TARGETS}
