"""Span tracing of the library's layers, installed from the benchmark's files.

`Tracer.install()` wraps the public functions named in FUNCTIONS and the
`at` methods named in METHODS.  A function is replaced in every `baire`
module that holds it, not only where it is defined, because modules call the
names they imported.  `get_problem` and `get_realizer` build fresh objects on
every call, so their returned callables are wrapped too.

Each span records name, start, end, parent span and operation id.  Self time
is a span's duration minus the time its child spans cover; it is added up
exactly for every span, while the span records themselves are kept in memory
up to SPAN_CAP and written out at the end.
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
import time
from array import array
from contextlib import contextmanager

SPAN_CAP = 400_000

# (module, attribute, span name); the span name is module.function
FUNCTIONS = (
    ("baire.machine", "decode_entries", "machine.decode_entries"),
    ("baire.machine", "eval_name", "machine.eval_name"),
    ("baire.machine", "apply_name", "machine.apply_name"),
    ("baire.transform", "transformer_word_prefix", "transform.transformer_word_prefix"),
    ("baire.transform", "bounded_value_prefix", "transform.bounded_value_prefix"),
    ("baire.transform", "available_prefix", "transform.available_prefix"),
    ("baire.transform", "recursion_T", "transform.build"),
    ("baire.transform", "injection", "transform.build"),
    ("baire.transform", "injective_recursion", "transform.build"),
    ("baire.operators", "loop_step", "operators.loop_step"),
    ("baire.operators", "validate_run", "operators.validate_run"),
    ("baire.operators", "classify_run", "operators.classify_run"),
    ("baire.reductions", "check_loop_run", "reductions.check_loop_run"),
    ("baire.reductions", "nonzero_within", "reductions.nonzero_within"),
    ("baire.cli", "main", "cli.main"),
    ("baire.cli", "build_parser", "cli.build_parser"),
    ("baire.cli", "determined_report", "cli.determined_report"),
)

# (module, class, method, span name)
METHODS = (
    ("baire.streams", "Stream", "prefix", "streams.prefix"),
    ("baire.streams", "Stream", "determined_prefix", "streams.determined_prefix"),
    ("baire.machine", "RawEvalStream", "at", "machine.raw_eval"),
    ("baire.machine", "MachineStream", "at", "machine.machine_stream"),
    ("baire.machine", "MachineName", "at", "machine.machine_name"),
    ("baire.transform", "InjectionOutput", "at", "transform.injection_output"),
    ("baire.transform", "SelfPairingName", "at", "transform.quine"),
    ("baire.operators", "ProgramName", "at", "operators.program_name"),
)

COUNTED = (("baire.machine", "candidate_word", "machine.candidate_word"),)

_MISSING = object()


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds]
        self.op = -1
        self._stack = []  # open spans: [start, child seconds, record index]
        self._names = []
        self._name_ids = {}
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.spans_dropped = 0
        self.decoded_symbols = 0
        self._roots = []  # root fuel tanks created while installed
        self.fuel_steps = 0
        self._patches = self._plan()

    # wrappers -------------------------------------------------------------

    def timed(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self._names):
            self._names.append(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.span_start)
            if idx < SPAN_CAP:
                tracer.span_name.append(nid)
                tracer.span_parent.append(stack[-1][2] if stack else -1)
                tracer.span_op.append(tracer.op)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                idx = -1
                tracer.spans_dropped += 1
            frame = [clock(), 0.0, idx]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stat[0] += 1
                stat[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if idx >= 0:
                    tracer.span_start[idx] = frame[0]
                    tracer.span_end[idx] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _decode_wrapper(self, original):
        tracer = self

        def decode(name_prefix):
            misses = original.cache_info().misses
            result = original(name_prefix)
            if original.cache_info().misses != misses:
                tracer.decoded_symbols += len(name_prefix)
            return result

        return self.timed("machine.decode_entries", decode)

    def _problem_wrapper(self, original):
        def get_problem(name):
            p = original(name)
            return dataclasses.replace(
                p,
                generate=self.timed("problems.generate", p.generate),
                check_solution=self.timed("problems.check_solution", p.check_solution),
            )

        return get_problem

    def _realizer_wrapper(self, original):
        def get_realizer(name):
            r = original(name)
            return dataclasses.replace(r, solve=self.timed("problems.solve", r.solve))

        return get_realizer

    def _fuel_init(self, original):
        roots = self._roots

        def __init__(tank, steps, parent=None):
            original(tank, steps, parent)
            if parent is None:
                roots.append(tank)

        return __init__

    # installation ---------------------------------------------------------

    def _plan(self):
        """(owner, attribute, replacement) for every patch, originals first."""
        mods = {name: sys.modules[name] for name in sys.modules if name.startswith("baire")}
        plan = []

        def everywhere(original, replacement):
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        plan.append((mod, attr, replacement))

        for mod, attr, name in FUNCTIONS:
            original = getattr(mods[mod], attr)
            if attr == "decode_entries":
                everywhere(original, self._decode_wrapper(original))
            else:
                everywhere(original, self.timed(name, original))
        for mod, attr, name in COUNTED:
            original = getattr(mods[mod], attr)
            everywhere(original, self.counted(name, original))
        problems = mods["baire.problems"]
        everywhere(problems.get_problem, self._problem_wrapper(problems.get_problem))
        everywhere(problems.get_realizer, self._realizer_wrapper(problems.get_realizer))
        for mod, cls_name, method, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            plan.append((cls, method, self.timed(name, getattr(cls, method))))
        fuel = mods["baire.streams"].Fuel
        plan.append((fuel, "__init__", self._fuel_init(fuel.__init__)))
        for name in ("problems.generate", "problems.solve", "problems.check_solution"):
            self.stats.setdefault(name, [0, 0.0])  # reported even when unused
        return plan

    def install(self):
        self._saved = []
        for owner, attr, replacement in self._patches:
            self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Run reference checks with the library untouched."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def settle_fuel(self):
        """Add up the root tanks of the operation that just ended."""
        self.fuel_steps += sum(tank.spent for tank in self._roots)
        self._roots.clear()

    # results ----------------------------------------------------------------

    def calls(self, name):
        return self.stats[name][0]

    def self_s(self, name):
        return self.stats[name][1]

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self._names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
