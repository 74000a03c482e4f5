"""Tracing of hopfkit from outside the program.

Two passes, kept apart so that counting does not distort timing:

* ``Spans`` wraps the public functions in ``SPANNED`` and records one span
  per call (name, start, end, parent, job id) in memory; self time is
  computed from the spans after the pass.
* ``Counts`` wraps the hot kernels (field operations, ``accumulate``,
  ``apply2``, ``FiniteGroup.mul``) with bare counters, and counts calls of
  ``REPEATED`` functions on a structure already seen in the same job.

Functions are replaced at every module attribute that holds them, because
modules import them by name (``from .hopf import verify_hopf``); patching
the defining module alone would miss those call sites.  Every wrapper
returns what the wrapped function returns, so outputs are unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

SPANNED = (
    "definitions.parse_file",
    "serialize.dump_document", "serialize.digest",
    "hopf.verify_hopf", "hopf.group_algebra", "hopf.check_module_bialgebra",
    "hopf.convolution_inverse",
    "linalg.invert", "linalg.solve", "linalg.rank",
    "rb.verify_rb", "rb.descend", "rb.rb_tilde", "rb.rb_conjugate",
    "rb.central_image_witness", "rb.descendent_antipode_inverse_witness",
    "brace.verify_brace", "brace.embed_into_rb", "brace.op_module_witness",
    "brace.symmetric_sufficient_witness",
    "brace.rb_symmetric_sufficient_witness", "brace.rb_op_module_witness",
    "posthopf.posthopf_from_rb",
    "matched.matched_pair_from_rb", "matched.ybe_from_rb",
    "constructions.smash_product",
    "groups.enumerate_rb_group_ops", "groups.verify_rb_group",
)
SCALAR_OPS = ("add", "sub", "mul", "neg", "inv")
KERNELS = ("linalg.scalar_ops", "linalg.accumulate", "hopf.apply2",
           "groups.FiniteGroup.mul")
REPEATED = ("hopf.verify_hopf", "rb.verify_rb", "rb.descend")


class _Patch:
    """Replace functions in every loaded hopfkit module, and put them back."""

    def __init__(self):
        self._undo = []

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "hopfkit"
                                      or name.startswith("hopfkit."))]

    def function(self, dotted, make_wrapper):
        mod_name, fn_name = dotted.split(".")
        original = getattr(sys.modules[f"hopfkit.{mod_name}"], fn_name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def method(self, cls, name, make_wrapper):
        original = cls.__dict__[name]
        setattr(cls, name, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((cls, name, original))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Spans:
    """Span recorder; use as a context manager around one pass."""

    def __init__(self):
        self.spans = []         # (name, start, end, parent index, job id)
        self.job = None
        self._stack = []
        self._patch = _Patch()

    def _wrap(self, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name, start, end, parent, self.job)
            return wrapper
        return make

    def job_span(self, job_id, run):
        """Run one job under a root span named ``job``."""
        self.job = job_id
        return self._wrap("job")(run)()

    def __enter__(self):
        for dotted in SPANNED:
            self._patch.function(dotted, self._wrap(dotted))
        return self

    def __exit__(self, *exc):
        self._patch.restore()

    def summary(self):
        """{name: (calls, self seconds)} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child[i])
        return out

    def longest(self, name):
        return max((end - start for n, start, end, _, _ in self.spans
                    if n == name), default=0.0)

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]


def _op_key(op):
    return tuple(tuple(sorted(col.coeffs.items())) for col in op.columns)


def _hopf_key(h):
    return (h.space.labels, h.field.p, _op_key(h.mul),
            tuple(sorted(h.unit.coeffs.items())), _op_key(h.comul),
            _op_key(h.counit), _op_key(h.antipode))


def _digest(key):
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# What identifies the structure each repeated function processes.
_REPEAT_KEYS = {
    "hopf.verify_hopf": lambda h: _hopf_key(h),
    "rb.verify_rb": lambda h, b: (_hopf_key(h), _op_key(b)),
    "rb.descend": lambda b: (_hopf_key(b.carrier), _op_key(b.map)),
}


class Counts:
    """Kernel call counters and repeat detection; use around one pass and
    call ``new_job`` before each job."""

    def __init__(self):
        self.calls = dict.fromkeys(KERNELS, 0)
        self.repeats = dict.fromkeys(REPEATED, 0)
        self.enum_found = 0
        self.enum_muls = 0
        self._seen = {name: set() for name in REPEATED}
        self._patch = _Patch()

    def new_job(self):
        for seen in self._seen.values():
            seen.clear()

    def _counter(self, name):
        """Counting wrapper with the wrapped function's positional
        signature (every kernel takes two or three arguments); packing
        ``*args`` would cost a third more per call on ~10^8 calls."""
        calls = self.calls

        def make(fn):
            if fn.__code__.co_argcount == 3:
                def wrapper(x, a, b):
                    calls[name] += 1
                    return fn(x, a, b)
            else:
                def wrapper(x, a):
                    calls[name] += 1
                    return fn(x, a)
            return wrapper
        return make

    def _repeat(self, name):
        key_of, seen = _REPEAT_KEYS[name], self._seen[name]

        def make(fn):
            def wrapper(*args):
                key = _digest(key_of(*args))
                if key in seen:
                    self.repeats[name] += 1
                seen.add(key)
                return fn(*args)
            return wrapper
        return make

    def _enumeration(self, fn):
        def wrapper(*args, **kwargs):
            before = self.calls["groups.FiniteGroup.mul"]
            found = fn(*args, **kwargs)
            self.enum_muls += self.calls["groups.FiniteGroup.mul"] - before
            self.enum_found += len(found)
            return found
        return wrapper

    def __enter__(self):
        field_cls = sys.modules["hopfkit.linalg"].Field
        group_cls = sys.modules["hopfkit.groups"].FiniteGroup
        for op in SCALAR_OPS:
            self._patch.method(field_cls, op, self._counter("linalg.scalar_ops"))
        self._patch.method(group_cls, "mul",
                           self._counter("groups.FiniteGroup.mul"))
        for name in ("linalg.accumulate", "hopf.apply2"):
            self._patch.function(name, self._counter(name))
        for name in REPEATED:
            self._patch.function(name, self._repeat(name))
        self._patch.function("groups.enumerate_rb_group_ops", self._enumeration)
        return self

    def __exit__(self, *exc):
        self._patch.restore()

    def yield_per_mmul(self):
        """Operators found per million group multiplications."""
        if not self.enum_muls:
            return 0.0
        return self.enum_found * 1e6 / self.enum_muls
