"""Spans around calls into newtonformer's public functions.

``Tracer.install`` wraps every function each layer module lists in
``__all__`` and rebinds the wrapper wherever a newtonformer module
holds the original by name.  Modules import some functions by name
(``harness`` binds ``model_forward``; ``builders`` binds
``attention_forward`` and ``ffn_forward``) and ``cli`` keeps the
harness runners in a module-level dict, so wrapping only the defining
module would silently miss those calls.

Spans stay in memory; ``Tracer.summary`` reduces them after the call.
A span's self time is its duration minus its child spans' durations.
A group's inclusive time counts only spans with no ancestor in the
same group, so nested calls are not counted twice.
"""

import functools
import importlib
import sys
import time

PACKAGE = "newtonformer"
LAYERS = ("cli", "harness", "datagen", "builders", "pwl", "transformer",
          "logistic", "inversion", "linalg")

# Functions whose spans are summed as one group; any other key is its
# own group.
_GROUPS = {
    "builders.build_inversion_block": "builders.build",
    "builders.build_linreg_transformer": "builders.build",
    "builders.build_logreg_newton_step": "builders.build",
    "datagen.make_covariance": "datagen.gen",
    "datagen.gen_linreg_data": "datagen.gen",
    "datagen.gen_logreg_data": "datagen.gen",
}
_LAYER_CALLS = ("transformer.attention_forward", "transformer.ffn_forward")
_DOUBLE_BYTES = 8


def _stack_shapes(layers):
    """FFN (width, dim) per layer index and the weight bytes of a built
    stack, counting an array shared between layers or heads once."""
    buffers = {}
    ffn = {}
    for i, layer in enumerate(layers):
        arrays = [m for head in layer.heads for m in (head.w_v, head.w_k, head.w_q)]
        if layer.ffn is not None:
            w1, w2 = layer.ffn
            ffn[i] = w1.shape
            arrays += [w1, w2]
        for a in arrays:
            buffers[(a.__array_interface__["data"][0], a.nbytes)] = a.nbytes
    return ffn, sum(buffers.values())


def _rebind(table, wrappers):
    for key, value in list(table.items()):
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            table[key] = hit[1]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}
        self._layer_index = {}
        self.ffn_shapes = {}
        self.weight_bytes = 0

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if (callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, dict):
                    _rebind(value, wrappers)
                else:
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])

    def _wrap(self, key, fn):
        spans, stack, active = self.spans, self._stack, self._active
        group = _GROUPS.get(key, key)
        clock = time.perf_counter
        layer_call = key in _LAYER_CALLS
        is_build = _GROUPS.get(key) == "builders.build"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            depth = active.get(group, 0)
            extra = None
            if layer_call:
                extra = (self._layer_index.get(id(args[0]), -1),
                         args[1].shape[1])
            spans.append(None)
            stack.append(idx)
            active[group] = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[group] = depth
                stack.pop()
                spans[idx] = (key, group, start, end, parent, depth == 0, extra)
            if is_build:
                self._record_stack(result[0])
            return result

        return traced

    def _record_stack(self, layers):
        self._layer_index = {id(layer): i for i, layer in enumerate(layers)}
        ffn, weight_bytes = _stack_shapes(layers)
        if weight_bytes > self.weight_bytes:
            self.ffn_shapes, self.weight_bytes = ffn, weight_bytes

    def summary(self):
        """Reduce the recorded spans to counts and times per key, group
        and layer module, plus the static shape figures of the largest
        stack built."""
        child_s = [0.0] * len(self.spans)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        count, group_count, group_s, self_s = {}, {}, {}, {}
        ffn_layer_s, ncols = {}, 0
        for i, (key, group, start, end, _, outer, extra) in enumerate(self.spans):
            dur = end - start
            count[key] = count.get(key, 0) + 1
            group_count[group] = group_count.get(group, 0) + 1
            if outer:
                group_s[group] = group_s.get(group, 0.0) + dur
            module = key.split(".", 1)[0]
            self_s[module] = self_s.get(module, 0.0) + dur - child_s[i]
            if key == "transformer.ffn_forward":
                ffn_layer_s[extra[0]] = ffn_layer_s.get(extra[0], 0.0) + dur
                ncols = max(ncols, extra[1])
        flop = byte = 0
        for width, dim in self.ffn_shapes.values():
            # two products of a (width x dim) matrix with the stream
            flop += 4 * width * dim * ncols
            # both weight matrices, the hidden activation written and
            # read once, and the stream read and written once
            byte += _DOUBLE_BYTES * (2 * width * dim + 2 * width * ncols
                                     + 2 * dim * ncols)
        return {
            "count": count,
            "group_count": group_count,
            "group_s": group_s,
            "self_s": self_s,
            "ffn_layer_s": {str(k): v for k, v in ffn_layer_s.items()},
            "ffn_width": sum(w for w, _ in self.ffn_shapes.values()),
            "weight_bytes": self.weight_bytes,
            "ffn_flop_per_step": flop,
            "ffn_bytes_per_step": byte,
        }
