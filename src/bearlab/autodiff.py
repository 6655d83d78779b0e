"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape records every primitive application in construction order. backward()
replays the records in reverse exactly once, accumulating adjoints; leaves
created through Tape.param() are tied to a ParameterStore and have their
adjoints added into the store's gradient buffers (accumulated, not
overwritten, so a parameter feeding several records sums its contributions).

Everything is float64. Evaluation order is fixed by construction order, which
makes runs bit-reproducible for a fixed seed.
"""

import hashlib
import json
import os

import numpy as np

from .errors import ArtifactError, DomainError, ShapeError

# Probability floor applied before logarithms (log of anything smaller is a
# domain violation unless clamping is requested).
PROB_FLOOR = 1e-12


class ParameterStore:
    """Named float64 parameter arrays with same-shape gradient accumulators."""

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self._values:
            raise ShapeError(f"parameter {name!r} already exists")
        arr = np.array(value, dtype=np.float64)
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)

    def names(self) -> list[str]:
        return list(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def set_value(self, name: str, value) -> None:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != self._values[name].shape:
            raise ShapeError(
                f"parameter {name!r} has shape {self._values[name].shape}, "
                f"got {arr.shape}"
            )
        self._values[name] = arr.copy()

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[...] = 0.0

    def copy(self) -> "ParameterStore":
        out = ParameterStore()
        for name, value in self._values.items():
            out.add(name, value.copy())
        return out

    def n_parameters(self) -> int:
        return sum(v.size for v in self._values.values())

    # Serialization: JSON manifest (name, shape, byte offset) plus one flat
    # little-endian float64 blob.

    def to_blob(self) -> tuple[list[dict], bytes]:
        manifest = []
        chunks = []
        offset = 0
        for name, value in self._values.items():
            raw = np.ascontiguousarray(value, dtype="<f8").tobytes()
            manifest.append({"name": name, "shape": list(value.shape), "offset": offset})
            chunks.append(raw)
            offset += len(raw)
        return manifest, b"".join(chunks)

    def save(self, manifest_path: str, blob_path: str) -> None:
        manifest, blob = self.to_blob()
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
        with open(blob_path, "wb") as fh:
            fh.write(blob)

    @classmethod
    def load(cls, manifest_path: str, blob_path: str) -> "ParameterStore":
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(blob_path, "rb") as fh:
            blob = fh.read()
        counts = [int(np.prod(entry["shape"])) for entry in manifest]
        expected = sum(counts) * 8
        if len(blob) != expected:
            raise ArtifactError(
                f"parameter blob {blob_path} is {len(blob)} bytes, manifest expects {expected}"
            )
        store = cls()
        for entry, count in zip(manifest, counts):
            start = entry["offset"]
            if not 0 <= start <= len(blob) - 8 * count:
                raise ArtifactError(f"parameter {entry['name']!r} lies outside the blob")
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
            store.add(entry["name"], arr.reshape(tuple(entry["shape"])).astype(np.float64))
        return store

    def digest(self) -> str:
        manifest, blob = self.to_blob()
        h = hashlib.sha256()
        h.update(json.dumps(manifest, sort_keys=True).encode())
        h.update(blob)
        return h.hexdigest()


class Node:
    """One value on a tape: a float64 array plus its tape position."""

    __slots__ = ("value", "tape", "index", "requires_grad")

    def __init__(self, value: np.ndarray, tape: "Tape", index: int, requires_grad: bool):
        self.value = value
        self.tape = tape
        self.index = index
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value.item())

    # Small amount of operator sugar; scalars become constant leaves.
    def _lift(self, other) -> "Node":
        if isinstance(other, Node):
            return other
        return self.tape.constant(other)

    def __add__(self, other):
        return add(self, self._lift(other))

    def __radd__(self, other):
        return add(self._lift(other), self)

    def __mul__(self, other):
        return multiply(self, self._lift(other))

    def __rmul__(self, other):
        return multiply(self._lift(other), self)

    def __sub__(self, other):
        other = self._lift(other)
        return add(self, multiply(other, self.tape.constant(-1.0)))

    def __neg__(self):
        return multiply(self, self.tape.constant(-1.0))

    def __matmul__(self, other):
        return matmul(self, self._lift(other))


class _Record:
    """One primitive application: output index plus per-input backward rules."""

    __slots__ = ("out_index", "inputs")

    def __init__(self, out_index: int, inputs: list):
        self.out_index = out_index
        # inputs: list of (node_index, rule, requires_grad); rule maps the
        # output adjoint to this input's adjoint contribution.
        self.inputs = inputs


class Tape:
    """Ordered record of primitive applications over Nodes."""

    def __init__(self):
        self._n_nodes = 0
        self._records: list[_Record] = []
        self._param_nodes: list[tuple[int, ParameterStore, str]] = []
        self._grads: dict[int, np.ndarray] | None = None

    def _new_node(self, value: np.ndarray, requires_grad: bool) -> Node:
        node = Node(value, self, self._n_nodes, requires_grad)
        self._n_nodes += 1
        return node

    def leaf(self, value, requires_grad: bool = True) -> Node:
        return self._new_node(np.array(value, dtype=np.float64), requires_grad)

    def constant(self, value) -> Node:
        return self._new_node(np.asarray(value, dtype=np.float64), False)

    def param(self, store: ParameterStore, name: str) -> Node:
        """Leaf view of a store entry; backward() accumulates into its grad."""
        node = self._new_node(store.value(name), True)
        self._param_nodes.append((node.index, store, name))
        return node

    def emit(self, value: np.ndarray, inputs: list[tuple[Node, callable]]) -> Node:
        requires = any(n.requires_grad for n, _ in inputs)
        node = self._new_node(value, requires)
        if requires:
            specs = [(n.index, rule, n.requires_grad) for n, rule in inputs]
            self._records.append(_Record(node.index, specs))
        return node

    def n_records(self) -> int:
        return len(self._records)

    def grad_of(self, node: Node) -> np.ndarray:
        """Adjoint of a node after backward(); zeros if it received none."""
        if self._grads is None:
            raise DomainError("backward() has not been run on this tape")
        g = self._grads.get(node.index)
        return np.zeros_like(node.value) if g is None else g


def backward(output: Node) -> None:
    """Reverse sweep from a scalar output.

    Visits each record exactly once in reverse construction order and adds
    parameter adjoints into their tied ParameterStores.
    """
    if output.value.shape not in ((), (1,)):
        raise ShapeError(f"backward needs a scalar output, got shape {output.value.shape}")
    tape = output.tape
    grads: dict[int, np.ndarray] = {output.index: np.ones_like(output.value)}
    for record in reversed(tape._records):
        g = grads.get(record.out_index)
        if g is None:
            continue
        for in_index, rule, requires in record.inputs:
            if not requires:
                continue
            contribution = rule(g)
            seen = grads.get(in_index)
            grads[in_index] = contribution if seen is None else seen + contribution
    tape._grads = grads
    for index, store, name in tape._param_nodes:
        g = grads.get(index)
        if g is not None:
            store._grads[name] += g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    """np.matmul with both operands ndim >= 2; leading axes broadcast."""
    if a.value.ndim < 2 or b.value.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    value = np.matmul(a.value, b.value)
    a_val, b_val = a.value, b.value

    def rule_a(g):
        return _unbroadcast(np.matmul(g, np.swapaxes(b_val, -1, -2)), a_val.shape)

    def rule_b(g):
        return _unbroadcast(np.matmul(np.swapaxes(a_val, -1, -2), g), b_val.shape)

    return a.tape.emit(value, [(a, rule_a), (b, rule_b)])


def _broadcast_check(name, a, b):
    try:
        np.broadcast_shapes(a.value.shape, b.value.shape)
    except ValueError:
        raise ShapeError(f"{name} shapes do not broadcast: {a.shape} vs {b.shape}") from None


def add(a: Node, b: Node) -> Node:
    _broadcast_check("add", a, b)
    value = a.value + b.value
    a_shape, b_shape = a.value.shape, b.value.shape  # rules hold no Node: no cycle
    return a.tape.emit(
        value,
        [
            (a, lambda g: _unbroadcast(g, a_shape)),
            (b, lambda g: _unbroadcast(g, b_shape)),
        ],
    )


def multiply(a: Node, b: Node) -> Node:
    _broadcast_check("multiply", a, b)
    value = a.value * b.value
    a_val, b_val = a.value, b.value
    return a.tape.emit(
        value,
        [
            (a, lambda g: _unbroadcast(g * b_val, a_val.shape)),
            (b, lambda g: _unbroadcast(g * a_val, b_val.shape)),
        ],
    )


def exponential(x: Node) -> Node:
    value = np.exp(x.value)
    return x.tape.emit(value, [(x, lambda g: g * value)])


def logarithm(x: Node, clamp: bool = False) -> Node:
    """Natural log. Inputs below PROB_FLOOR are rejected unless clamp=True,
    in which case they are floored (zero gradient below the floor)."""
    if clamp:
        floored = np.maximum(x.value, PROB_FLOOR)
        mask = (x.value >= PROB_FLOOR).astype(np.float64)
        value = np.log(floored)
        return x.tape.emit(value, [(x, lambda g: g * mask / floored)])
    if np.any(x.value < PROB_FLOOR):
        raise DomainError(
            f"logarithm input below floor {PROB_FLOOR:g} "
            f"(min {x.value.min():g}); enable clamping or fix the input"
        )
    x_val = x.value
    value = np.log(x_val)
    return x.tape.emit(value, [(x, lambda g: g / x_val)])


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Node) -> Node:
    value = _sigmoid_values(x.value)
    return x.tape.emit(value, [(x, lambda g: g * value * (1.0 - value))])


def log_sigmoid(x: Node) -> Node:
    """log(sigmoid(x)) computed stably (never -inf for finite inputs)."""
    x_val = x.value
    value = np.where(x_val >= 0, -np.log1p(np.exp(-np.abs(x_val))),
                     x_val - np.log1p(np.exp(-np.abs(x_val))))
    sig_neg = _sigmoid_values(-x_val)  # d/dx log sigmoid(x) = sigmoid(-x)
    return x.tape.emit(value, [(x, lambda g: g * sig_neg)])


def softmax_last_axis(x: Node) -> Node:
    """Row-wise softmax over the last axis, max-subtracted for stability."""
    if x.value.ndim < 1 or x.value.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last axis, got {x.shape}")
    shifted = x.value - x.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * value).sum(axis=-1, keepdims=True)
        return value * (g - dot)

    return x.tape.emit(value, [(x, rule)])


def rectify(x: Node) -> Node:
    x_val = x.value
    value = np.maximum(0.0, x_val)
    return x.tape.emit(value, [(x, lambda g: g * (x_val > 0))])


def gather_rows(table: Node, indices) -> Node:
    """Select rows of `table` (first axis) at integer `indices` (any shape)."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather-rows indices must be integers")
    n = table.value.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DomainError(f"gather-rows index out of range [0, {n})")
    value = table.value[idx]
    table_shape = table.value.shape

    def rule(g):
        out = np.zeros(table_shape, dtype=np.float64)
        np.add.at(out, idx, g)
        return out

    return table.tape.emit(value, [(table, rule)])


def concatenate(nodes: list[Node], axis: int = 0) -> Node:
    if not nodes:
        raise ShapeError("concatenate needs at least one input")
    try:
        value = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concatenate shapes incompatible: {[n.shape for n in nodes]}") from exc
    extents = [n.value.shape[axis] for n in nodes]
    offsets = np.cumsum([0] + extents)

    def make_rule(i):
        lo, hi = offsets[i], offsets[i + 1]

        def rule(g):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(lo, hi)
            return g[tuple(slicer)]

        return rule

    return nodes[0].tape.emit(value, [(n, make_rule(i)) for i, n in enumerate(nodes)])


def select_last_axis(x: Node, indices) -> Node:
    """out[i...] = x[i..., indices[i...]] for indices shaped like x minus its
    last axis."""
    idx = np.asarray(indices)
    if idx.shape != x.value.shape[:-1]:
        raise ShapeError(
            f"select-last-axis indices shape {idx.shape} does not match "
            f"leading shape of {x.shape}"
        )
    width = x.value.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= width):
        raise DomainError(f"select-last-axis index out of range [0, {width})")
    value = np.take_along_axis(x.value, idx[..., None], axis=-1)[..., 0]
    x_shape = x.value.shape

    def rule(g):
        flat = np.zeros(int(np.prod(x_shape)), dtype=np.float64)
        lead = int(np.prod(x_shape[:-1]))
        positions = np.arange(lead) * width + idx.reshape(-1)
        np.add.at(flat, positions, g.reshape(-1))
        return flat.reshape(x_shape)

    return x.tape.emit(value, [(x, rule)])


def reduce_sum(x: Node, axis=None, keepdims: bool = False) -> Node:
    value = x.value.sum(axis=axis, keepdims=keepdims)
    x_shape = x.value.shape

    def rule(g):
        if axis is None:
            return np.full(x_shape, g.reshape(()))
        g_full = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g_full, x_shape).copy()

    return x.tape.emit(np.asarray(value, dtype=np.float64), [(x, rule)])


def reshape(x: Node, shape) -> Node:
    value = x.value.reshape(shape)
    x_shape = x.value.shape
    return x.tape.emit(value, [(x, lambda g: g.reshape(x_shape))])


def transpose_last2(x: Node) -> Node:
    if x.value.ndim < 2:
        raise ShapeError(f"transpose-last2 needs ndim >= 2, got {x.shape}")
    value = np.swapaxes(x.value, -1, -2)
    return x.tape.emit(value, [(x, lambda g: np.swapaxes(g, -1, -2))])


_PRIMITIVES = {
    "matmul": matmul,
    "add": add,
    "multiply": multiply,
    "exponential": exponential,
    "logarithm": logarithm,
    "sigmoid": sigmoid,
    "softmax-last-axis": softmax_last_axis,
    "gather-rows": gather_rows,
    "concatenate": concatenate,
    "rectify": rectify,
}


def forward_primitive(kind: str, *inputs, **kwargs) -> Node:
    """Apply a primitive by kind name; records the application on the tape."""
    try:
        fn = _PRIMITIVES[kind]
    except KeyError:
        raise DomainError(f"unknown primitive kind {kind!r}") from None
    return fn(*inputs, **kwargs)


def grad_check(fn, store: ParameterStore, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `fn(tape, store)` must build and return a scalar Node whose leaves come
    from tape.param(store, ...). Relative error per coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8); non-finite
    differences come back as +inf.
    """
    store.zero_grads()
    tape = Tape()
    out = fn(tape, store)
    backward(out)
    analytic = {name: store.grad(name).copy() for name in store.names()}

    worst = 0.0
    for name in store.names():
        flat = store.value(name).reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = fn(Tape(), store).value.item()
            flat[i] = orig - step
            f_minus = fn(Tape(), store).value.item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = a_flat[i]
            if not (np.isfinite(numeric) and np.isfinite(a)):
                return float("inf")
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
