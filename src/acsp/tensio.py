"""Bit-exact file container and the datatypes that cross tool boundaries.

Binary container layout (all integers little-endian, fixed width):

    magic    4 bytes   b"ACSP"
    version  u32       currently 1
    kind     u32       1=dataset  4=model (2 and 3 are retired)
    payload  ...       kind specific, documented on each write_* function

Tensor values are stored as little-endian float32 in row-major order and
labels as uint32, so identical in-memory inputs produce byte-identical
files on any platform. Downstream numerics run in float64, but
`LabeledDataset` samples and `ActivationTensor` values are float32 in
memory too. Every array held, written or read as float32 passes the one
cast `_float32`, which refuses NaN, Inf and values beyond float32's range.
Activation values are laid out [n, components, cells]: each component's
map over one sample is one row of cells, row-major, and a linear
component has a single cell.

Pruning plans are JSON text instead of binary: they are the artifact a
human audits after a run. A plan and each of its entries are frozen, hold
their sequences as tuples, and check themselves when built, so any plan
that exists is valid and stays so.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import (
    BadMagic,
    BadParams,
    InvalidDataset,
    MalformedPlan,
    NonFiniteValue,
    TruncatedFile,
    VersionMismatch,
    WrongKind,
)

MAGIC = b"ACSP"
VERSION = 1

KIND_DATASET = 1
KIND_MODEL = 4

PLAN_FORMAT = "acsp-plan/1"

SELECTION_MODES = ("regular", "weighted")


# ---------------------------------------------------------------- types

def _float32(values, what: str) -> np.ndarray:
    """`values` as contiguous little-endian float32, refused unless all are
    finite after the cast (a value that rounds down to FLT_MAX is kept)."""
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(values, dtype="<f4")
    if not np.isfinite(out).all():
        raise NonFiniteValue(f"{what} contain NaN, Inf or a value beyond float32's range")
    return out


def _check_labels(labels, n: int) -> np.ndarray:
    """Labels as int64: one per sample, whole numbers, all >= 0, and every
    class id below the maximum present at least twice, since the
    separability statistics downstream need a variance per class."""
    labels = np.asarray(labels)
    # a cast to int64 would cut 1.5 to 1 and warn on NaN, Inf or 1e20
    if labels.dtype.kind == "f" and not ((np.floor(labels) == labels)
                                         & (np.abs(labels) < 2.0**63)).all():
        raise InvalidDataset("class ids must be whole numbers in the int64 range")
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise InvalidDataset("labels must be a vector with one entry per sample")
    if int(labels.min()) < 0:
        raise InvalidDataset("class ids must be non-negative")
    # every id up to the maximum occurs twice, so a valid maximum is below
    # n / 2; checked first, no id can size bincount's array beyond n
    if int(labels.max()) >= n:
        raise InvalidDataset(f"class id {int(labels.max())} is not below the sample count {n}")
    counts = np.bincount(labels)
    if (counts < 2).any():
        bad = int(np.flatnonzero(counts < 2)[0])
        raise InvalidDataset(f"class {bad} occurs fewer than twice")
    return labels


@dataclass(eq=False)
class LabeledDataset:
    """Sample batch plus integer class labels in [0, C), each class at least twice."""

    samples: np.ndarray  # float32, [n, *feature_dims]
    labels: np.ndarray   # int64, [n]

    def __post_init__(self):
        self.samples = _float32(self.samples, "dataset samples")
        if self.samples.ndim < 2 or self.samples.shape[0] == 0:
            raise InvalidDataset("need at least one sample and one feature dimension")
        self.labels = _check_labels(self.labels, self.samples.shape[0])

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(eq=False)
class ActivationTensor:
    """Activation maps of one layer over a labeled batch.

    `values` has shape [n_samples, n_components, cells]: each component's
    map as one row of cells, row-major, so a linear component has 1 cell
    and a conv component h*w. Values must be finite; labels follow the
    dataset's rule.
    """

    values: np.ndarray  # float32
    labels: np.ndarray  # int64

    def __post_init__(self):
        self.values = _float32(self.values, "activation values")
        if self.values.ndim != 3 or self.values.size == 0:
            raise InvalidDataset("activation values must be non-empty [n, components, cells]")
        self.labels = _check_labels(self.labels, self.values.shape[0])


def is_int(val) -> bool:
    # a Python or numpy integer, not a bool; JSON only ever yields Python ints
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool)


def is_real(val) -> bool:
    # a Python or numpy integer or float, not a bool
    return is_int(val) or isinstance(val, (float, np.floating))


@dataclass(frozen=True)
class PlanEntry:
    """One layer's pruning decision, in the original component numbering.

    Checked when built, types first, so no entry that exists is malformed.
    Integer fields take Python or numpy integers and are stored as Python
    ints; `kept_indices` takes a list or a tuple of them and is stored as a
    tuple, so the entry is frozen all the way down. `knee` must be writable
    as JSON, and the entry keeps its own copy, read back from that JSON.
    The fields are the keys of the entry's object in `plan.json`.
    """

    layer_id: int
    n_components: int
    kept_indices: tuple[int, ...]
    k_selected: int
    selection_mode: str
    knee_degree: int
    mss_curve_ref: str | None = None
    knee: dict | None = None  # knee-finder provenance, free form

    def __post_init__(self):
        typed = {
            "layer_id": is_int(self.layer_id),
            "n_components": is_int(self.n_components),
            "kept_indices": (type(self.kept_indices) in (list, tuple)
                             and all(map(is_int, self.kept_indices))),
            "k_selected": is_int(self.k_selected),
            "selection_mode": type(self.selection_mode) is str,
            "knee_degree": is_int(self.knee_degree),
            "mss_curve_ref": self.mss_curve_ref is None or type(self.mss_curve_ref) is str,
            "knee": self.knee is None or type(self.knee) is dict,
        }
        bad = [name for name, ok in typed.items() if not ok]
        if bad:
            raise MalformedPlan(f"bad plan entry: mistyped {', '.join(bad)}")
        for field in fields(self):
            if is_int(value := getattr(self, field.name)):
                object.__setattr__(self, field.name, int(value))
        ks = tuple(map(int, self.kept_indices))
        object.__setattr__(self, "kept_indices", ks)
        if self.knee is not None:
            object.__setattr__(self, "knee", json.loads(_dump_json(self.knee)))
        if self.k_selected != len(ks):
            raise MalformedPlan(
                f"layer {self.layer_id}: k_selected={self.k_selected} "
                f"but {len(ks)} kept indices"
            )
        if not 2 <= self.k_selected <= self.n_components:
            raise MalformedPlan(
                f"layer {self.layer_id}: k_selected must lie in [2, {self.n_components}]"
            )
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise MalformedPlan(f"layer {self.layer_id}: kept_indices must be strictly increasing")
        if ks[0] < 0 or ks[-1] >= self.n_components:
            raise MalformedPlan(
                f"layer {self.layer_id}: kept index outside [0, {self.n_components})"
            )
        if self.selection_mode not in SELECTION_MODES:
            raise MalformedPlan(f"layer {self.layer_id}: unknown selection mode {self.selection_mode!r}")
        # 1, not knee.MIN_DEGREE: the prune refuses degree 1, but plans recording it still read
        if self.knee_degree < 1:
            raise MalformedPlan(f"layer {self.layer_id}: knee_degree must be >= 1")


@dataclass(frozen=True)
class PruningPlan:
    """Ordered pruning decisions, at most one per layer; an empty plan is a
    valid no-op.

    `entries` takes any iterable of `PlanEntry` and is stored as a tuple.
    """

    entries: tuple[PlanEntry, ...] = ()

    def __post_init__(self):
        try:
            entries = tuple(self.entries)
        except TypeError as exc:
            raise MalformedPlan(f"plan entries must be iterable: {exc}") from exc
        object.__setattr__(self, "entries", entries)
        seen = set()
        for entry in entries:
            if not isinstance(entry, PlanEntry):
                raise MalformedPlan(f"plan entry is a {type(entry).__name__}, not a PlanEntry")
            if entry.layer_id in seen:
                raise MalformedPlan(f"duplicate entry for layer {entry.layer_id}")
            seen.add(entry.layer_id)


# ------------------------------------------------------- low-level bytes

class _Reader:
    """Cursor over an in-memory file image; raises TruncatedFile on overrun."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFile(f"needed {n} bytes at offset {self.pos}, file has {len(self.buf)}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def array(self, dtype: str, count: int) -> np.ndarray:
        nbytes = np.dtype(dtype).itemsize * count
        return np.frombuffer(self.take(nbytes), dtype=dtype).copy()

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise TruncatedFile(f"{len(self.buf) - self.pos} bytes beyond the declared payload")


def _header(kind: int) -> bytes:
    return MAGIC + struct.pack("<II", VERSION, kind)


def _open(path: str, expect_kind: int) -> _Reader:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != MAGIC:
        raise BadMagic(f"{path}: not a container file")
    version = reader.u32()
    if version != VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {VERSION}")
    kind = reader.u32()
    if kind != expect_kind:
        raise WrongKind(f"{path}: kind {kind}, expected {expect_kind}")
    return reader


def _pack_dims(shape: tuple[int, ...]) -> bytes:
    return struct.pack("<I", len(shape)) + b"".join(struct.pack("<Q", d) for d in shape)


def _read_dims(r: _Reader) -> tuple[int, ...]:
    ndim = r.u32()
    return tuple(r.u64() for _ in range(ndim))


# ------------------------------------------------------------- datasets

def write_dataset(ds: LabeledDataset, path: str) -> None:
    """Payload: dims, n_labels u64, labels u32[n], values f32[prod(dims)]."""
    blob = bytearray(_header(KIND_DATASET))
    blob += _pack_dims(ds.samples.shape)
    blob += struct.pack("<Q", ds.n_samples)
    blob += ds.labels.astype("<u4").tobytes()
    blob += _float32(ds.samples, "dataset samples").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def read_dataset(path: str) -> LabeledDataset:
    r = _open(path, KIND_DATASET)
    dims = _read_dims(r)
    n = r.u64()
    if not dims or n != dims[0]:
        raise TruncatedFile(f"{path}: label count {n} disagrees with dims {dims}")
    labels = r.array("<u4", n).astype(np.int64)
    values = r.array("<f4", math.prod(dims)).reshape(dims)
    r.done()
    return LabeledDataset(values, labels)


# ----------------------------------------------------------------- models

_MODEL_LAYER_CODES = {"linear": 1, "conv": 2, "relu": 3, "avgpool": 4, "flatten": 5}
_MODEL_META = struct.Struct("<QId")  # rng_seed, train_epochs, train_lr


def write_model(model, path: str) -> None:
    """Payload: input dims, rng_seed u64, train_epochs u32, train_lr f64,
    n_layers u32, a per-layer header block, then f32 weight payloads
    (weights then bias) for each parametric layer in order.

    A layer header is the layer's code u32 followed by its integer fields
    u32 each, in constructor order: linear = (n_in, n_out); conv = (c_in,
    c_out, kernel, stride, pad); avgpool = (size,); relu and flatten have
    none.

    Before any byte is written, a record the header cannot hold or that
    `read_model` refuses is refused: a non-finite `train_lr` with
    NonFiniteValue, an `rng_seed` outside [0, 2**64) or `train_epochs`
    outside [0, toynet.EPOCHS_LIMIT) with BadParams.
    """
    from . import toynet  # deferred: toynet imports tensio
    from .rng import check_seed  # deferred: rng imports tensio

    check_seed(model.rng_seed)
    if not (is_int(model.train_epochs) and 0 <= model.train_epochs < toynet.EPOCHS_LIMIT):
        raise BadParams(f"train_epochs must be an integer in [0, 2**32), got {model.train_epochs!r}")
    if not math.isfinite(model.train_lr):
        raise NonFiniteValue(f"{path}: training lr is {model.train_lr}")
    blob = bytearray(_header(KIND_MODEL))
    blob += _pack_dims(model.input_shape)
    blob += _MODEL_META.pack(model.rng_seed, model.train_epochs, model.train_lr)
    blob += struct.pack("<I", len(model.layers))
    for layer in model.layers:
        header = (_MODEL_LAYER_CODES[layer.kind], *layer.fields)
        blob += struct.pack(f"<{len(header)}I", *header)
    blob += b"".join(_float32(np.append(layer.w, layer.b), f"{path}: model weights").tobytes()
                     for layer in model.layers if layer.parametric)
    with open(path, "wb") as fh:
        fh.write(blob)


def read_model(path: str):
    from . import toynet  # deferred: toynet imports tensio

    by_code = {code: toynet.LAYER_TYPES[kind] for kind, code in _MODEL_LAYER_CODES.items()}
    r = _open(path, KIND_MODEL)
    input_shape = _read_dims(r)
    rng_seed, train_epochs, train_lr = _MODEL_META.unpack(r.take(_MODEL_META.size))
    n_layers = r.u32()
    headers = []
    for _ in range(n_layers):
        code = r.u32()
        if code not in by_code:
            raise WrongKind(f"{path}: unknown layer code {code}")
        cls = by_code[code]
        headers.append((cls, [r.u32() for _ in cls.FIELDS]))
    layers = []
    for cls, fields in headers:
        params = ()
        if cls.parametric:
            shape = cls.weight_shape(*fields)
            w, b = (_float32(r.array("<f4", c), f"{path}: model weights").astype(np.float64)
                    for c in (math.prod(shape), shape[0]))
            params = (w.reshape(shape), b)
        layers.append(cls(*fields, *params))
    r.done()
    if not math.isfinite(train_lr):
        raise NonFiniteValue(f"{path}: training lr is {train_lr}")
    return toynet.ToyModel(layers, input_shape, rng_seed, train_epochs, train_lr)


# ------------------------------------------------------------------ plans

def _dump_json(doc, indent: int | None = None) -> str:
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:  # ValueError: a circular reference, NaN or Inf
        raise MalformedPlan(f"plan is not writable as JSON: {exc}") from exc


def plan_to_json(plan: PruningPlan) -> str:
    """The plan as indented JSON: one object per entry, keyed by its fields."""
    doc = {
        "format": PLAN_FORMAT,
        "layers": [{f.name: getattr(e, f.name) for f in fields(e)}
                   for e in plan.entries],
    }
    return _dump_json(doc, indent=2) + "\n"


def write_plan(plan: PruningPlan, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(plan_to_json(plan))


def read_plan(path: str) -> PruningPlan:
    def refuse_constant(token: str):  # NaN, Infinity and -Infinity are not JSON
        raise MalformedPlan(f"{path}: not valid JSON ({token} is not a JSON value)")
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"), parse_constant=refuse_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedPlan(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != PLAN_FORMAT:
        raise MalformedPlan(f"{path}: missing or unknown plan format marker")
    # a mistyped optional key would otherwise be dropped without a word
    if unknown := sorted(doc.keys() - {"format", "layers"}):
        raise MalformedPlan(f"{path}: unknown plan keys: {', '.join(unknown)}")
    layers = doc.get("layers")
    if not isinstance(layers, list) or not all(isinstance(d, dict) for d in layers):
        raise MalformedPlan(f"{path}: 'layers' must be a list of objects")
    names = {f.name for f in fields(PlanEntry)}
    entries = []
    for d in layers:  # each entry checks its own fields
        missing = [f.name for f in fields(PlanEntry) if f.default is MISSING and f.name not in d]
        if missing:
            raise MalformedPlan(f"{path}: bad plan entry: missing {', '.join(missing)}")
        if unknown := sorted(d.keys() - names):
            raise MalformedPlan(f"{path}: bad plan entry: unknown {', '.join(unknown)}")
        entries.append(PlanEntry(**d))
    return PruningPlan(entries)
