"""On-disk formats: dense matrices, dataset manifests, model and truth directories.

Matrix files are either the binary format (magic "MARC", version byte 0x01,
row and column counts as little-endian u64, then row-major little-endian
float64 payload) or headerless CSV, selected by the ".csv" extension. The
binary round trip is bit-exact in both directions; CSV preserves values
exactly via 17-significant-digit decimals.

A manifest is a JSON file (format_version 1) holding the attribute schema
and one entry per sample: matrix path, optional mask path, and a label per
attribute. Paths are resolved relative to the manifest's directory.

A trained bundle and a planted ground truth hold the same factors, stored
by one writer and read by one reader in the same files: schema.json,
basis_<i>.marc per attribute, selectors.marc (the per-attribute selector
matrices as binary records in schema order), individual.marc and error.marc.
A bundle adds config.json and diagnostics.json (older versions' span.marc
and config echo "mu0_norm": "spectral" are ignored); a truth directory adds
assignments.json, mask.marc, data.marc and, for a planted individual part
of rank > 0, g_left.marc and g_singulars.marc. Both loaders check every
matrix's shape against the others ("<path> has shape (r, c), expected
(r', c')"), refuse one with a NaN or infinite entry ("<path>: non-finite
entries"), check every record field's type, and build the config through
`SolverConfig`'s own checks; a failure raises FormatError.
"""
from __future__ import annotations

import dataclasses
import json
import struct
import typing
import warnings
from pathlib import Path

import numpy as np

from .dataset import AttributeSchema, Sample, SelectorBank
from .errors import FormatError, ValidationError
from .synthbench import GroundTruth
from .trainer import ModelBundle, SolverConfig, TrainDiagnostics

MAGIC = b"MARC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBQQ")


def _matrix_bytes(m: np.ndarray) -> bytes:
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, m.shape[0], m.shape[1])
    return header + np.ascontiguousarray(m, dtype="<f8").tobytes()


def _matrix_from_stream(buf: bytes, offset: int, where: str) -> tuple[np.ndarray, int]:
    if len(buf) - offset < _HEADER.size:
        raise FormatError(f"{where}: truncated header")
    magic, version, rows, cols = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise FormatError(f"{where}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{where}: unsupported format version {version}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{where}: empty matrix ({rows}x{cols})")
    need = rows * cols * 8
    start = offset + _HEADER.size
    if len(buf) - start < need:
        raise FormatError(f"{where}: payload truncated (expected {need} bytes)")
    flat = np.frombuffer(buf, dtype="<f8", count=rows * cols, offset=start)
    return flat.reshape(rows, cols).astype(np.float64, copy=True), start + need


def write_matrix(path: str | Path, m: np.ndarray) -> None:
    """Write a matrix, a 1-D array as one column; ".csv" extension selects
    text, anything else binary."""
    path = Path(path)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValidationError(f"can only store 2-D matrices, got ndim={m.ndim}")
    if path.suffix.lower() == ".csv":
        np.savetxt(path, m, fmt="%.17g", delimiter=",")
    else:
        path.write_bytes(_matrix_bytes(m))


def read_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by `write_matrix`. Malformed content raises
    FormatError; missing files surface as OSError."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            with warnings.catch_warnings():  # no data: reported as empty below
                warnings.simplefilter("ignore", UserWarning)
                m = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"{path}: not a readable CSV matrix: {exc}") from exc
        if m.size == 0:
            raise FormatError(f"{path}: empty matrix")
        return m
    buf = path.read_bytes()
    m, end = _matrix_from_stream(buf, 0, str(path))
    if end != len(buf):
        raise FormatError(f"{path}: {len(buf) - end} trailing bytes after the payload")
    return m


def write_vector(path: str | Path, v: np.ndarray) -> None:
    """Write a vector as a one-column matrix."""
    write_matrix(path, np.ravel(v))


def read_vector(path: str | Path) -> np.ndarray:
    """Read a vector stored as a one-column (or one-row) matrix."""
    m = read_matrix(path)
    if m.shape[0] != 1 and m.shape[1] != 1:
        raise FormatError(f"{path}: expected a vector, got shape {m.shape}")
    return m.reshape(-1)


def _json_dump(path: Path, obj: object) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _json_load(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected a JSON object at the top level")
    return obj


MANIFEST_VERSION = 1


def write_manifest(
    path: str | Path,
    schema: AttributeSchema,
    entries: list[dict],
) -> None:
    """Write a dataset manifest. Each entry: {"data": relpath,
    "mask": relpath or None, "labels": {attr: label}}."""
    _json_dump(Path(path), {
        "format_version": MANIFEST_VERSION,
        "schema": schema.to_dict(),
        "samples": entries,
    })


def load_manifest(path: str | Path) -> tuple[AttributeSchema, list[Sample]]:
    """Load a manifest and every sample it references, each named by its
    data path as written in the manifest (`Sample.name`).

    Structural problems raise FormatError, a malformed schema mapping
    ValidationError, and missing files OSError. The samples' lengths, labels
    and values are `dataset.assemble`'s to check, naming each by that path.
    """
    path = Path(path)
    doc = _json_load(path)
    version = doc.get("format_version")
    if version != MANIFEST_VERSION:
        raise FormatError(f"{path}: unsupported manifest version {version!r}")
    if "schema" not in doc or "samples" not in doc:
        raise FormatError(f"{path}: manifest needs 'schema' and 'samples' sections")
    schema = AttributeSchema.from_dict(doc["schema"])
    if not isinstance(doc["samples"], list) or not doc["samples"]:
        raise FormatError(f"{path}: manifest lists no samples")
    base = path.parent
    samples = []
    for n, entry in enumerate(doc["samples"]):
        if not isinstance(entry, dict) or "data" not in entry or "labels" not in entry:
            raise FormatError(f"{path}: sample {n} needs 'data' and 'labels'")
        mask_rel = entry.get("mask")
        if not isinstance(entry["data"], str) or not isinstance(mask_rel, (str, type(None))):
            raise FormatError(f"{path}: sample {n} 'data' and 'mask' must be path strings")
        data = read_vector(base / entry["data"])
        mask = read_vector(base / mask_rel) if mask_rel else None
        labels = entry["labels"]
        if not isinstance(labels, dict):
            raise FormatError(f"{path}: sample {n} labels must be a mapping")
        samples.append(Sample(data=data, labels=labels, mask=mask, name=entry["data"]))
    return schema, samples


def _has_type(value: object, hint: object) -> bool:
    """isinstance for the field types of a JSON record: classes, list[...],
    Literal[...] and unions. An integer passes for a float, and a bool only
    for a bool."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        return value in args
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if args:
        return any(_has_type(value, arg) for arg in args)
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and isinstance(value, bool) == (hint is bool)


def _read_record(path: Path, cls: type, what: str, legacy: dict | None = None):
    """Read the JSON object at `path` into the dataclass `cls`. Unknown or
    missing keys, a value that does not have its field's declared type, and
    a record that its own construction checks refuse raise FormatError
    naming `what`. Types are checked before the record is built. A `legacy`
    key, a field `cls` no longer has, is dropped if it holds its one value."""
    doc = _json_load(path)
    hints = typing.get_type_hints(cls)
    try:
        for key, value in (legacy or {}).items():
            if (held := doc.pop(key, value)) != value:
                raise ValidationError(f"{key} must be {value!r} or absent, got {held!r}")
        for f in dataclasses.fields(cls):
            if f.name in doc and not _has_type(doc[f.name], hints[f.name]):
                raise ValidationError(f"{f.name} must be {f.type}, got {doc[f.name]!r}")
        return cls(**doc)
    except (TypeError, ValidationError) as exc:
        raise FormatError(f"{path}: bad {what}: {exc}") from exc


def _check_matrix(m: np.ndarray, name: str | Path, shape: tuple[int, ...] | None) -> np.ndarray:
    """`m`, if it has `shape` (any shape when that is None) and only finite
    entries."""
    if shape is not None and m.shape != shape:
        raise FormatError(f"{name} has shape {m.shape}, expected {shape}")
    if not np.isfinite(m).all():
        raise FormatError(f"{name}: non-finite entries")
    return m


def _read_checked(path: Path, shape: tuple[int, ...] | None, read=read_matrix) -> np.ndarray:
    return _check_matrix(read(path), path, shape)


def _read_selectors(path: Path, schema: AttributeSchema) -> SelectorBank:
    """Read the (M_i, M_i) selector record of each of `schema`'s attributes,
    in order, from one file; bytes past the last record raise FormatError."""
    buf = path.read_bytes()
    selectors = []
    offset = 0
    for i in range(schema.count):
        sel, offset = _matrix_from_stream(buf, offset, f"{path} record {i}")
        m = schema.size(i)
        selectors.append(_check_matrix(sel, f"{path}: record {i}", (m, m)))
    if offset != len(buf):
        raise FormatError(f"{path}: trailing bytes after the last record")
    return SelectorBank(selectors)


def _save_factors(path: str | Path, model: ModelBundle | GroundTruth) -> Path:
    """Write the factor files that bundles and truth directories share,
    creating the directory if needed; returns it."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _json_dump(root / "schema.json", model.schema.to_dict())
    for i, basis in enumerate(model.bases):
        write_matrix(root / f"basis_{i}.marc", basis)
    root.joinpath("selectors.marc").write_bytes(
        b"".join(_matrix_bytes(sel) for sel in model.bank.selectors))
    write_matrix(root / "individual.marc", model.individual)
    write_matrix(root / "error.marc", model.sparse_error)
    return root


def _load_factors(root: Path, shape: tuple[int, int] | None = None) -> dict:
    """Read the factor files under `root` as the keyword arguments they fill
    in a ModelBundle or GroundTruth. The individual and sparse parts must
    have `shape` (when None, whatever individual.marc has) and each basis
    their rows and one column per instantiation, and every entry must be
    finite. A schema that AttributeSchema refuses raises FormatError naming
    schema.json, and a missing file OSError."""
    path = root / "schema.json"
    try:
        schema = AttributeSchema.from_dict(_json_load(path))
    except ValidationError as exc:
        raise FormatError(f"{path}: bad schema: {exc}") from exc
    individual = _read_checked(root / "individual.marc", shape)
    dim = individual.shape[0]
    return {
        "schema": schema,
        "bases": [_read_checked(root / f"basis_{i}.marc", (dim, schema.size(i)))
                  for i in range(schema.count)],
        "bank": _read_selectors(root / "selectors.marc", schema),
        "individual": individual,
        "sparse_error": _read_checked(root / "error.marc", individual.shape),
    }


def save_bundle(path: str | Path, bundle: ModelBundle) -> None:
    """Write a bundle archive directory (created if needed)."""
    root = _save_factors(path, bundle)
    _json_dump(root / "config.json", dataclasses.asdict(bundle.config))
    _json_dump(root / "diagnostics.json", dataclasses.asdict(bundle.diagnostics))


def load_bundle(path: str | Path) -> ModelBundle:
    """Read a bundle archive back; bitwise inverse of `save_bundle`."""
    root = Path(path)
    return ModelBundle(
        **_load_factors(root),
        config=_read_record(root / "config.json", SolverConfig, "config echo",
                            legacy={"mu0_norm": "spectral"}),
        diagnostics=_read_record(root / "diagnostics.json", TrainDiagnostics, "diagnostics"),
    )


def save_truth(path: str | Path, truth: GroundTruth) -> None:
    """Write the planted ground truth next to a synthetic dataset."""
    root = _save_factors(path, truth)
    _json_dump(root / "assignments.json", {
        "assignments": [a.tolist() for a in truth.assignments],
    })
    write_matrix(root / "mask.marc", truth.mask)
    write_matrix(root / "data.marc", truth.data)
    if truth.g_left.shape[1]:
        write_matrix(root / "g_left.marc", truth.g_left)
        write_matrix(root / "g_singulars.marc", truth.g_singulars)


def load_truth(path: str | Path) -> GroundTruth:
    """Read a ground-truth directory written by `save_truth`.

    The parts and the mask must have the (dim, count) shape of data.marc,
    each assignment vector must give every column an integer label of its
    attribute, and g_left must have dim rows and one column per singular value.
    """
    root = Path(path)
    data = _read_checked(root / "data.marc", None)
    dim, count = data.shape
    factors = _load_factors(root, data.shape)
    schema = factors["schema"]
    raw = _json_load(root / "assignments.json").get("assignments", [])
    if not isinstance(raw, list) or len(raw) != schema.count:
        raise FormatError(f"{root}: assignments do not cover the schema")
    for i, labels in enumerate(raw):
        m = schema.size(i)
        if not (_has_type(labels, list[int]) and len(labels) == count
                and all(0 <= label < m for label in labels)):
            raise FormatError(
                f"{root}: assignments[{i}] must hold {count} labels in [0, {m}) as JSON integers")
    if (root / "g_left.marc").exists():
        g_singulars = _read_checked(root / "g_singulars.marc", None, read_vector)
        g_left = _read_checked(root / "g_left.marc", (dim, g_singulars.size))
    else:
        g_left, g_singulars = np.zeros((dim, 0)), np.zeros(0)
    return GroundTruth(
        **factors,
        mask=_read_checked(root / "mask.marc", data.shape),
        data=data,
        assignments=tuple(np.asarray(labels, dtype=np.int64) for labels in raw),
        g_left=g_left,
        g_singulars=g_singulars,
    )
