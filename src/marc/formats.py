"""On-disk formats: dense matrices, dataset manifests, model bundles.

Matrix files are either the binary format (magic "MARC", version byte 0x01,
row and column counts as little-endian u64, then row-major little-endian
float64 payload) or headerless CSV, selected by the ".csv" extension. The
binary round trip is bit-exact in both directions; CSV preserves values
exactly via 17-significant-digit decimals.

A manifest is a JSON file (format_version 1) holding the attribute schema
and one entry per sample: matrix path, optional mask path, and a label per
attribute. Paths are resolved relative to the manifest's directory.

A bundle archive is a directory: schema.json, config.json, diagnostics.json,
basis_<i>.marc per attribute, selectors.marc (the per-attribute selector
matrices concatenated as binary records in schema order), individual.marc
and error.marc. A span.marc left there by older versions is ignored: spans
are cut from the individual part's SVD when a vector is reconstructed. A
ground-truth directory stores its selectors in the same record file, and
both are read back through one reader that checks each record's (M_i, M_i)
shape and rejects trailing bytes. Both loaders also cross-check the shapes
of the other matrices in the directory.
"""
from __future__ import annotations

import dataclasses
import json
import struct
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
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValidationError(f"can only store 2-D matrices, got ndim={m.ndim}")
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
    """Write a matrix; ".csv" extension selects text, anything else binary."""
    path = Path(path)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
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
            m = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        except OSError:
            raise
        except Exception as exc:
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
    write_matrix(path, np.asarray(v, dtype=np.float64).reshape(-1, 1))


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
    """Load a manifest and every sample it references.

    Label problems raise ValidationError naming the offending sample file;
    structural problems raise FormatError; missing files raise OSError.
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
        data_path = base / entry["data"]
        data = read_vector(data_path)
        mask = None
        if entry.get("mask"):
            mask = read_vector(base / entry["mask"])
        labels = entry["labels"]
        if not isinstance(labels, dict):
            raise FormatError(f"{path}: sample {n} labels must be a mapping")
        for name, label in labels.items():
            try:
                schema.inst_index(schema.attr_index(name), label)
            except ValidationError as exc:
                raise ValidationError(f"sample '{entry['data']}': {exc}") from None
        samples.append(Sample(data=data, labels=labels, mask=mask))
    return schema, samples


def _config_to_dict(config: SolverConfig) -> dict:
    return dataclasses.asdict(config)


def _config_from_dict(d: dict, where: str) -> SolverConfig:
    try:
        return SolverConfig(**d)
    except TypeError as exc:
        raise FormatError(f"{where}: bad config echo: {exc}") from exc


def _write_selectors(path: Path, bank: SelectorBank) -> None:
    path.write_bytes(b"".join(_matrix_bytes(sel) for sel in bank.selectors))


def _read_selectors(path: Path, schema: AttributeSchema) -> SelectorBank:
    """Read the selector records of `schema`'s attributes, in order, from one
    file; a record of the wrong shape or bytes past the last one raise
    FormatError."""
    buf = path.read_bytes()
    selectors = []
    offset = 0
    for i in range(schema.count):
        sel, offset = _matrix_from_stream(buf, offset, f"{path} record {i}")
        m = schema.size(i)
        if sel.shape != (m, m):
            raise FormatError(f"{path}: record {i} has shape {sel.shape}, expected {(m, m)}")
        selectors.append(sel)
    if offset != len(buf):
        raise FormatError(f"{path}: trailing bytes after the last record")
    return SelectorBank(selectors)


def save_bundle(path: str | Path, bundle: ModelBundle) -> None:
    """Write a bundle archive directory (created if needed)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _json_dump(root / "schema.json", bundle.schema.to_dict())
    _json_dump(root / "config.json", _config_to_dict(bundle.config))
    _json_dump(root / "diagnostics.json", dataclasses.asdict(bundle.diagnostics))
    for i, basis in enumerate(bundle.bases):
        write_matrix(root / f"basis_{i}.marc", basis)
    _write_selectors(root / "selectors.marc", bundle.bank)
    write_matrix(root / "individual.marc", bundle.individual)
    write_matrix(root / "error.marc", bundle.sparse_error)


def load_bundle(path: str | Path) -> ModelBundle:
    """Read a bundle archive back; bitwise inverse of `save_bundle`."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"bundle directory not found: {root}")
    schema = AttributeSchema.from_dict(_json_load(root / "schema.json"))
    config = _config_from_dict(_json_load(root / "config.json"), str(root / "config.json"))
    diag_doc = _json_load(root / "diagnostics.json")
    try:
        diagnostics = TrainDiagnostics(**diag_doc)
    except TypeError as exc:
        raise FormatError(f"{root / 'diagnostics.json'}: bad diagnostics: {exc}") from exc
    bases = [read_matrix(root / f"basis_{i}.marc") for i in range(schema.count)]
    bank = _read_selectors(root / "selectors.marc", schema)
    individual = read_matrix(root / "individual.marc")
    sparse_error = read_matrix(root / "error.marc")
    dim = individual.shape[0]
    for i, basis in enumerate(bases):
        m = schema.size(i)
        if basis.shape[1] != m:
            raise FormatError(f"{root}: basis_{i}.marc has {basis.shape[1]} columns, expected {m}")
        if basis.shape[0] != dim:
            raise FormatError(
                f"{root}: basis_{i}.marc has {basis.shape[0]} rows, expected {dim} "
                f"like individual.marc"
            )
    if sparse_error.shape != individual.shape:
        raise FormatError(
            f"{root}: error.marc has shape {sparse_error.shape}, expected "
            f"{individual.shape} like individual.marc"
        )
    return ModelBundle(
        schema=schema,
        bases=bases,
        bank=bank,
        individual=individual,
        sparse_error=sparse_error,
        diagnostics=diagnostics,
        config=config,
    )


def save_truth(path: str | Path, truth: GroundTruth) -> None:
    """Write the planted ground truth next to a synthetic dataset."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    _json_dump(root / "schema.json", truth.schema.to_dict())
    _json_dump(root / "assignments.json", {
        "assignments": [a.tolist() for a in truth.assignments],
    })
    for i, basis in enumerate(truth.bases):
        write_matrix(root / f"basis_{i}.marc", basis)
    _write_selectors(root / "selectors.marc", truth.bank)
    write_matrix(root / "individual.marc", truth.individual)
    write_matrix(root / "error.marc", truth.sparse_error)
    write_matrix(root / "mask.marc", truth.mask)
    write_matrix(root / "data.marc", truth.data)
    if truth.g_left.shape[1]:
        write_matrix(root / "g_left.marc", truth.g_left)
        write_matrix(root / "g_singulars.marc", truth.g_singulars)


def load_truth(path: str | Path) -> GroundTruth:
    """Read a ground-truth directory written by `save_truth`.

    Shapes are cross-checked against data.marc (dim x count): individual,
    error and mask must match it, each basis must have dim rows and one
    column per instantiation, each assignment vector must give every column
    a label of its attribute, and g_left must have dim rows and one column
    per singular value. A mismatch raises FormatError.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"truth directory not found: {root}")
    schema = AttributeSchema.from_dict(_json_load(root / "schema.json"))
    assignments_doc = _json_load(root / "assignments.json")
    try:
        assignments = tuple(
            np.asarray(a, dtype=np.int64) for a in assignments_doc.get("assignments", [])
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{root / 'assignments.json'}: bad assignments: {exc}") from exc
    if len(assignments) != schema.count:
        raise FormatError(f"{root}: assignments do not cover the schema")
    data = read_matrix(root / "data.marc")
    dim, count = data.shape
    parts = {name: read_matrix(root / f"{name}.marc") for name in ("individual", "error", "mask")}
    for name, part in parts.items():
        if part.shape != data.shape:
            raise FormatError(
                f"{root}: {name}.marc has shape {part.shape}, expected {data.shape} like data.marc"
            )
    bases = [read_matrix(root / f"basis_{i}.marc") for i in range(schema.count)]
    for i, (basis, labels) in enumerate(zip(bases, assignments)):
        m = schema.size(i)
        if basis.shape != (dim, m):
            raise FormatError(f"{root}: basis_{i}.marc has shape {basis.shape}, expected {(dim, m)}")
        if labels.shape != (count,) or labels.min() < 0 or labels.max() >= m:
            raise FormatError(
                f"{root}: assignments[{i}] must hold {count} labels in [0, {m})"
            )
    bank = _read_selectors(root / "selectors.marc", schema)
    g_left_path = root / "g_left.marc"
    if g_left_path.exists():
        g_left = read_matrix(g_left_path)
        g_singulars = read_vector(root / "g_singulars.marc")
        if g_left.shape != (dim, g_singulars.size):
            raise FormatError(
                f"{root}: g_left.marc has shape {g_left.shape}, expected "
                f"{(dim, g_singulars.size)} for {g_singulars.size} singular values"
            )
    else:
        g_left = np.zeros((dim, 0))
        g_singulars = np.zeros(0)
    return GroundTruth(
        schema=schema,
        bases=bases,
        bank=bank,
        individual=parts["individual"],
        sparse_error=parts["error"],
        mask=parts["mask"],
        data=data,
        assignments=assignments,
        g_left=g_left,
        g_singulars=g_singulars,
    )
