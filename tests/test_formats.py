"""On-disk formats: the binary matrix container, CSV fallback, dataset
manifests, and the bundle/truth archive directories. Round-trips must be
bitwise for binary files."""
import ast
import dataclasses
import json
import os
import re
import stat
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from marc import formats
from marc.cli import main
from marc.dataset import AttributeSchema, assemble
from marc.errors import FormatError, ValidationError
from marc.formats import (
    load_bundle,
    load_manifest,
    load_truth,
    read_matrix,
    read_vector,
    save_bundle,
    save_truth,
    write_manifest,
    write_matrix,
    write_vector,
)
from marc.reconstructor import complete
from marc.synthbench import SynthSpec, generate
from marc.trainer import SolverConfig, train


def header(rows, cols, magic=b"MARC", version=1):
    return struct.pack("<4sBQQ", magic, version, rows, cols)


class TestMatrixContainer:
    def test_binary_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5))
        m[0, 0] = -0.0
        m[1, 1] = 5e-324  # smallest denormal
        m[2, 2] = np.nan
        m[3, 3] = -np.inf
        path = tmp_path / "m.marc"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert m.tobytes() == back.tobytes()
        assert np.signbit(back[0, 0])

    def test_vector_becomes_column(self, tmp_path):
        v = np.arange(4.0)
        write_vector(tmp_path / "v.marc", v)
        assert read_matrix(tmp_path / "v.marc").shape == (4, 1)
        assert np.array_equal(read_vector(tmp_path / "v.marc"), v)

    def test_row_vector_reads_back_flat(self, tmp_path):
        (tmp_path / "r.marc").write_bytes(header(1, 3) + np.arange(3.0).tobytes())
        assert np.array_equal(read_vector(tmp_path / "r.marc"), np.arange(3.0))

    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 6)) * 10.0 ** rng.integers(-12, 12, (4, 6))
        path = tmp_path / "m.csv"
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)

    def test_csv_garbage_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nthree,4.0\n")
        with pytest.raises(FormatError, match="not a readable CSV"):
            read_matrix(path)

    def test_empty_csv_raises_format_error_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="empty matrix"):
                read_matrix(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.marc")
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.csv")

    @pytest.mark.parametrize("blob,message", [
        (b"MAR", "truncated header"),
        (header(2, 2, magic=b"MARK") + b"\0" * 32, "bad magic"),
        (header(2, 2, version=9) + b"\0" * 32, "unsupported format version"),
        (header(0, 2) + b"\0" * 32, "empty matrix"),
        (header(2, 2) + b"\0" * 24, "payload truncated"),
        (header(2, 2) + b"\0" * 33, "trailing bytes"),
    ])
    def test_malformed_binary(self, tmp_path, blob, message):
        path = tmp_path / "m.marc"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            read_matrix(path)

    def test_only_matrices_are_written(self, tmp_path):
        with pytest.raises(ValidationError, match="can only store 2-D matrices, got ndim=3"):
            write_matrix(tmp_path / "m.marc", np.zeros((2, 2, 2)))
        assert not (tmp_path / "m.marc").exists()

    def test_vector_rejects_true_matrix(self, tmp_path):
        write_matrix(tmp_path / "m.marc", np.zeros((2, 3)))
        with pytest.raises(FormatError, match="expected a vector"):
            read_vector(tmp_path / "m.marc")


class TestInPlaceWriter:
    """Every file is rewritten in place and trimmed to the new length."""

    @pytest.mark.parametrize("suffix", [".marc", ".csv"])
    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path, suffix):
        path = tmp_path / f"m{suffix}"
        write_matrix(path, np.random.default_rng(5).standard_normal((20, 20)))
        small = np.array([[1.5], [-2.0], [1e-300]])
        write_matrix(path, small)
        fresh = tmp_path / f"fresh{suffix}"
        write_matrix(fresh, small)
        assert path.read_bytes() == fresh.read_bytes()
        back = read_matrix(path)
        assert back.shape == (3, 1)
        assert back.tobytes() == small.tobytes()

    def test_rewrite_keeps_the_inode(self, tmp_path):
        path = tmp_path / "v.marc"
        write_vector(path, np.arange(50.0))
        inode = path.stat().st_ino
        write_vector(path, np.arange(3.0))
        assert path.stat().st_ino == inode
        assert np.array_equal(read_vector(path), np.arange(3.0))

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_vector(tmp_path / "new.marc", np.arange(3.0))
            (tmp_path / "reference").write_bytes(b"")
        finally:
            os.umask(old)
        assert (stat.S_IMODE((tmp_path / "new.marc").stat().st_mode)
                == stat.S_IMODE((tmp_path / "reference").stat().st_mode) == 0o640)

    @pytest.mark.parametrize("name", ["v.marc", "v.csv", "manifest.json"])
    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_path_raises_as_write_bytes_does(self, tmp_path, where, name):
        if where == "directory":
            path = tmp_path / name
            path.mkdir()
        else:
            path = tmp_path / "missing" / name
        with pytest.raises(OSError) as expected:
            path.write_bytes(b"")
        with pytest.raises(type(expected.value)):
            if name == "manifest.json":
                write_manifest(path, SCHEMA, [])
            else:
                write_vector(path, np.arange(3.0))
        assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("kind", [str, Path], ids=["str", "Path"])
class TestPathArguments:
    """Matrix reads and writes take a path as a `str` or a `Path` alike:
    the same bytes, the same errors and the same messages."""

    @pytest.mark.parametrize("suffix", [".marc", ".csv"])
    def test_missing_file_is_file_not_found(self, tmp_path, kind, suffix):
        path = tmp_path / f"absent{suffix}"
        with pytest.raises(FileNotFoundError) as got:
            read_vector(kind(path))
        with pytest.raises(FileNotFoundError) as want:
            read_vector(path)
        assert str(got.value) == str(want.value)
        assert str(path) in str(got.value)

    def test_directory_is_a_directory_error(self, tmp_path, kind):
        path = tmp_path / "dir.marc"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as got:
            read_matrix(kind(path))
        with pytest.raises(IsADirectoryError) as want:
            path.read_bytes()
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("suffix", [".marc", ".csv"])
    def test_round_trip_and_messages(self, tmp_path, kind, suffix):
        m = np.random.default_rng(8).standard_normal((5, 3))
        write_matrix(kind(tmp_path / f"m{suffix}"), m)
        write_matrix(tmp_path / f"ref{suffix}", m)
        assert (tmp_path / f"m{suffix}").read_bytes() == (tmp_path / f"ref{suffix}").read_bytes()
        assert read_matrix(kind(tmp_path / f"m{suffix}")).tobytes() == m.tobytes()
        with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path / f'm{suffix}'))}: "
                                              "expected a vector, got shape"):
            read_vector(kind(tmp_path / f"m{suffix}"))

    def test_bad_binary_names_the_path(self, tmp_path, kind):
        path = tmp_path / "bad.marc"
        path.write_bytes(header(2, 2) + b"\0" * 33)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: 1 trailing bytes"):
            read_matrix(kind(path))

    def test_matrix_past_64_kib_round_trips_bitwise(self, tmp_path, kind):
        m = np.random.default_rng(9).standard_normal((300, 50))  # 120,000 bytes of payload
        m[7, 3] = -0.0
        path = kind(tmp_path / "big.marc")
        write_matrix(path, m)
        assert os.path.getsize(path) == formats._HEADER.size + m.nbytes > 64 * 1024
        assert read_matrix(path).tobytes() == m.tobytes()
        write_vector(path, np.arange(3.0))  # rewritten in place, trimmed
        assert read_vector(path).tobytes() == np.arange(3.0).tobytes()
        assert os.path.getsize(path) == formats._HEADER.size + 24


def _opens_for_writing(node: ast.AST) -> bool:
    """A call of `open` (builtin or method) with a mode that writes."""
    if not (isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "open")):
        return False
    modes = [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and re.fullmatch(r"[rwxabt+]+", m.value) and set("wxa+") & set(m.value)
               for m in modes)


def test_only_formats_writes_files():
    """One writer serves the package: of the modules of `marc`, only
    `formats` names `write_bytes`, `write_text`, `savetxt` or a writing
    `os.open` flag, or opens a file in a write mode."""
    writers = {"write_bytes", "write_text", "savetxt", "O_WRONLY", "O_RDWR", "O_CREAT"}
    writing = set()
    for path in Path(formats.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (node.attr if isinstance(node, ast.Attribute)
                     else node.id if isinstance(node, ast.Name)
                     else node.name if isinstance(node, ast.alias) else None)
            if named in writers or _opens_for_writing(node):
                writing.add(path.name)
    assert writing == {"formats.py"}


SCHEMA = AttributeSchema.of([("kind", ["a", "b"])])


def write_sample_files(tmp_path, with_mask=True):
    rng = np.random.default_rng(4)
    entries = []
    for n, label in enumerate(["a", "b", "a", "b"]):
        write_vector(tmp_path / f"s{n}.marc", rng.standard_normal(6))
        entry = {"data": f"s{n}.marc", "mask": None, "labels": {"kind": label}}
        if with_mask:
            write_vector(tmp_path / f"w{n}.marc", (rng.random(6) >= 0.2).astype(float))
            entry["mask"] = f"w{n}.marc"
        entries.append(entry)
    return entries


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = write_sample_files(tmp_path)
        write_manifest(tmp_path / "manifest.json", SCHEMA, entries)
        schema, samples = load_manifest(tmp_path / "manifest.json")
        assert schema == SCHEMA
        assert len(samples) == 4
        assert samples[1].labels == {"kind": "b"}
        assert [sample.name for sample in samples] == [f"s{n}.marc" for n in range(4)]
        assert np.array_equal(samples[2].data, read_vector(tmp_path / "s2.marc"))
        assert np.array_equal(samples[0].mask, read_vector(tmp_path / "w0.marc"))

    def test_null_mask_means_fully_observed(self, tmp_path):
        entries = write_sample_files(tmp_path, with_mask=False)
        write_manifest(tmp_path / "manifest.json", SCHEMA, entries)
        _, samples = load_manifest(tmp_path / "manifest.json")
        assert all(s.mask is None for s in samples)

    def test_unknown_label_names_the_sample_file(self, tmp_path):
        entries = write_sample_files(tmp_path)
        entries[2]["labels"] = {"kind": "c"}
        write_manifest(tmp_path / "manifest.json", SCHEMA, entries)
        with pytest.raises(ValidationError, match="^sample 's2.marc': unknown instantiation 'c'"):
            assemble(*load_manifest(tmp_path / "manifest.json"))

    def test_structural_errors(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json\n")
        with pytest.raises(FormatError, match="manifest.json: invalid JSON"):
            load_manifest(path)
        # bytes that decode as no text, nesting past the recursion limit and
        # an integer past Python's digit limit are invalid JSON too
        for blob in (b'\xff\xfe{"a":1}', b'{"format_version": "\xff"}', b"[" * 200_000,
                     b'{"format_version": ' + b"9" * 5000 + b"}"):
            path.write_bytes(blob)
            with pytest.raises(FormatError, match="manifest.json: invalid JSON: "):
                load_manifest(path)
        path.write_text("[]\n")
        with pytest.raises(FormatError, match="JSON object"):
            load_manifest(path)
        path.write_text(json.dumps({"format_version": 2, "schema": {}, "samples": []}))
        with pytest.raises(FormatError, match="unsupported manifest version"):
            load_manifest(path)
        path.write_text(json.dumps({"format_version": 1, "schema": SCHEMA.to_dict()}))
        with pytest.raises(FormatError, match="'schema' and 'samples'"):
            load_manifest(path)
        path.write_text(json.dumps({"format_version": 1,
                                    "schema": SCHEMA.to_dict(), "samples": []}))
        with pytest.raises(FormatError, match="no samples"):
            load_manifest(path)
        path.write_text(json.dumps({"format_version": 1,
                                    "schema": SCHEMA.to_dict(),
                                    "samples": [{"labels": {}}]}))
        with pytest.raises(FormatError, match="sample 0 needs"):
            load_manifest(path)
        entries = write_sample_files(tmp_path)
        entries[2]["labels"] = ["a"]
        write_manifest(path, SCHEMA, entries)
        with pytest.raises(FormatError, match="sample 2 labels must be a mapping"):
            load_manifest(path)

    @pytest.mark.parametrize("field", ["data", "mask"])
    def test_non_string_path_is_format_error(self, tmp_path, field):
        entries = write_sample_files(tmp_path)
        entries[1][field] = 5
        write_manifest(tmp_path / "manifest.json", SCHEMA, entries)
        with pytest.raises(FormatError, match="sample 1 'data' and 'mask' must be path strings"):
            load_manifest(tmp_path / "manifest.json")

    def test_instantiations_must_be_a_list(self, tmp_path):
        # A string would otherwise read as one label per character.
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "schema": {"attributes": [{"name": "kind", "instantiations": "ab"}]},
            "samples": write_sample_files(tmp_path),
        }))
        with pytest.raises(ValidationError, match="'kind': instantiations must be a list"):
            load_manifest(path)

    def test_missing_sample_file_raises_oserror(self, tmp_path):
        entries = write_sample_files(tmp_path)
        entries[1]["data"] = "nowhere.marc"
        write_manifest(tmp_path / "manifest.json", SCHEMA, entries)
        with pytest.raises(OSError):
            load_manifest(tmp_path / "manifest.json")


@pytest.fixture(scope="module")
def trained_small():
    schema = AttributeSchema.of([("shape", ["round", "square"]),
                                 ("tint", ["warm", "cool", "none"])])
    spec = SynthSpec(schema=schema, dim=30, count=18, rank_g=2,
                     sparsity=0.04, missing_frac=0.1, noise_amp=5.0, seed=3)
    ts, _ = generate(spec)
    return train(ts, SolverConfig(t_max=4))


def assert_bundles_equal(a, b):
    assert a.schema == b.schema
    assert a.config == b.config
    assert a.diagnostics == b.diagnostics
    for x, y in zip(a.bases, b.bases):
        assert np.array_equal(x, y)
    for x, y in zip(a.bank.selectors, b.bank.selectors):
        assert np.array_equal(x, y)
    assert np.array_equal(a.individual, b.individual)
    assert np.array_equal(a.sparse_error, b.sparse_error)


class TestBundleArchive:
    def test_round_trip_is_bitwise(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        back = load_bundle(tmp_path / "bundle")
        assert_bundles_equal(trained_small, back)
        assert not (tmp_path / "bundle" / "span.marc").exists()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nope")

    def test_stop_reason_is_saved_and_may_be_absent(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        path = tmp_path / "bundle" / "diagnostics.json"
        doc = json.loads(path.read_text())
        assert doc["stop_reason"] == trained_small.diagnostics.stop_reason == "t_max"
        del doc["stop_reason"]  # as written before runs recorded why they stopped
        path.write_text(json.dumps(doc))
        old = load_bundle(tmp_path / "bundle").diagnostics
        assert old.stop_reason is None
        assert dataclasses.replace(old, stop_reason="t_max") == trained_small.diagnostics

    def test_selector_record_shape_is_checked(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        wrong = np.zeros((3, 3))
        blob = header(3, 3) + wrong.tobytes()
        (tmp_path / "bundle" / "selectors.marc").write_bytes(blob + blob)
        with pytest.raises(FormatError, match="record 0 has shape"):
            load_bundle(tmp_path / "bundle")

    def test_selector_trailing_bytes_are_rejected(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        sel_path = tmp_path / "bundle" / "selectors.marc"
        sel_path.write_bytes(sel_path.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing bytes after the last record"):
            load_bundle(tmp_path / "bundle")

    def test_config_echo_is_checked(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        cfg_path = tmp_path / "bundle" / "config.json"
        doc = json.loads(cfg_path.read_text())
        doc["surprise"] = 1
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="bad config echo"):
            load_bundle(tmp_path / "bundle")

    @pytest.mark.parametrize("name, key, value, message", [
        ("diagnostics", "iterations", "many", "iterations must be int, got 'many'"),
        ("diagnostics", "stop_reason", 5, "stop_reason must be Literal"),
        ("diagnostics", "stop_reason", "done", "stop_reason must be Literal"),
        ("diagnostics", "residual_history", "x", "residual_history must be list[float], got 'x'"),
        ("diagnostics", "converged", 1, "converged must be bool, got 1"),
        ("config", "rho", "fast", "rho must be float, got 'fast'"),
        ("config", "t_max", -3, "t_max must be >= 1, got -3"),
        ("config", "seed", -1, "seed must be a non-negative integer, got -1"),
        ("config", "mu0_norm", "frobenius", "mu0_norm must be 'spectral' or absent, got 'frobenius'"),
    ])
    def test_records_are_checked(self, tmp_path, trained_small, name, key, value, message):
        save_bundle(tmp_path / "bundle", trained_small)
        path = tmp_path / "bundle" / f"{name}.json"
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        what = "config echo" if name == "config" else name
        with pytest.raises(FormatError, match=f"bad {what}: {re.escape(message)}"):
            load_bundle(tmp_path / "bundle")

    def test_null_stop_reason_loads(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        path = tmp_path / "bundle" / "diagnostics.json"
        path.write_text(path.read_text().replace('"t_max"', "null"))
        assert load_bundle(tmp_path / "bundle").diagnostics.stop_reason is None

    def test_basis_width_is_checked(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        write_matrix(tmp_path / "bundle" / "basis_0.marc", np.zeros((30, 5)))
        with pytest.raises(FormatError, match=r"basis_0.marc has shape \(30, 5\), expected \(30, 2\)"):
            load_bundle(tmp_path / "bundle")

    def test_basis_rows_are_checked(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        path = tmp_path / "bundle" / "basis_0.marc"
        write_matrix(path, read_matrix(path)[:-5])
        with pytest.raises(FormatError, match=r"basis_0.marc has shape \(25, 2\), expected \(30, 2\)"):
            load_bundle(tmp_path / "bundle")

    def test_error_shape_is_checked(self, tmp_path, trained_small):
        save_bundle(tmp_path / "bundle", trained_small)
        path = tmp_path / "bundle" / "error.marc"
        write_matrix(path, read_matrix(path)[:, :-1])
        with pytest.raises(FormatError, match="error.marc has shape"):
            load_bundle(tmp_path / "bundle")

    def test_leftover_span_file_is_ignored(self, tmp_path, trained_small):
        # Older versions cached the individual span in span.marc.
        save_bundle(tmp_path / "bundle", trained_small)
        write_matrix(tmp_path / "bundle" / "span.marc", np.zeros((29, 3)))
        assert_bundles_equal(trained_small, load_bundle(tmp_path / "bundle"))

    def test_legacy_mu0_norm_echo_loads(self, tmp_path, trained_small):
        # Older config echoes hold "mu0_norm": "spectral", the norm training
        # still scales the initial penalty by; such a bundle loads as it was.
        for name in ("fresh", "legacy"):
            save_bundle(tmp_path / name, trained_small)
        path = tmp_path / "legacy" / "config.json"
        doc = json.loads(path.read_text())
        assert "mu0_norm" not in doc
        doc["mu0_norm"] = "spectral"
        path.write_text(json.dumps(doc))
        fresh, legacy = load_bundle(tmp_path / "fresh"), load_bundle(tmp_path / "legacy")
        assert_bundles_equal(fresh, legacy)
        rng = np.random.default_rng(8)
        y, w = rng.standard_normal(fresh.dim), (rng.random(fresh.dim) >= 0.2).astype(float)
        assert complete(y, w, fresh).tobytes() == complete(y, w, legacy).tobytes()
        # and `marc complete` writes the same bytes from either
        write_vector(tmp_path / "y.marc", y)
        for name in ("fresh", "legacy"):
            assert main(["complete", "-b", str(tmp_path / name), "-i", str(tmp_path / "y.marc"),
                         "-o", str(tmp_path / f"{name}.marc")]) == 0
        assert (tmp_path / "fresh.marc").read_bytes() == (tmp_path / "legacy.marc").read_bytes()


class TestTruthArchive:
    def test_round_trip_is_bitwise(self, tmp_path):
        schema = AttributeSchema.of([("shape", ["round", "square"]),
                                     ("tint", ["warm", "cool", "none"])])
        spec = SynthSpec(schema=schema, dim=25, count=15, rank_g=2,
                         sparsity=0.05, missing_frac=0.15, seed=11)
        _, truth = generate(spec)
        save_truth(tmp_path / "truth", truth)
        back = load_truth(tmp_path / "truth")
        assert back.schema == truth.schema
        for x, y in zip(back.bases, truth.bases):
            assert np.array_equal(x, y)
        for x, y in zip(back.bank.selectors, truth.bank.selectors):
            assert np.array_equal(x, y)
        assert np.array_equal(back.individual, truth.individual)
        assert np.array_equal(back.sparse_error, truth.sparse_error)
        assert np.array_equal(back.mask, truth.mask)
        assert np.array_equal(back.data, truth.data)
        for x, y in zip(back.assignments, truth.assignments):
            assert np.array_equal(x, y)
        assert np.array_equal(back.g_left, truth.g_left)
        assert np.array_equal(back.g_singulars, truth.g_singulars)

    def test_rank_zero_truth_round_trips(self, tmp_path):
        schema = AttributeSchema.of([("kind", ["a", "b"])])
        spec = SynthSpec(schema=schema, dim=12, count=8, rank_g=0,
                         sparsity=0.0, missing_frac=0.0, seed=2)
        _, truth = generate(spec)
        save_truth(tmp_path / "truth", truth)
        back = load_truth(tmp_path / "truth")
        assert back.g_left.shape == (12, 0)
        assert back.g_singulars.size == 0
        assert not (tmp_path / "truth" / "g_left.marc").exists()

    @pytest.fixture()
    def saved_truth(self, tmp_path):
        schema = AttributeSchema.of([("shape", ["round", "square"]),
                                     ("tint", ["warm", "cool", "none"])])
        spec = SynthSpec(schema=schema, dim=25, count=15, rank_g=2, seed=11)
        _, truth = generate(spec)
        save_truth(tmp_path / "truth", truth)
        return tmp_path / "truth"

    def test_basis_rows_are_checked(self, saved_truth):
        path = saved_truth / "basis_0.marc"
        write_matrix(path, read_matrix(path)[:-5])
        with pytest.raises(FormatError, match=r"basis_0.marc has shape \(20, 2\), expected \(25, 2\)"):
            load_truth(saved_truth)

    def test_basis_columns_are_checked(self, saved_truth):
        path = saved_truth / "basis_1.marc"
        write_matrix(path, read_matrix(path)[:, :2])
        with pytest.raises(FormatError, match=r"basis_1.marc has shape \(25, 2\), expected \(25, 3\)"):
            load_truth(saved_truth)

    @pytest.mark.parametrize("name", ["mask", "individual", "error"])
    def test_part_shapes_are_checked(self, saved_truth, name):
        path = saved_truth / f"{name}.marc"
        write_matrix(path, read_matrix(path)[:-1])
        with pytest.raises(FormatError, match=rf"{name}.marc has shape \(24, 15\), expected \(25, 15\)"):
            load_truth(saved_truth)

    def test_data_shape_is_checked_against_the_parts(self, saved_truth):
        path = saved_truth / "data.marc"
        write_matrix(path, read_matrix(path)[:, :-1])
        with pytest.raises(FormatError, match="individual.marc has shape"):
            load_truth(saved_truth)

    @pytest.mark.parametrize("edit", [
        lambda a: a[:-1],      # one column short
        lambda a: a + [0],     # one column too many
        lambda a: [3] + a[1:],  # a label past the attribute's size
        lambda a: [-1] + a[1:],
    ], ids=["short", "long", "too-high", "negative"])
    def test_assignment_vectors_are_checked(self, saved_truth, edit):
        doc_path = saved_truth / "assignments.json"
        doc = json.loads(doc_path.read_text())
        doc["assignments"][0] = edit(doc["assignments"][0])
        doc_path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"assignments\[0\] must hold 15 labels in \[0, 2\)"):
            load_truth(saved_truth)

    @pytest.mark.parametrize("label", [1.5, True, "1"], ids=["float", "bool", "string"])
    def test_labels_must_be_integers(self, saved_truth, label):
        doc_path = saved_truth / "assignments.json"
        doc = json.loads(doc_path.read_text())
        doc["assignments"][0][0] = label
        doc_path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"assignments\[0\] must hold 15 labels .* integers"):
            load_truth(saved_truth)

    def test_g_left_rows_are_checked(self, saved_truth):
        path = saved_truth / "g_left.marc"
        write_matrix(path, read_matrix(path)[:-1])
        with pytest.raises(FormatError, match="g_left.marc has shape"):
            load_truth(saved_truth)

    def test_assignment_coverage_is_checked(self, tmp_path):
        schema = AttributeSchema.of([("shape", ["round", "square"]),
                                     ("tint", ["warm", "cool", "none"])])
        spec = SynthSpec(schema=schema, dim=25, count=15, rank_g=2, seed=11)
        _, truth = generate(spec)
        save_truth(tmp_path / "truth", truth)
        doc_path = tmp_path / "truth" / "assignments.json"
        doc = json.loads(doc_path.read_text())
        doc["assignments"] = doc["assignments"][:1]
        doc_path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="do not cover"):
            load_truth(tmp_path / "truth")
