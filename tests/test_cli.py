"""End-to-end command line checks, run in-process through main(argv) so
exit codes and console output are observable without spawning children."""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import bundle_from_truth
import marc
from marc import cli, reconstructor
from marc.cli import COMMANDS, build_parser, main
from marc.dataset import AttributeSchema
from marc.formats import (
    _HEADER, load_bundle, load_manifest, load_truth, read_matrix, read_vector, save_bundle,
    write_manifest, write_matrix, write_vector,
)
from marc.reconstructor import ReconConfig, TransferSpec, build_span, reconstruct, synthesize
from marc.synthbench import default_spec, generate
from marc.trainer import SolverConfig

SYNTH_ARGS = ["--attr", "kind=2", "--attr", "tone=3", "--dim", "30",
              "--samples", "18", "--rank-g", "2", "--sparsity", "0.04",
              "--missing-frac", "0.1", "--seed", "3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train pipeline shared by the read-only tests."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    bundle = root / "bundle"
    assert main(["synth", "-o", str(data)] + SYNTH_ARGS) == 0
    assert main(["train", str(data / "manifest.json"), "-o", str(bundle),
                 "--t-max", "40"]) == 0
    return root


class TestSynth:
    def test_dataset_layout(self, workspace):
        data = workspace / "data"
        schema, samples = load_manifest(data / "manifest.json")
        assert [schema.name(i) for i in range(schema.count)] == ["kind", "tone"]
        assert len(samples) == 18
        assert all(s.mask is not None for s in samples)
        truth = load_truth(data / "truth")
        assert truth.data.shape == (30, 18)
        # manifest labels transcribe the generator's assignments
        for n, sample in enumerate(samples):
            for i in range(schema.count):
                expect = schema.labels(i)[truth.assignments[i][n]]
                assert sample.labels[schema.name(i)] == expect

    def test_fully_observed_dataset_omits_masks(self, tmp_path, capsys):
        out = tmp_path / "clean"
        rc = main(["synth", "-o", str(out), "--attr", "kind=2", "--dim", "12",
                   "--samples", "8", "--rank-g", "0", "--sparsity", "0",
                   "--missing-frac", "0", "--seed", "1"])
        assert rc == 0
        assert "wrote 8 samples (12 dims)" in capsys.readouterr().out
        _, samples = load_manifest(out / "manifest.json")
        assert all(s.mask is None for s in samples)
        assert not list((out / "samples").glob("*_mask.marc"))

    def test_out_of_memory_is_validation_error(self, tmp_path, capsys, monkeypatch):
        def too_big(spec):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(100000, 100000) and data type float64")
        monkeypatch.setattr("marc.cli.generate", too_big)
        rc = main(["synth", "-o", str(tmp_path / "x"), "--dim", "100000", "--samples", "100000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array with " \
                      "shape (100000, 100000) and data type float64\n"

    def test_bad_attr_flag(self, tmp_path, capsys):
        assert main(["synth", "-o", str(tmp_path / "x"), "--attr", "kind"]) == 2
        assert "--attr needs" in capsys.readouterr().err
        assert main(["synth", "-o", str(tmp_path / "x"),
                     "--attr", "kind=lots"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-5"], "seed must be a non-negative integer, got -5"),
        (["--sparsity", "0.6", "--missing-frac", "0.5"],
         "sparsity asks for 7200 gross errors but missing_frac leaves only 6000 visible cells"),
        (["--attr", "kind=2", "--attr", "kind=3"], "--attr names 'kind' more than once"),
    ], ids=["negative-seed", "more-errors-than-visible-cells", "repeated-attr"])
    def test_invalid_spec_is_validation_error(self, tmp_path, capsys, flags, message):
        assert main(["synth", "-o", str(tmp_path / "x"), *flags]) == 2
        assert message in capsys.readouterr().err

    def test_attr_count_past_the_samples_is_refused_before_its_labels_are_built(self, tmp_path,
                                                                               capsys):
        """An --attr count larger than --samples exits 2 with SynthSpec's
        message before a label is built: a million labels would take ~145 MB
        (and a count of 1e9 all memory); the refusal takes a few MB."""
        tracemalloc.start()
        try:
            rc = main(["synth", "-o", str(tmp_path / "x"), "--attr", "a=1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: attribute 'a' has more instantiations than samples\n"
        assert peak < 4e6
        assert not (tmp_path / "x").exists()

    def test_an_instance_no_memory_holds_fails_before_its_labels_are_built(self, tmp_path,
                                                                          capsys, monkeypatch):
        """--dim and --samples of 1e9 admit 200000 instantiations, but the
        instance's 8e18-byte matrices fit no 64-bit address space: the
        first dim x samples allocation fails at once, touching no memory,
        and exits 2 before the attribute's labels are built."""
        names = []
        schema_of = AttributeSchema.of

        def spy(pairs):
            pairs = list(pairs)
            names.extend(name for name, _ in pairs)
            return schema_of(pairs)

        monkeypatch.setattr(AttributeSchema, "of", spy)
        rc = main(["synth", "-o", str(tmp_path / "x"), "--dim", "1000000000",
                   "--samples", "1000000000", "--attr", "a=200000"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate ")
        assert "a" not in names
        assert not (tmp_path / "x").exists()

    def test_more_bytes_than_an_address_space_is_out_of_memory(self, tmp_path, capsys):
        rc = main(["synth", "-o", str(tmp_path / "x"), "--dim", "10000000000",
                   "--samples", "10000000000"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: out of memory: array is too big")


class TestTrain:
    def test_bundle_is_loadable_and_echoes_flags(self, workspace):
        bundle = load_bundle(workspace / "bundle")
        assert bundle.config.t_max == 40
        assert bundle.config.mu0_scale == 25.0
        assert bundle.individual.shape == (30, 18)
        cfg_doc = json.loads((workspace / "bundle" / "config.json").read_text())
        assert cfg_doc["t_max"] == 40
        assert cfg_doc["seed"] == 0

    def test_console_summary_and_warning(self, workspace, tmp_path, capsys):
        rc = main(["train", str(workspace / "data" / "manifest.json"),
                   "-o", str(tmp_path / "b"), "--t-max", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "iterations=3" in captured.out
        assert "residual=" in captured.out
        assert "warning: stopped at t_max=3" in captured.err

    def test_stalled_run_warns_without_blaming_t_max(self, workspace, tmp_path, capsys):
        rc = main(["train", str(workspace / "data" / "manifest.json"),
                   "-o", str(tmp_path / "b")])
        assert rc == 0
        err = capsys.readouterr().err
        bundle = load_bundle(tmp_path / "b")
        assert not bundle.diagnostics.converged
        assert bundle.diagnostics.iterations < 1000
        assert f"warning: stalled at iteration {bundle.diagnostics.iterations}" in err
        assert "t_max" not in err

    def test_seed_controls_basis_init(self, workspace, tmp_path):
        manifest = str(workspace / "data" / "manifest.json")
        for name, seed in (("b5", "5"), ("b5again", "5"), ("b6", "6")):
            assert main(["train", manifest, "-o", str(tmp_path / name),
                         "--t-max", "2", "--seed", seed]) == 0
        same = load_bundle(tmp_path / "b5"), load_bundle(tmp_path / "b5again")
        assert np.array_equal(same[0].bases[0], same[1].bases[0])
        other = load_bundle(tmp_path / "b6")
        assert not np.array_equal(same[0].bases[0], other.bases[0])

    def test_non_string_sample_path_is_format_error(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "data" / "manifest.json").read_text())
        doc["samples"][0]["data"] = 5
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        rc = main(["train", str(manifest), "-o", str(tmp_path / "b")])
        assert rc == 3
        assert "sample 0 'data' and 'mask' must be path strings" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, scaled, cause", [
        pytest.param(1e150, None, "procrustes Gram overflows float64", id="1e+150"),
        pytest.param(1e160, None, "the norm of the training matrix overflows float64",
                     id="1e+160"),
        pytest.param(1e200, 3, "the norm of the training matrix overflows float64",
                     id="one-sample-1e+200"),
    ])
    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys, scale, scaled, cause):
        """Samples scaled so that a Gram matrix of the basis step overflows
        (every sample by 1e150), or the norm of the training matrix does
        (every sample by 1e160, or sample `scaled` alone set to 1e200 in
        every entry): exit 4, naming that cause, with no numpy warning."""
        ts, _ = generate(dataclasses.replace(default_spec(), dim=30, count=12, seed=1))
        entries = []
        for n in range(ts.count):
            x = ts.X[:, n] * scale if scaled is None else ts.X[:, n]
            write_vector(tmp_path / f"s{n}.marc", np.full(ts.dim, scale) if n == scaled else x)
            labels = {ts.schema.name(i): ts.schema.labels(i)[ts.label_index[i][n]]
                      for i in range(ts.schema.count)}
            entries.append({"data": f"s{n}.marc", "mask": None, "labels": labels})
        write_manifest(tmp_path / "manifest.json", ts.schema, entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", str(tmp_path / "manifest.json"), "-o", str(tmp_path / "b"),
                       "--t-max", "50"])
        assert rc == 4
        assert f"training diverged at iteration 0: {cause}" in capsys.readouterr().err

    def test_negative_seed_is_validation_error(self, workspace, tmp_path, capsys):
        rc = main(["train", str(workspace / "data" / "manifest.json"),
                   "-o", str(tmp_path / "b"), "--seed", "-1"])
        assert rc == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "nope.json"), "-o", str(tmp_path / "b")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_report_outputs(self, workspace, tmp_path, capsys):
        rc = main(["eval", "-b", str(workspace / "bundle"),
                   "--truth", str(workspace / "data" / "truth"),
                   "--out-json", str(tmp_path / "r.json"),
                   "--out-txt", str(tmp_path / "r.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean_rel_err_observed=" in out
        assert "support_f1=" in out
        doc = json.loads((tmp_path / "r.json").read_text())
        assert set(doc) == {"clean_rel_err_observed", "clean_rel_err_overall",
                            "support_precision", "support_recall",
                            "support_f1", "subspace_angles"}
        assert (tmp_path / "r.txt").read_text() == out

    @pytest.mark.parametrize("flag", ["--out-json", "--out-txt"])
    def test_unwritable_report_is_io_error(self, workspace, tmp_path, capsys, flag):
        (tmp_path / "taken").mkdir()
        for target in (tmp_path / "taken", tmp_path / "missing" / "r"):
            rc = main(["eval", "-b", str(workspace / "bundle"),
                       "--truth", str(workspace / "data" / "truth"), flag, str(target)])
            assert rc == 3
            assert "error: [Errno " in capsys.readouterr().err

    def test_malformed_truth_selectors_are_format_error(self, workspace, tmp_path, capsys):
        truth = tmp_path / "truth"
        shutil.copytree(workspace / "data" / "truth", truth)
        first, second = load_truth(truth).bank.selectors
        write_matrix(tmp_path / "first.marc", first[:-1])  # one row short
        write_matrix(tmp_path / "second.marc", second)
        (truth / "selectors.marc").write_bytes(
            (tmp_path / "first.marc").read_bytes() + (tmp_path / "second.marc").read_bytes())
        rc = main(["eval", "-b", str(workspace / "bundle"), "--truth", str(truth)])
        assert rc == 3
        assert "record 0 has shape (1, 2), expected (2, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("name, cut, message", [
        ("basis_0.marc", lambda m: m[:-5], "basis_0.marc has shape (25, 2), expected (30, 2)"),
        ("mask.marc", lambda m: m[:-1], "mask.marc has shape (29, 18), expected (30, 18)"),
    ], ids=["basis-5-rows-short", "mask-1-row-short"])
    def test_truncated_truth_matrix_is_format_error(self, workspace, tmp_path, capsys,
                                                    name, cut, message):
        truth = tmp_path / "truth"
        shutil.copytree(workspace / "data" / "truth", truth)
        write_matrix(truth / name, cut(read_matrix(truth / name)))
        rc = main(["eval", "-b", str(workspace / "bundle"), "--truth", str(truth)])
        assert rc == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("label", [1.5, True], ids=["float", "bool"])
    def test_non_integer_truth_label_is_format_error(self, workspace, tmp_path, capsys, label):
        truth = tmp_path / "truth"
        shutil.copytree(workspace / "data" / "truth", truth)
        doc = json.loads((truth / "assignments.json").read_text())
        doc["assignments"][1][0] = label
        (truth / "assignments.json").write_text(json.dumps(doc))
        rc = main(["eval", "-b", str(workspace / "bundle"), "--truth", str(truth)])
        assert rc == 3
        assert "assignments[1] must hold 18 labels in [0, 3) as JSON integers" \
            in capsys.readouterr().err


NON_FINITE_CASES = [
    (command, where, name)
    for command, where in (("complete", "bundle"), ("eval", "bundle"), ("eval", "truth"))
    for name in ("basis_0.marc", "selectors.marc", "individual.marc", "error.marc")
] + [("eval", "truth", "data.marc"), ("eval", "truth", "g_singulars.marc")]


def run_on_a_copy(workspace, tmp_path, command, where, edit):
    """Run `command` ("complete" or "eval") on the workspace's bundle and
    truth directory, after `edit(directory)` on a copy of the `where` one."""
    dirs = {"bundle": workspace / "bundle", "truth": workspace / "data" / "truth"}
    shutil.copytree(dirs[where], tmp_path / where)
    dirs[where] = tmp_path / where
    edit(dirs[where])
    sample = workspace / "data" / "samples" / "sample_0001.marc"
    argv = {"complete": ["complete", "-b", str(dirs["bundle"]), "-i", str(sample),
                         "-o", str(tmp_path / "out.marc")],
            "eval": ["eval", "-b", str(dirs["bundle"]), "--truth", str(dirs["truth"])]}[command]
    return main(argv)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command, where, name", NON_FINITE_CASES,
                         ids=["-".join(case) for case in NON_FINITE_CASES])
def test_non_finite_factor_is_format_error(workspace, tmp_path, capsys, command, where,
                                           name, value):
    """A NaN or inf in a factor file of a bundle or a truth directory, or in
    a truth directory's data or planted singular values, is refused on load
    with exit 3, naming the file. It used to end in an SVD (LinAlgError) or
    IndexError traceback, or in an eval report of inf or of the bad data."""
    def poke(directory):
        path = directory / name
        payload = bytearray(path.read_bytes())  # first entry of the (first record's) payload
        payload[_HEADER.size:_HEADER.size + 8] = np.array(value, dtype="<f8").tobytes()
        path.write_bytes(bytes(payload))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_on_a_copy(workspace, tmp_path, command, where, poke) == 3
    err = capsys.readouterr().err
    assert f"{name}{': record 0' if name == 'selectors.marc' else ''}: non-finite entries" in err
    assert not (tmp_path / "out.marc").exists()


SCHEMA_FAULTS = {
    "no-instantiations": (lambda attr: attr.pop("instantiations"),
                          "malformed schema mapping: 'instantiations'"),
    "integer-name": (lambda attr: attr.update(name=5),
                     "attribute names must be non-empty strings, got 5"),
    "integer-labels": (lambda attr: attr.update(instantiations=[1, 2]),
                       "attribute 'kind': instantiation labels must be strings, got 1"),
}


@pytest.mark.parametrize("fault", SCHEMA_FAULTS)
@pytest.mark.parametrize("command, where", [("complete", "bundle"), ("eval", "bundle"),
                                            ("eval", "truth")])
def test_bad_schema_is_format_error(workspace, tmp_path, capsys, command, where, fault):
    """A schema.json that AttributeSchema refuses is a file fault of its
    bundle or truth directory: exit 3, naming the file. A missing
    "instantiations" used to exit 2 without a path, and integer names or
    labels used to load."""
    change, message = SCHEMA_FAULTS[fault]

    def edit(directory):
        doc = json.loads((directory / "schema.json").read_text())
        change(doc["attributes"][0])
        (directory / "schema.json").write_text(json.dumps(doc))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_on_a_copy(workspace, tmp_path, command, where, edit) == 3
    path = tmp_path / where / "schema.json"
    assert capsys.readouterr().err == f"error: {path}: bad schema: {message}\n"
    assert not (tmp_path / "out.marc").exists()


class TestCompleteAndTransfer:
    def test_single_vector_round(self, workspace, tmp_path, capsys):
        sample = workspace / "data" / "samples" / "sample_0000.marc"
        mask = workspace / "data" / "samples" / "sample_0000_mask.marc"
        out = tmp_path / "filled.marc"
        rc = main(["complete", "-b", str(workspace / "bundle"),
                   "-i", str(sample), "-m", str(mask), "-o", str(out),
                   "--t-max", "60"])
        assert rc == 0
        assert "sample_0000.marc: iterations=" in capsys.readouterr().out
        filled = read_vector(out)
        assert filled.shape == (30,)
        assert np.all(np.isfinite(filled))

    def test_unwritable_output_is_io_error(self, workspace, tmp_path, capsys):
        sample = workspace / "data" / "samples" / "sample_0000.marc"
        (tmp_path / "taken.marc").mkdir()
        for out in (tmp_path / "taken.marc", tmp_path / "missing" / "filled.marc"):
            rc = main(["complete", "-b", str(workspace / "bundle"),
                       "-i", str(sample), "-o", str(out), "--t-max", "60"])
            assert rc == 3
            assert "error: [Errno " in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_unconverged_vector_names_the_reason(self, workspace, tmp_path, capsys):
        # Dense out-of-model noise: a vector the model fits exactly apart
        # from a few gross errors would be decoded and certified at step 1.
        y = read_vector(workspace / "data" / "samples" / "sample_0000.marc")
        sample = tmp_path / "sample_0000.marc"
        write_vector(sample, y + np.random.default_rng(4).standard_normal(y.size) * 0.05)
        rc = main(["complete", "-b", str(workspace / "bundle"), "-i", str(sample),
                   "-o", str(tmp_path / "filled.marc"), "--t-max", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("sample_0000.marc: iterations=1 ")
        assert out.endswith(" (did not converge: t_max)\n")

    def test_directory_fan_out_is_deterministic(self, workspace, tmp_path):
        vec_dir = tmp_path / "in"
        mask_dir = tmp_path / "masks"
        vec_dir.mkdir()
        mask_dir.mkdir()
        rng = np.random.default_rng(2)
        for n in range(3):
            write_vector(vec_dir / f"v{n}.marc", rng.standard_normal(30))
            write_vector(mask_dir / f"v{n}.marc",
                         (rng.random(30) >= 0.3).astype(float))
        outs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            rc = main(["complete", "-b", str(workspace / "bundle"),
                       "-i", str(vec_dir), "-m", str(mask_dir),
                       "-o", str(out_dir), "--t-max", "40"])
            assert rc == 0
            outs.append([read_vector(out_dir / f"v{n}.marc") for n in range(3)])
        for a, b in zip(*outs):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("command, extra, masked", [
        ("complete", [], True), ("transfer", ["-t", "tone=tone_2"], True),
        ("complete", [], False)],
        ids=["complete", "transfer", "complete-no-mask"])
    def test_directory_agrees_with_single_file_runs(self, workspace, tmp_path, capsys,
                                                    command, extra, masked):
        """A directory is solved in blocks; each output matches the file run
        alone to 1e-12, and the lines come in name order with the same
        iteration counts. Five files, one all zero, with their own masks, or
        with none, so that every column of the block sees every entry."""
        vec_dir, mask_dir = tmp_path / "in", tmp_path / "masks"
        vec_dir.mkdir()
        mask_dir.mkdir()
        samples = workspace / "data" / "samples"
        names = [f"sample_{n:04d}.marc" for n in (4, 0, 9, 2)]
        for name in names:
            shutil.copy(samples / name, vec_dir / name)
            shutil.copy(samples / name.replace(".marc", "_mask.marc"), mask_dir / name)
        write_vector(vec_dir / "zero.marc", np.zeros(30))
        write_vector(mask_dir / "zero.marc", np.ones(30))
        names = sorted(names + ["zero.marc"])
        bundle = str(workspace / "bundle")
        masks = ["-m", str(mask_dir)] if masked else []
        assert main([command, "-b", bundle, "-i", str(vec_dir), *masks,
                     "-o", str(tmp_path / "all"), *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == names
        for name, line in zip(names, lines):
            out = tmp_path / f"one_{name}"
            mask = ["-m", str(mask_dir / name)] if masked else []
            assert main([command, "-b", bundle, "-i", str(vec_dir / name), *mask,
                         "-o", str(out), *extra]) == 0
            alone = capsys.readouterr().out.strip()
            assert line.split()[1] == alone.split()[1]  # iterations=N
            got, want = read_vector(tmp_path / "all" / name), read_vector(out)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_wrong_length_vector_in_directory_names_it(self, workspace, tmp_path, capsys):
        vec_dir = tmp_path / "in"
        vec_dir.mkdir()
        samples = workspace / "data" / "samples"
        shutil.copy(samples / "sample_0000.marc", vec_dir / "a.marc")
        write_vector(vec_dir / "b.marc", np.ones(29))
        rc = main(["complete", "-b", str(workspace / "bundle"), "-i", str(vec_dir),
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "b.marc: input vector has length 29, expected 30" in err
        assert not (tmp_path / "out").exists()  # checked before any solve

    def test_overflowing_vector_past_the_first_block_names_it(self, workspace, tmp_path, capsys):
        """70 files are solved as blocks of 35; the overflowing one sits in
        the second block. It is found with the other input checks: exit 4,
        its file named, no output written and no numpy warning."""
        vec_dir = tmp_path / "in"
        vec_dir.mkdir()
        rng = np.random.default_rng(5)
        for n in range(70):
            write_vector(vec_dir / f"v{n:03d}.marc", rng.standard_normal(30))
        write_vector(vec_dir / "v066.marc", 1e200 * rng.standard_normal(30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["complete", "-b", str(workspace / "bundle"), "-i", str(vec_dir),
                       "-o", str(tmp_path / "out")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "the observed norm of " + str(vec_dir / "v066.marc") + " overflows float64" in err
        assert not (tmp_path / "out").exists()

    def test_a_directory_is_checked_once(self, workspace, tmp_path, monkeypatch):
        """70 files are solved as two slices of 35, but their values are
        checked and their observed norms taken once, on all 70 together."""
        vec_dir = tmp_path / "in"
        vec_dir.mkdir()
        rng = np.random.default_rng(6)
        for n in range(70):
            write_vector(vec_dir / f"v{n:03d}.marc", rng.standard_normal(30))
        calls = {"check_observed": [], "checked_norms": []}

        def spy(module, name):
            original = getattr(module, name)

            def counted(values, *args, **kwargs):
                calls[name].append(np.shape(values))
                return original(values, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(reconstructor, "check_observed")
        spy(reconstructor, "checked_norms")
        assert main(["complete", "-b", str(workspace / "bundle"), "-i", str(vec_dir),
                     "-o", str(tmp_path / "out"), "--t-max", "5"]) == 0
        assert calls == {"check_observed": [(30, 70)], "checked_norms": [(70, 30)]}
        assert len(list((tmp_path / "out").iterdir())) == 70

    def test_missing_mask_file_in_directory_is_io_error(self, workspace, tmp_path, capsys):
        vec_dir, mask_dir = tmp_path / "in", tmp_path / "masks"
        vec_dir.mkdir()
        mask_dir.mkdir()
        samples = workspace / "data" / "samples"
        for name in ("a.marc", "b.marc"):
            shutil.copy(samples / "sample_0000.marc", vec_dir / name)
        shutil.copy(samples / "sample_0000_mask.marc", mask_dir / "a.marc")
        rc = main(["complete", "-b", str(workspace / "bundle"), "-i", str(vec_dir),
                   "-m", str(mask_dir), "-o", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "b.marc" in err

    @pytest.mark.parametrize("fault", ["missing input", "directory mask"])
    def test_unreadable_file_is_io_error(self, workspace, tmp_path, capsys, fault):
        sample = workspace / "data" / "samples" / "sample_0000.marc"
        if fault == "missing input":
            sample, mask = tmp_path / "absent.marc", None
            errno = "[Errno 2] No such file or directory"
        else:
            mask, errno = tmp_path / "masks.marc", "[Errno 21] Is a directory"
            mask.mkdir()
        masks = ["-m", str(mask)] if mask else []
        rc = main(["complete", "-b", str(workspace / "bundle"), "-i", str(sample), *masks,
                   "-o", str(tmp_path / "out.marc")])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {errno}: '{mask or sample}'\n"
        assert not (tmp_path / "out.marc").exists()

    def test_empty_directory(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["complete", "-b", str(workspace / "bundle"),
                   "-i", str(empty), "-o", str(tmp_path / "out")])
        assert rc == 2
        assert "no matrix files" in capsys.readouterr().err

    def test_directory_listing_rule(self, workspace, tmp_path, capsys):
        """A directory run takes the files, and the symlinks to files, whose
        suffix is .marc or .csv in any case, in name order, and writes an
        output of the same name for each. Other files, a directory named
        like a matrix, a broken symlink and a dot file with no suffix are
        left alone: reading any of them would fail the run."""
        vec_dir = tmp_path / "in"
        vec_dir.mkdir()
        sample = workspace / "data" / "samples" / "sample_0000.marc"
        y = read_vector(sample)
        for name in ("a.marc", "B.MARC", "c.csv"):
            write_vector(vec_dir / name, y)
        (vec_dir / "notes.txt").write_text("not a matrix\n")
        (vec_dir / ".marc").write_bytes(b"JUNK")
        (vec_dir / "sub.marc").mkdir()
        (vec_dir / "link.marc").symlink_to(sample)
        (vec_dir / "x.marc").symlink_to(tmp_path / "missing.marc")
        out = tmp_path / "out"
        assert main(["complete", "-b", str(workspace / "bundle"), "-i", str(vec_dir),
                     "-o", str(out)]) == 0
        names = ["B.MARC", "a.marc", "c.csv", "link.marc"]
        assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == names
        assert sorted(p.name for p in out.iterdir()) == names
        want = read_vector(out / "a.marc")
        for name in names:
            assert np.array_equal(read_vector(out / name), want)

    @pytest.mark.parametrize("where", ["in", "in/", ".", "./"])
    def test_a_relative_directory_names_its_files_as_joined(self, workspace, tmp_path, capsys,
                                                           monkeypatch, where):
        """Files of a relative input directory, with or without a trailing
        slash, are named in messages under the directory as given, and
        under no prefix for the working directory itself."""
        vec_dir = tmp_path / "in"
        vec_dir.mkdir()
        shutil.copy(workspace / "data" / "samples" / "sample_0000.marc", vec_dir / "a.marc")
        write_vector(vec_dir / "b.marc", np.ones(29))
        monkeypatch.chdir(tmp_path if where.startswith("in") else vec_dir)
        rc = main(["complete", "-b", str(workspace / "bundle"), "-i", where,
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        prefix = "in/" if where.startswith("in") else ""
        assert capsys.readouterr().err == (
            f"error: {prefix}b.marc: input vector has length 29, expected 30\n")

    @pytest.mark.parametrize("name, content, status, message", [
        ("bad.marc", b"JUNKJUNKJUNK", 3, "truncated header"),
        ("empty.csv", b"", 3, "empty matrix"),
        ("huge.marc", np.full(30, 1e200), 4, "overflows float64"),
    ], ids=["junk", "empty-csv", "overflowing-norm"])
    def test_a_bad_input_file_is_refused(self, workspace, tmp_path, capsys, name, content,
                                         status, message):
        """A single input file that holds no matrix (`content` its bytes,
        exit 3), or a vector whose finite entries' norm overflows float64
        (`content` that vector, exit 4), is refused with one line naming the
        file and the fault, no numpy warning and no output."""
        bad = tmp_path / name
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            write_vector(bad, content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["complete", "-b", str(workspace / "bundle"),
                       "-i", str(bad), "-o", str(tmp_path / "out.marc")])
        assert rc == status
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and message in err
        assert not (tmp_path / "out.marc").exists()

    def test_inconsistent_bundle_is_format_error(self, workspace, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(workspace / "bundle", bundle)
        basis = read_matrix(bundle / "basis_0.marc")
        write_matrix(bundle / "basis_0.marc", basis[:-5])
        sample = workspace / "data" / "samples" / "sample_0001.marc"
        rc = main(["complete", "-b", str(bundle), "-i", str(sample),
                   "-o", str(tmp_path / "out.marc")])
        assert rc == 3
        assert "basis_0.marc has shape (25, 2), expected (30, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key, value", [
        ("diagnostics", "iterations", "many"),
        ("diagnostics", "stop_reason", 5),
        ("diagnostics", "residual_history", "x"),
        ("config", "rho", "fast"),
        ("config", "t_max", -3),
        ("config", "mu0_norm", "frobenius"),
        pytest.param("diagnostics", None, b'{"iterations": "\xff"}', id="diagnostics-byte-ff"),
        pytest.param("config", None, b"[" * 200_000, id="config-nested-200000"),
        pytest.param("config", None, b'{"seed": ' + b"9" * 5000 + b"}", id="config-5000-digits"),
        *(pytest.param("diagnostics", "residual_history[-1]", entry, id=f"diagnostics-history-{name}")
          for name, entry in (("true", True), ("string", "x"), ("null", None), ("list", [1.0]))),
    ])
    def test_corrupt_record_is_format_error(self, workspace, tmp_path, capsys, name, key, value):
        """A record of the bundle with a bad field, or whose bytes do not
        decode as JSON (key None: the file holds `value`), fails `marc
        complete` and `marc eval` alike with exit 3, naming the file. A key
        "<history>[-1]" sets that history's last entry, which must be an int
        or a float: true, "x", null and [1.0] are refused."""
        def edit(directory):
            path = directory / f"{name}.json"
            if key is None:
                path.write_bytes(value)
            else:
                doc = json.loads(path.read_text())
                if key.endswith("[-1]"):
                    doc[key[:-4]][-1] = value
                else:
                    doc[key] = value
                path.write_text(json.dumps(doc))

        fault = "invalid JSON: " if key is None else "bad "
        for command in ("complete", "eval"):
            assert run_on_a_copy(workspace, tmp_path / command, command, "bundle", edit) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: {tmp_path / command / 'bundle' / name}.json: {fault}")
            assert err.count("\n") == 1
            assert not (tmp_path / command / "out.marc").exists()

    def test_an_integer_history_entry_loads(self, workspace, tmp_path, capsys):
        """A history entry that JSON holds as an integer passes for a float:
        with 1 as the last residual, `marc complete` and `marc eval` run."""
        def edit(directory):
            path = directory / "diagnostics.json"
            doc = json.loads(path.read_text())
            doc["residual_history"][-1] = 1
            path.write_text(json.dumps(doc))

        for command in ("complete", "eval"):
            assert run_on_a_copy(workspace, tmp_path / command, command, "bundle", edit) == 0
        assert load_bundle(tmp_path / "eval" / "bundle").diagnostics.residual_history[-1] == 1

    def test_rank_wins_over_a_leftover_span_file(self, workspace, tmp_path):
        # Older versions cached a span in span.marc and used it whatever
        # --rank or --energy asked for.
        bundle = tmp_path / "bundle"
        shutil.copytree(workspace / "bundle", bundle)
        sample = workspace / "data" / "samples" / "sample_0000.marc"
        wide = np.linalg.qr(np.random.default_rng(5).standard_normal((30, 3)))[0]
        for flag, value in (("--rank", "1"), ("--energy", "0.5")):
            (bundle / "span.marc").unlink(missing_ok=True)
            args = ["complete", "-b", str(bundle), "-i", str(sample), flag, value,
                    "--t-max", "60"]
            assert main(args + ["-o", str(tmp_path / "plain.marc")]) == 0
            write_matrix(bundle / "span.marc", wide)
            assert main(args + ["-o", str(tmp_path / "leftover.marc")]) == 0
            assert np.array_equal(read_vector(tmp_path / "plain.marc"),
                                  read_vector(tmp_path / "leftover.marc"))

    def test_transfer_routes(self, workspace, tmp_path):
        """`marc transfer` writes bitwise what `synthesize` gives, under the
        pin, from the free result `reconstruct` gives for that file, on its
        span."""
        sample = workspace / "data" / "samples" / "sample_0001.marc"
        mask = workspace / "data" / "samples" / "sample_0001_mask.marc"
        out = tmp_path / "moved.marc"
        assert main(["transfer", "-b", str(workspace / "bundle"), "-i", str(sample),
                     "-m", str(mask), "--t-max", "60", "--target", "tone=tone_2",
                     "-o", str(out)]) == 0
        bundle = load_bundle(workspace / "bundle")
        config = ReconConfig(t_max=60)
        free = reconstruct(read_vector(sample), read_vector(mask), bundle, config=config)
        spec = TransferSpec.targets(bundle.schema, {"tone": "tone_2"})
        want = synthesize(bundle, spec, free.selectors, free.indiv_coeffs,
                          build_span(bundle, config.rank_rule))
        assert read_vector(out).tobytes() == want.tobytes()

    def test_transfer_validation(self, workspace, tmp_path, capsys):
        sample = workspace / "data" / "samples" / "sample_0001.marc"
        base = ["transfer", "-b", str(workspace / "bundle"),
                "-i", str(sample), "-o", str(tmp_path / "o.marc")]
        assert main(base + ["--target", "tone"]) == 2
        assert "--target needs" in capsys.readouterr().err
        assert main(base + ["--target", "flavor=tone_2"]) == 2

    def test_repeated_target_is_validation_error(self, workspace, tmp_path, capsys):
        sample = workspace / "data" / "samples" / "sample_0001.marc"
        rc = main(["transfer", "-b", str(workspace / "bundle"), "-i", str(sample),
                   "-o", str(tmp_path / "o.marc"), "-t", "tone=tone_2", "-t", "tone=tone_1"])
        assert rc == 2
        assert "--target names 'tone' more than once" in capsys.readouterr().err
        assert not (tmp_path / "o.marc").exists()

    def test_negative_seed_in_config_echo_is_format_error(self, workspace, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(workspace / "bundle", bundle)
        doc = json.loads((bundle / "config.json").read_text())
        doc["seed"] = -1
        (bundle / "config.json").write_text(json.dumps(doc))
        sample = workspace / "data" / "samples" / "sample_0001.marc"
        rc = main(["complete", "-b", str(bundle), "-i", str(sample),
                   "-o", str(tmp_path / "o.marc")])
        assert rc == 3
        assert "bad config echo: seed must be a non-negative integer, got -1" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("span", [["--rank", "3"], ["--energy", "0.9"]])
    def test_no_individual_excludes_span_flags(self, capsys, span):
        with pytest.raises(SystemExit) as stop:
            main(["complete", "-b", "b", "-i", "x.marc", "-o", "y.marc",
                  "--no-individual", *span])
        assert stop.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_no_individual_flag(self, workspace, tmp_path):
        sample = workspace / "data" / "samples" / "sample_0002.marc"
        rc = main(["complete", "-b", str(workspace / "bundle"),
                   "-i", str(sample), "-o", str(tmp_path / "o.marc"),
                   "--no-individual", "--t-max", "40"])
        assert rc == 0

    def test_rank_and_energy_are_exclusive(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["complete", "-b", str(workspace / "bundle"),
                  "-i", "x.marc", "-o", "y.marc",
                  "--rank", "2", "--energy", "0.9"])
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["train", "m.json", "-o", "b", "--mu0-norm", "spectral"],
        ["complete", "-b", "b", "-i", "x.marc", "-o", "y.marc", "--seed", "0"],
        ["transfer", "-b", "b", "-i", "x.marc", "-o", "y.marc", "-t", "a=b", "--seed", "0"],
        ["eval", "-b", "b", "--truth", "t", "--seed", "0"],
        ["transfer", "-b", "b", "-i", "x.marc", "-o", "y.marc", "-t", "a=b", "--post-hoc"],
    ], ids=["train-mu0-norm", "complete-seed", "transfer-seed", "eval-seed", "transfer-post-hoc"])
    def test_removed_flags_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOneCommandParser:
    """`main` builds the subparser of the command it runs alone; what it
    prints and how it exits are the full parser's."""

    @staticmethod
    def outcome(parse, argv, capsys):
        """The exit code, stdout and stderr of `parse(argv)`, which exits."""
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        out = capsys.readouterr()
        return stop.value.code, out.out, out.err

    @pytest.mark.parametrize("argv", [
        *([name, "-h"] for name in COMMANDS),
        ["train", "m.json"],
        ["complete", "-b", "b", "-i", "x.marc"],
        ["transfer", "-b", "b", "-i", "x.marc", "-o", "y.marc"],
        ["synth"],
        ["eval", "-b", "b"],
        ["train", "m.json", "-o", "b", "--t-max", "many"],
        ["synth", "-o", "x", "--dim", "1.5"],
        ["complete", "-b", "b", "-i", "x", "-o", "y", "--rank", "3", "--no-individual"],
        ["frobnicate", "-o", "x"],
        ["-h"],
        [],
    ], ids=[*(f"{name}-help" for name in COMMANDS), "train-no-output", "complete-no-output",
            "transfer-no-target", "synth-no-output", "eval-no-truth", "bad-int", "bad-dim",
            "exclusive-flags", "unknown-command", "help", "no-arguments"])
    def test_prints_and_exits_as_the_full_parser(self, capsys, monkeypatch, argv):
        want = self.outcome(build_parser().parse_args, argv, capsys)
        built = []
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: built.append(command) or full(command))
        assert self.outcome(main, argv, capsys) == want
        assert built == [argv[0] if argv and argv[0] in COMMANDS else None]
        assert want[0] == (0 if "-h" in argv else 2)


class TestDefaultsStayPinned:
    """The argparse defaults duplicate the config dataclass defaults; this
    keeps the two from drifting apart."""

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "m.json", "-o", "b"])
        cfg = SolverConfig()
        assert args.lam == cfg.lam
        assert args.eps == cfg.eps
        assert args.t_max == cfg.t_max
        assert args.rho == cfg.rho
        assert args.mu_max == cfg.mu_max
        assert args.mu0_scale == cfg.mu0_scale
        assert args.seed == cfg.seed

    def test_recon_defaults(self):
        args = build_parser().parse_args(
            ["complete", "-b", "b", "-i", "i", "-o", "o"])
        cfg = ReconConfig()
        assert args.lam == cfg.lam
        assert args.eps == cfg.eps
        assert args.t_max == cfg.t_max
        assert args.rho == cfg.rho
        assert args.mu_max == cfg.mu_max
        assert args.mu0_scale == cfg.mu0_scale
        assert args.rank is None and args.energy is None
        assert not args.no_individual


# The reconstructions of `TestRepeatRuns`, at one BLAS thread (set in the
# child's environment before numpy loads): runs one, two and three of
# complete and transfer over work/vectors, then a fourth from work/four by
# relative paths, then one-file runs on the zero and the fully hidden vector.
_REPEAT_RUN = """
import contextlib, os, sys
from pathlib import Path
from marc import cli

work = Path(sys.argv[1])
model, pin = str(work / "model"), ["-t", "attr2=b3"]

def run(log, command, *argv):
    with open(work / log, "w") as stream, contextlib.redirect_stdout(stream):
        assert cli.main([command, *argv]) == 0

inputs = ["-b", model, "-i", str(work / "vectors"), "-m", str(work / "masks")]
for name in ("one", "two", "three"):
    run(f"{name}.complete.txt", "complete", *inputs, "-o", str(work / name / "completed") + "/")
    run(f"{name}.transfer.txt", "transfer", *pin, *inputs,
        "-o", str(work / name / "transferred") + "/")
os.chdir(work / "four")
relative = ["-b", "../model", "-i", "vectors/", "-m", "masks/"]
run("four.complete.txt", "complete", *relative, "-o", "completed/")
run("four.transfer.txt", "transfer", *pin, *relative, "-o", "transferred/")
for v in ("zero", "hidden"):
    one = ["-b", model, "-i", str(work / "vectors" / f"{v}.marc"),
           "-m", str(work / "masks" / f"{v}.marc")]
    run(f"{v}.complete.txt", "complete", *one, "-o", str(work / f"{v}.completed.marc"))
    run(f"{v}.transfer.txt", "transfer", *pin, *one, "-o", str(work / f"{v}.transferred.marc"))
"""


def _files(root: Path) -> list[str]:
    """The files under `root`, as sorted paths relative to it."""
    return sorted(str(f.relative_to(root)) for f in root.rglob("*") if f.is_file())


class TestRepeatRuns:
    def test_repeat_reconstruction_of_a_directory_writes_the_same_files_bitwise(self, tmp_path):
        """Through a 20-step bundle of `marc synth --seed 7`, complete and
        transfer of one directory (its 60 samples, an all-zero vector and a
        fully hidden one, both of which take no step) at one BLAS thread:
        - runs one, two and three write the same files, byte for byte, and
          print the same lines; run three over longer junk files of the same
          names, each rewritten in place and trimmed to its new length;
        - so does a fourth run, on a copy of the inputs named relative to
          the working directory with a trailing slash, whose vector
          directory also holds a text file and a directory named like a
          matrix file: the listing passes over both;
        - the one-file runs of the zero and the hidden vector write the
          directory runs' bytes.
        And a second `marc synth` into one directory, over a larger
        instance's files, writes what a fresh one writes."""
        work = tmp_path
        data, vectors, masks = work / "data", work / "vectors", work / "masks"
        assert main(["synth", "-o", str(data), "--seed", "7"]) == 0
        assert main(["train", str(data / "manifest.json"), "-o", str(work / "model"),
                     "--t-max", "20"]) == 0
        vectors.mkdir()
        masks.mkdir()
        for vector in sorted((data / "samples").glob("sample_????.marc")):
            shutil.copy(vector, vectors)
            shutil.copy(vector.with_name(f"{vector.stem}_mask.marc"), masks / vector.name)
        y = read_vector(vectors / "sample_0001.marc")
        for path, v in ((vectors / "zero.marc", np.zeros_like(y)),
                        (masks / "zero.marc", np.ones_like(y)),
                        (vectors / "hidden.marc", y), (masks / "hidden.marc", np.zeros_like(y))):
            write_vector(path, v)
        inputs = sorted(f.name for f in vectors.glob("*.marc"))
        for part in ("completed", "transferred"):
            (work / "three" / part).mkdir(parents=True)
            for name in inputs:
                (work / "three" / part / name).write_bytes(bytes(100_000))
        shutil.copytree(vectors, work / "four" / "vectors")
        shutil.copytree(masks, work / "four" / "masks")
        (work / "four" / "vectors" / "notes.txt").write_text("not a matrix\n")
        (work / "four" / "vectors" / "sub.marc").mkdir()

        package = str(Path(marc.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
        child = subprocess.run([sys.executable, "-c", _REPEAT_RUN, str(work)],
                               env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        shutil.rmtree(work / "four" / "vectors")
        shutil.rmtree(work / "four" / "masks")

        one = work / "one"
        assert len(inputs) == 62
        assert sorted(f.name for f in (one / "transferred").glob("*.marc")) == inputs
        for run in ("two", "three", "four"):
            assert _files(one) == _files(work / run)
            for name in _files(one):
                assert (one / name).read_bytes() == (work / run / name).read_bytes(), (run, name)
            for command in ("complete", "transfer"):
                assert (work / f"one.{command}.txt").read_text() \
                    == (work / f"{run}.{command}.txt").read_text()
        for v in ("zero", "hidden"):
            for part in ("completed", "transferred"):
                assert (one / part / f"{v}.marc").read_bytes() \
                    == (work / f"{v}.{part}.marc").read_bytes()

        again = work / "again"
        assert main(["synth", "-o", str(again), "--seed", "8", "--dim", "300"]) == 0
        assert main(["synth", "-o", str(again), "--seed", "7"]) == 0
        assert _files(data) == _files(again)
        for name in _files(data):
            assert (data / name).read_bytes() == (again / name).read_bytes(), name


# One child's run in `TestBlasThreads`, its BLAS thread count set before numpy
# loads: complete and transfer the directory, complete and transfer sample 0003
# as one file, through `cli.main`, each command's lines kept in a text file; and
# reconstruct samples 0003, 0021 and 0042 alone, free and pinned, each result's
# arrays and record written as bytes. A one-file run takes the one-vector path,
# as these `reconstruct` calls do.
_THREADED_RUN = """
import contextlib, sys
from pathlib import Path
from marc import cli
from marc.formats import load_bundle, read_vector
from marc.reconstructor import TransferSpec, reconstruct

work, out = Path(sys.argv[1]), Path(sys.argv[2])
planted, vectors, masks = (str(work / name) for name in ("planted", "vectors", "masks"))
pin = ["-t", "attr2=b3"]

def run(log, command, *argv):
    with open(out / log, "w") as stream, contextlib.redirect_stdout(stream):
        assert cli.main([command, "-b", planted, *argv]) == 0

(out / "lone").mkdir(parents=True)
run("complete.txt", "complete", "-i", vectors, "-m", masks, "-o", str(out / "completed") + "/")
run("transfer.txt", "transfer", *pin, "-i", vectors, "-m", masks,
    "-o", str(out / "transferred") + "/")
one = ["-i", vectors + "/sample_0003.marc", "-m", masks + "/sample_0003.marc", "-o"]
run("single.txt", "complete", *one, str(out / "single.marc"))
run("single_transfer.txt", "transfer", *pin, *one, str(out / "single_transfer.marc"))
bundle = load_bundle(planted)
specs = {"free": TransferSpec.all_free(bundle.schema),
         "pinned": TransferSpec.targets(bundle.schema, {"attr2": "b3"})}
for n in ("0003", "0021", "0042"):
    y, w = (read_vector(work / part / f"sample_{n}.marc") for part in ("vectors", "masks"))
    for name, spec in specs.items():
        r = reconstruct(y, w, bundle, spec)
        fields = [*r.selectors, r.indiv_coeffs, r.sparse_error, r.reconstruction]
        (out / "lone" / f"{name}_{n}").write_bytes(
            b"".join(a.tobytes() for a in fields) + repr(r.diagnostics).encode())
"""


class TestBlasThreads:
    def test_certified_decoding_against_the_planted_model_is_bitwise_at_one_and_two_threads(
            self, tmp_path):
        """The planted factors of `marc synth --seed 7`, packaged as a
        bundle: runs at one and at two BLAS threads, each in a child process
        (`_THREADED_RUN`), write the same files, byte for byte, the lone
        reconstructions' included. Certified vectors take one step and leave
        no residual; every transfer certifies. A directory is solved as one
        block, whose normal maps come from another product: each output
        matches its one-file run to 1e-12 relative, not bitwise."""
        data = tmp_path / "data"
        assert main(["synth", "-o", str(data), "--seed", "7"]) == 0
        save_bundle(tmp_path / "planted", bundle_from_truth(load_truth(data / "truth")))
        for part in ("vectors", "masks"):
            (tmp_path / part).mkdir()
        for vector in sorted((data / "samples").glob("sample_????.marc")):
            shutil.copy(vector, tmp_path / "vectors")
            shutil.copy(vector.with_name(f"{vector.stem}_mask.marc"),
                        tmp_path / "masks" / vector.name)
        package = str(Path(marc.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"threads_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
            child = subprocess.run([sys.executable, "-c", _THREADED_RUN, str(tmp_path), str(out)],
                                   env=env, capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, child.stderr
            runs.append({str(f.relative_to(out)): f.read_bytes()
                         for f in sorted(out.rglob("*")) if f.is_file()})
        one, two = runs
        assert sorted(one) == sorted(two)
        for name in one:
            assert one[name] == two[name], name
        assert len([name for name in one if name.startswith("lone")]) == 6
        assert one["complete.txt"].count(b"iterations=1 residual=0.000e+00") >= 1
        assert one["transfer.txt"].count(b"iterations=1 residual=0.000e+00") == 60
        assert one["single.txt"] == b"sample_0003.marc: iterations=1 residual=0.000e+00\n"
        out = tmp_path / "threads_1"
        for block, alone in (("completed", "single.marc"), ("transferred", "single_transfer.marc")):
            got, want = read_vector(out / block / "sample_0003.marc"), read_vector(out / alone)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
