"""One rule for observed data behind every entry point: finite values, and a
strictly 0/1 mask of the data's shape (`dataset.check_observed`), after one
length rule (`dataset.check_input`). `marc train` names a sample at fault by
its file, whatever the fault."""
import re
import warnings

import numpy as np
import pytest

from conftest import bundle_from_truth
from marc import dataset
from marc.cli import main
from marc.dataset import AttributeSchema, Sample, TrainingSet, assemble, check_observed
from marc.errors import ValidationError
from marc.formats import save_bundle, write_manifest, write_vector
from marc.reconstructor import reconstruct, reconstruct_many
from marc.synthbench import SynthSpec, generate

SCHEMA = AttributeSchema.of([("kind", ["a", "b"])])
LABELS = ["a", "b", "a", "b"]
DIM, COUNT, BAD = 12, len(LABELS), 2  # every fault sits in column (sample, file) 2


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """A planted model of DIM dimensions, in memory and saved as a bundle."""
    spec = SynthSpec(schema=SCHEMA, dim=DIM, count=8, rank_g=1, sparsity=0.0,
                     missing_frac=0.0, seed=1)
    bundle = bundle_from_truth(generate(spec)[1])
    path = tmp_path_factory.mktemp("model") / "bundle"
    save_bundle(path, bundle)
    return bundle, path


def faulty(fault):
    """COUNT data columns and their masks, with `fault` put into column BAD.
    "short" cuts the last entry off column BAD's mask; an entry point that
    takes a block gets every mask cut, the block form of that fault."""
    X = np.random.default_rng(0).standard_normal((DIM, COUNT))
    W = np.ones((DIM, COUNT))
    W[0] = 0.0
    if fault == "nan":
        X[3, BAD] = np.nan
    elif fault == "inf":
        X[3, BAD] = np.inf
    elif fault == "half":
        W[1, BAD] = 0.5
    masks = list(W.T)
    if fault == "short":
        masks[BAD] = masks[BAD][:-1]
        W = W[:-1]
    return X, W, masks


def via_assemble(X, W, masks, model, tmp_path):
    assemble(SCHEMA, [Sample(X[:, n], {"kind": LABELS[n]}, masks[n]) for n in range(COUNT)])


def via_training_set(X, W, masks, model, tmp_path):
    TrainingSet(SCHEMA, X, W, (np.array([0, 1, 0, 1]),))


def via_reconstruct(X, W, masks, model, tmp_path):
    reconstruct(X[:, BAD], masks[BAD], model[0])


def via_reconstruct_many(X, W, masks, model, tmp_path):
    reconstruct_many(X, W, model[0])


def via_train(X, W, masks, model, tmp_path, bad_labels=None):
    """`marc train` on a manifest of sample files s<n>.marc; `bad_labels`,
    if given, replaces the labels of sample BAD."""
    entries = []
    for n in range(COUNT):
        write_vector(tmp_path / f"s{n}.marc", X[:, n])
        write_vector(tmp_path / f"m{n}.marc", masks[n])
        labels = bad_labels if n == BAD and bad_labels is not None else {"kind": LABELS[n]}
        entries.append({"data": f"s{n}.marc", "mask": f"m{n}.marc", "labels": labels})
    write_manifest(tmp_path / "manifest.json", SCHEMA, entries)
    return main(["train", str(tmp_path / "manifest.json"), "-o", str(tmp_path / "out")])


def via_complete(X, W, masks, model, tmp_path):
    for sub in ("in", "masks"):
        (tmp_path / sub).mkdir()
    for n in range(COUNT):
        write_vector(tmp_path / "in" / f"v{n}.marc", X[:, n])
        write_vector(tmp_path / "masks" / f"v{n}.marc", masks[n])
    return main(["complete", "-b", str(model[1]), "-i", str(tmp_path / "in"),
                 "-m", str(tmp_path / "masks"), "-o", str(tmp_path / "out")])


# What each entry point says about each fault: every one names the sample,
# the column or the file, except `reconstruct`, which has one vector only.
EXPECTED = {
    via_assemble: ("sample 2: non-finite entries",
                   "sample 2: mask must be strictly binary",
                   "sample 2: input mask has length 11, expected 12"),
    via_training_set: ("sample 2: non-finite entries",
                       "sample 2: mask must be strictly binary",
                       r"masks have shape \(11, 4\), which does not match \(12, 4\)"),
    via_reconstruct: ("^input vector contains non-finite entries",
                      "^input mask must be strictly binary",
                      "^input mask has length 11, expected 12"),
    via_reconstruct_many: ("column 2: input vector contains non-finite entries",
                           "column 2: input mask must be strictly binary",
                           r"input masks have shape \(11, 4\), which does not match \(12, 4\)"),
    via_train: ("^sample 's2.marc': non-finite entries",
                "^sample 's2.marc': mask must be strictly binary",
                "^sample 's2.marc': input mask has length 11, expected 12"),
    via_complete: ("v2.marc: input vector contains non-finite entries",
                   "v2.marc: input mask must be strictly binary",
                   "v2.marc: input mask has length 11, expected 12"),
}
FAULTS = {"nan": 0, "inf": 0, "half": 1, "short": 2}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("entry", EXPECTED, ids=lambda f: f.__name__[4:])
def test_every_entry_point_refuses_bad_observed_data(entry, fault, model, tmp_path, capsys):
    X, W, masks = faulty(fault)
    want = EXPECTED[entry][FAULTS[fault]]
    if entry in (via_train, via_complete):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entry(X, W, masks, model, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(want, err.removeprefix("error: "))
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
    else:
        with pytest.raises(ValidationError, match=want):
            entry(X, W, masks, model, tmp_path)


LABEL_FAULTS = {
    "unknown label": ({"kind": "c"}, "unknown instantiation 'c' for attribute 'kind'"),
    "missing label": ({}, "missing label for attribute 'kind'"),
    "unknown attribute": ({"kind": "b", "tint": "x"}, "unknown attribute 'tint'"),
}


@pytest.mark.parametrize("fault", LABEL_FAULTS)
def test_train_names_a_sample_with_bad_labels_by_its_file(fault, model, tmp_path, capsys):
    labels, want = LABEL_FAULTS[fault]
    X, W, masks = faulty(None)
    assert via_train(X, W, masks, model, tmp_path, labels) == 2
    assert capsys.readouterr().err == f"error: sample 's2.marc': {want}\n"
    assert not (tmp_path / "out").exists()


def test_train_resolves_each_label_and_checks_the_values_once(model, tmp_path, monkeypatch):
    """One `marc train` resolves every label of every sample once and runs
    the value rule once, on the assembled matrix."""
    calls = {"inst_index": 0, "check_observed": 0}
    inst_index, check_observed = AttributeSchema.inst_index, dataset.check_observed

    def counted_inst_index(*args):
        calls["inst_index"] += 1
        return inst_index(*args)

    def counted_check_observed(*args, **kwargs):
        calls["check_observed"] += 1
        return check_observed(*args, **kwargs)

    monkeypatch.setattr(AttributeSchema, "inst_index", counted_inst_index)
    monkeypatch.setattr(dataset, "check_observed", counted_check_observed)
    X, W, masks = faulty(None)
    assert via_train(X, W, masks, model, tmp_path) == 0
    assert calls == {"inst_index": COUNT * SCHEMA.count, "check_observed": 1}


def test_the_first_column_at_fault_is_named_whatever_its_fault():
    X, W = np.ones((3, 4)), np.ones((3, 4))
    X[0, 3] = np.nan
    W[2, 1] = 0.5
    with pytest.raises(ValidationError, match="^file 1: mask must be strictly binary"):
        check_observed(X, W, lambda c: f"file {c}")
    W[2, 1] = 1.0
    with pytest.raises(ValidationError, match="^file 3: data contains non-finite entries$"):
        check_observed(X, W, lambda c: f"file {c}", data="data")
    got_X, got_W = check_observed(np.ones((3, 4)), None)
    assert got_W.dtype == np.float64 and np.array_equal(got_W, np.ones((3, 4)))
