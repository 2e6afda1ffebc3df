"""Schema, assembly, and selector-bank container behavior."""
import numpy as np
import pytest

from marc.dataset import (
    AttributeSchema,
    Sample,
    SelectorBank,
    TrainingSet,
    assemble,
    columns_of,
    materialize_h,
)
from marc.errors import ValidationError


def two_attr_schema():
    return AttributeSchema.of([("shape", ["round", "square"]),
                               ("tint", ["warm", "cool"])])


class TestAttributeSchema:
    def test_lookup(self):
        schema = two_attr_schema()
        assert schema.count == 2
        assert schema.name(1) == "tint"
        assert schema.labels(0) == ("round", "square")
        assert schema.size(1) == 2
        assert schema.attr_index("tint") == 1
        assert schema.inst_index(0, "square") == 1

    def test_unknown_names(self):
        schema = two_attr_schema()
        with pytest.raises(ValidationError, match="unknown attribute 'color'"):
            schema.attr_index("color")
        with pytest.raises(ValidationError,
                           match="unknown instantiation 'oval' for attribute 'shape'"):
            schema.inst_index(0, "oval")

    def test_construction_validation(self):
        with pytest.raises(ValidationError, match="unique"):
            AttributeSchema.of([("a", ["x"]), ("a", ["y"])])
        with pytest.raises(ValidationError, match="duplicate"):
            AttributeSchema.of([("a", ["x", "x"])])
        with pytest.raises(ValidationError, match="no instantiations"):
            AttributeSchema.of([("a", [])])
        with pytest.raises(ValidationError, match="non-empty"):
            AttributeSchema.of([("", ["x"])])
        with pytest.raises(ValidationError, match="names must be non-empty strings, got 5"):
            AttributeSchema.of([(5, ["x"])])
        with pytest.raises(ValidationError, match="'a': instantiation labels must be strings, got 1"):
            AttributeSchema.of([("a", ["x", 1])])

    def test_empty_schema_is_legal(self):
        schema = AttributeSchema.of([])
        assert schema.count == 0

    def test_dict_round_trip(self):
        schema = two_attr_schema()
        assert AttributeSchema.from_dict(schema.to_dict()) == schema
        with pytest.raises(ValidationError, match="malformed"):
            AttributeSchema.from_dict({"attributes": [{"name": "a"}]})


class TestAssemble:
    def test_happy_path(self):
        schema = two_attr_schema()
        rng = np.random.default_rng(1)
        samples = []
        for shape in ("round", "square"):
            for tint in ("warm", "cool"):
                samples.append(Sample(rng.standard_normal(5),
                                      {"shape": shape, "tint": tint}))
        ts = assemble(schema, samples)
        assert ts.X.shape == (5, 4)
        assert np.array_equal(ts.W, np.ones((5, 4)))
        assert ts.label_index[0].tolist() == [0, 0, 1, 1]
        assert ts.label_index[1].tolist() == [0, 1, 0, 1]
        assert ts.dim == 5 and ts.count == 4
        assert ts.visible.dtype == bool

    def test_error_messages_name_the_sample(self):
        schema = AttributeSchema.of([("kind", ["a", "b"])])
        good = Sample(np.zeros(4), {"kind": "a"})
        with pytest.raises(ValidationError, match="sample 1: input vector has length 3, expected 4"):
            assemble(schema, [good, Sample(np.zeros(3), {"kind": "b"})])
        with pytest.raises(ValidationError, match="^sample 's1.marc': input vector has length 3"):
            assemble(schema, [good, Sample(np.zeros(3), {"kind": "b"}, name="s1.marc")])
        with pytest.raises(ValidationError, match="sample 1: non-finite"):
            assemble(schema, [good, Sample(np.array([1.0, np.nan, 0, 0]), {"kind": "b"})])
        with pytest.raises(ValidationError, match="sample 1: mask"):
            assemble(schema, [good, Sample(np.zeros(4), {"kind": "b"},
                                           mask=np.array([1.0, 0.5, 0, 0]))])
        with pytest.raises(ValidationError, match="sample 1: missing label"):
            assemble(schema, [good, Sample(np.zeros(4), {})])
        with pytest.raises(ValidationError,
                           match="sample 1: unknown instantiation 'c'"):
            assemble(schema, [good, Sample(np.zeros(4), {"kind": "c"})])
        with pytest.raises(ValidationError, match="sample 1: unknown attribute"):
            assemble(schema, [good, Sample(np.zeros(4), {"kind": "b", "tint": "x"})])

    def test_empty_instantiation_rejected(self):
        schema = AttributeSchema.of([("kind", ["a", "b"])])
        with pytest.raises(ValidationError,
                           match="instantiation 'b' of attribute 'kind' has no samples"):
            assemble(schema, [Sample(np.zeros(4), {"kind": "a"})])

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValidationError, match="empty sample list"):
            assemble(two_attr_schema(), [])

    def test_mask_columns_collected(self):
        schema = AttributeSchema.of([("kind", ["a"])])
        m0 = np.array([1.0, 0.0, 1.0])
        samples = [Sample(np.ones(3), {"kind": "a"}, mask=m0),
                   Sample(np.ones(3), {"kind": "a"})]
        ts = assemble(schema, samples)
        assert np.array_equal(ts.W[:, 0], m0)
        assert np.array_equal(ts.W[:, 1], np.ones(3))


class TestTrainingSet:
    def test_direct_construction_validation(self):
        schema = AttributeSchema.of([("kind", ["a", "b"])])
        X = np.ones((3, 4))
        W = np.ones((3, 4))
        idx = (np.array([0, 1, 0, 1]),)
        TrainingSet(schema, X, W, idx)  # fine
        with pytest.raises(ValidationError, match="binary"):
            TrainingSet(schema, X, W * 0.5, idx)
        with pytest.raises(ValidationError, match="does not match"):
            TrainingSet(schema, X, np.ones((3, 5)), idx)
        with pytest.raises(ValidationError, match="out of range"):
            TrainingSet(schema, X, W, (np.array([0, 1, 0, 2]),))
        with pytest.raises(ValidationError, match="has no samples"):
            TrainingSet(schema, X, W, (np.array([0, 0, 0, 0]),))
        with pytest.raises(ValidationError, match="non-finite"):
            TrainingSet(schema, X * np.inf, W, idx)
        with pytest.raises(ValidationError,
                           match="label_index for attribute 'kind' must be an integer"):
            TrainingSet(schema, X, W, (np.array([0, 1, 0.5, 1]),))


class TestColumnsAndSelectors:
    def test_columns_of(self, tiny_training_set):
        ts = tiny_training_set
        assert columns_of(ts, 0, 0).tolist() == [0, 2]
        assert columns_of(ts, 0, 1).tolist() == [1, 3]
        with pytest.raises(ValidationError):
            columns_of(ts, 1, 0)
        with pytest.raises(ValidationError):
            columns_of(ts, 0, 2)

    def test_selector_bank_zeros_and_copy(self):
        schema = two_attr_schema()
        bank = SelectorBank.zeros(schema)
        assert [s.shape for s in bank.selectors] == [(2, 2), (2, 2)]
        dup = bank.copy()
        dup.selectors[0][0, 0] = 5.0
        assert bank.selectors[0][0, 0] == 0.0

    def test_materialize_h_gathers_shared_columns(self, tiny_training_set):
        ts = tiny_training_set
        bank = SelectorBank.zeros(ts.schema)
        bank.selectors[0][:] = np.array([[1.0, 3.0], [2.0, 4.0]])
        h = materialize_h(bank, ts, 0)
        assert h.shape == (2, 4)
        assert np.array_equal(h[:, 0], h[:, 2])
        assert np.array_equal(h[:, 1], h[:, 3])
        assert np.array_equal(h[:, 0], np.array([1.0, 2.0]))
        assert np.array_equal(h[:, 1], np.array([3.0, 4.0]))

    def test_materialize_h_validates(self, tiny_training_set):
        ts = tiny_training_set
        with pytest.raises(ValidationError, match="does not match the schema"):
            materialize_h(SelectorBank([]), ts, 0)
        bad = SelectorBank([np.zeros((3, 2))])
        with pytest.raises(ValidationError, match="must be"):
            materialize_h(bad, ts, 0)
