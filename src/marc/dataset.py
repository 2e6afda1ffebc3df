"""Schema, sample, and training-set containers, and the observed-data rule.

A dataset is a collection of column vectors, each labeled with exactly one
instantiation per attribute, plus a binary visibility mask. Assembly stacks
the columns into dense matrices and records, per attribute, which
instantiation every column carries.

`check_observed` holds the rule every entry point applies to observed data
(finite values; a 0/1 mask of the same shape), vectorised over columns;
each caller names the offending column its own way.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError, check_integer


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attributes, each with an ordered list of instantiation labels.

    An empty schema (no attributes) is legal and degenerates the model to a
    plain low-rank-plus-sparse decomposition.
    """

    attributes: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.attributes]
        if len(set(names)) != len(names):
            raise ValidationError("attribute names must be unique")
        for name, labels in self.attributes:
            if not name:
                raise ValidationError("attribute names must be non-empty")
            if len(labels) < 1:
                raise ValidationError(f"attribute '{name}' has no instantiations")
            if len(set(labels)) != len(labels):
                raise ValidationError(f"attribute '{name}' has duplicate instantiation labels")

    @classmethod
    def of(cls, pairs: Sequence[tuple[str, Sequence[str]]]) -> "AttributeSchema":
        return cls(tuple((name, tuple(labels)) for name, labels in pairs))

    @property
    def count(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    def name(self, attr: int) -> str:
        return self.attributes[attr][0]

    def labels(self, attr: int) -> tuple[str, ...]:
        return self.attributes[attr][1]

    def size(self, attr: int) -> int:
        """Number of instantiations of one attribute."""
        return len(self.attributes[attr][1])

    def attr_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.attributes):
            if n == name:
                return i
        raise ValidationError(f"unknown attribute '{name}'")

    def inst_index(self, attr: int, label: str) -> int:
        labels = self.labels(attr)
        try:
            return labels.index(label)
        except ValueError:
            raise ValidationError(
                f"unknown instantiation '{label}' for attribute '{self.name(attr)}'"
            ) from None

    def to_dict(self) -> dict:
        return {
            "attributes": [
                {"name": name, "instantiations": list(labels)}
                for name, labels in self.attributes
            ]
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "AttributeSchema":
        try:
            pairs = [(a["name"], a["instantiations"]) for a in d["attributes"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed schema mapping: {exc}") from exc
        for name, labels in pairs:
            if not isinstance(labels, list):
                raise ValidationError(f"attribute '{name}': instantiations must be a list")
        return cls.of(pairs)


@dataclass(frozen=True)
class Sample:
    """One data vector with its visibility mask and attribute labels.

    `mask` may be None for a fully observed sample. `labels` maps attribute
    name to instantiation label and must cover the schema exactly.
    """

    data: np.ndarray
    labels: Mapping[str, str]
    mask: np.ndarray | None = None


def check_observed(X: np.ndarray, W: np.ndarray | None, name: Callable[[int], str] | None = None,
                   data: str = "", mask: str = "mask") -> tuple[np.ndarray, np.ndarray]:
    """X, a (dim, n) block or one (dim,) vector, and its mask W (None: all
    visible) as float64 arrays, once they meet the rule for observed data:
    X is finite, and W has X's shape and holds only 0 and 1. The first
    column c at fault raises ValidationError: "name(c): <data> contains
    non-finite entries" or "name(c): <mask> must be strictly binary (0/1
    entries)"; an empty `data` reads "non-finite entries", no `name` drops
    the prefix."""
    X = np.asarray(X, dtype=np.float64)
    W = np.ones_like(X) if W is None else np.asarray(W, dtype=np.float64)
    if W.shape != X.shape:
        raise ValidationError(f"{mask}s have shape {W.shape}, which does not match {X.shape}")
    finite = np.isfinite(X)
    binary = (W == 0.0) | (W == 1.0)
    if finite.all() and binary.all():
        return X, W
    bad_data = ~finite.reshape(len(X), -1).all(axis=0)
    c = int(np.argmax(bad_data | ~binary.reshape(len(X), -1).all(axis=0)))
    where = f"{name(c)}: " if name else ""
    if bad_data[c]:
        subject = f"{data} contains " if data else ""
        raise ValidationError(f"{where}{subject}non-finite entries")
    raise ValidationError(f"{where}{mask} must be strictly binary (0/1 entries)")


@dataclass(frozen=True)
class TrainingSet:
    """Assembled training data.

    X and W are dense float64 matrices of shape (dim, count). For each
    attribute, `label_index` holds a length-`count` int array giving the
    (0-based) instantiation carried by every column.
    """

    schema: AttributeSchema
    X: np.ndarray
    W: np.ndarray
    label_index: tuple[np.ndarray, ...]
    visible: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValidationError("X must be a non-empty 2-D matrix")
        X, W = check_observed(X, self.W, lambda n: f"sample {n}")
        if len(self.label_index) != self.schema.count:
            raise ValidationError("label_index must have one entry per schema attribute")
        idx = []
        for i, li in enumerate(self.label_index):
            name = self.schema.name(i)
            li = np.asarray(li)
            if li.shape != (X.shape[1],):
                raise ValidationError(
                    f"label_index for attribute '{name}' must have length {X.shape[1]}"
                )
            # An array holds one type: its least entry is an integer if all are.
            check_integer(min(li.tolist()), f"label_index for attribute '{name}'")
            li = li.astype(np.int64, copy=False)
            m = self.schema.size(i)
            if li.max() >= m:
                raise ValidationError(f"label_index for attribute '{name}' out of range")
            counts = np.bincount(li, minlength=m)
            if np.any(counts == 0):
                j = int(np.flatnonzero(counts == 0)[0])
                raise ValidationError(
                    f"instantiation '{self.schema.labels(i)[j]}' of attribute "
                    f"'{name}' has no samples"
                )
            idx.append(li)
        object.__setattr__(self, "X", np.ascontiguousarray(X))
        object.__setattr__(self, "W", np.ascontiguousarray(W))
        object.__setattr__(self, "label_index", tuple(idx))
        object.__setattr__(self, "visible", self.W != 0.0)

    @property
    def dim(self) -> int:
        return self.X.shape[0]

    @property
    def count(self) -> int:
        return self.X.shape[1]


def assemble(schema: AttributeSchema, samples: Sequence[Sample]) -> TrainingSet:
    """Stack labeled samples into a TrainingSet.

    Raises ValidationError naming the offending sample on any mismatch:
    inconsistent length, missing/unknown labels, or an instantiation that
    ends up with zero columns. TrainingSet then checks the values once.
    """
    if not samples:
        raise ValidationError("cannot assemble an empty sample list")
    dim = None
    cols, mask_cols = [], []
    label_cols: list[list[int]] = [[] for _ in range(schema.count)]
    for n, sample in enumerate(samples):
        where = f"sample {n}"
        x = np.asarray(sample.data, dtype=np.float64).reshape(-1)
        if dim is None:
            dim = x.size
        elif x.size != dim:
            raise ValidationError(f"{where}: dimension {x.size} does not match {dim}")
        if x.size < 1:
            raise ValidationError(f"{where}: empty data vector")
        if sample.mask is None:
            w = np.ones(dim)
        else:
            w = np.asarray(sample.mask, dtype=np.float64).reshape(-1)
            if w.size != dim:
                raise ValidationError(f"{where}: mask length {w.size} does not match {dim}")
        extra = set(sample.labels) - {name for name, _ in schema.attributes}
        if extra:
            raise ValidationError(f"{where}: unknown attribute '{sorted(extra)[0]}'")
        for i in range(schema.count):
            name = schema.name(i)
            if name not in sample.labels:
                raise ValidationError(f"{where}: missing label for attribute '{name}'")
            try:
                label_cols[i].append(schema.inst_index(i, sample.labels[name]))
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from None
        cols.append(x)
        mask_cols.append(w)
    X = np.column_stack(cols)
    W = np.column_stack(mask_cols)
    return TrainingSet(schema, X, W, tuple(np.asarray(c, dtype=np.int64) for c in label_cols))


def columns_of(ts: TrainingSet, attr: int, inst: int) -> np.ndarray:
    """Ascending column indices carrying instantiation `inst` of `attr`."""
    if not 0 <= attr < ts.schema.count:
        raise ValidationError(f"attribute index {attr} out of range")
    if not 0 <= inst < ts.schema.size(attr):
        raise ValidationError(
            f"instantiation index {inst} out of range for attribute '{ts.schema.name(attr)}'"
        )
    return np.flatnonzero(ts.label_index[attr] == inst)


@dataclass
class SelectorBank:
    """Per-attribute selector columns.

    For attribute i the entry is an (M_i, M_i) matrix whose column j is the
    selector shared by every column carrying instantiation j.
    """

    selectors: list[np.ndarray]

    @classmethod
    def zeros(cls, schema: AttributeSchema) -> "SelectorBank":
        return cls([np.zeros((schema.size(i), schema.size(i))) for i in range(schema.count)])

    def copy(self) -> "SelectorBank":
        return SelectorBank([s.copy() for s in self.selectors])


def materialize_h(bank: SelectorBank, ts: TrainingSet, attr: int) -> np.ndarray:
    """Expand attribute `attr`'s selectors to one column per training sample.

    Column n of the result is bank column `label_index[attr][n]`, copied
    bitwise, so columns sharing an instantiation are identical.
    """
    if len(bank.selectors) != ts.schema.count:
        raise ValidationError("selector bank does not match the schema")
    if not 0 <= attr < ts.schema.count:
        raise ValidationError(f"attribute index {attr} out of range")
    sel = bank.selectors[attr]
    m = ts.schema.size(attr)
    if sel.shape != (m, m):
        raise ValidationError(
            f"selector matrix for attribute '{ts.schema.name(attr)}' must be {(m, m)}, "
            f"got {sel.shape}"
        )
    return sel[:, ts.label_index[attr]]
