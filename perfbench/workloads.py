"""The four benchmark workloads.

Each workload is driven by one caller in a closed loop: the next operation
starts only after the previous one returned. `setup` builds the inputs from
the seed and may be repeated; `op(i)` runs operation i, checks its outputs
and returns the timed calls into the program as (start, end, vectors)
tuples: the first spans the whole operation, and `vectors` counts the
vectors a call produced (training columns fitted, vectors reconstructed).

Calls into the program go through module attributes looked up at call time
(`trainer.train`, `reconstructor.reconstruct`, `cli.main`), so the traced run
sees them. Scoring and output checks use functions bound when this module is
imported, so they never show up as program spans.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

from marc import cli, reconstructor, trainer
from marc.dataset import AttributeSchema
from marc.formats import read_vector, write_vector
from marc.reconstructor import ReconConfig, TransferSpec
from marc.synthbench import default_spec, generate, holdout_sample, recovery_metrics
from marc.trainer import ModelBundle, SolverConfig, TrainDiagnostics

# Streams of derived seeds, so instances and held-out vectors never share one.
_INSTANCE, _VECTOR = 1, 2
PIN_ATTR, PIN_LABEL = "attr2", "b3"
ORTHONORMAL_TOL = 1e-10


def derive(seed: int, *keys: int) -> int:
    """A seed for one generated input, fixed by the run's seed and `keys`."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def stock_spec(seed: int):
    """The stock planted instance (200 x 60, attributes of 3 and 4
    instantiations, rank 5, 5% gross errors, 20% hidden) drawn at `seed`."""
    return dataclasses.replace(default_spec(), seed=seed)


def labels_spec(seed: int):
    """A wide instance with many labels: 64 x 256, attributes of 8, 16 and
    32 instantiations, otherwise the stock spec."""
    schema = AttributeSchema.of([
        (f"attr{i}", [f"{prefix}{j}" for j in range(1, m + 1)])
        for i, (prefix, m) in enumerate((("a", 8), ("b", 16), ("c", 32)), start=1)
    ])
    return dataclasses.replace(default_spec(), schema=schema, dim=64, count=256, seed=seed)


def _digest(*arrays: np.ndarray) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _bundle_digest(bundle: ModelBundle) -> bytes:
    d = bundle.diagnostics
    return _digest(*bundle.bases, *bundle.bank.selectors, bundle.individual,
                   bundle.sparse_error, np.asarray(d.residual_history),
                   np.asarray(d.mu_history))


def _all_finite(*arrays: np.ndarray) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def bundle_from_truth(truth) -> ModelBundle:
    """The planted factors packaged as a trained model, so reconstruction is
    measured against a model no trainer change can move."""
    dim, count = truth.data.shape
    diag = TrainDiagnostics(
        iterations=0, converged=True, final_residual=0.0, final_residual_unmasked=0.0,
        lam_effective=1.0 / math.sqrt(max(dim, count)), residual_history=[],
        residual_history_unmasked=[], mu_history=[],
    )
    return ModelBundle(
        schema=truth.schema, bases=[b.copy() for b in truth.bases], bank=truth.bank.copy(),
        individual=truth.individual.copy(), sparse_error=truth.sparse_error.copy(),
        diagnostics=diag, config=SolverConfig(),
    )


def hidden_rel_err(estimate: np.ndarray, clean: np.ndarray, mask: np.ndarray) -> float:
    """Relative error of a completion on the cells its input hid."""
    hidden = mask == 0.0
    return float(np.linalg.norm(estimate[hidden] - clean[hidden]) / np.linalg.norm(clean[hidden]))


def transfer_target(truth, sample, attr: int, inst: int) -> np.ndarray:
    """The planted clean vector re-rendered with `attr` set to `inst`."""
    own = truth.schema.inst_index(attr, sample.labels[truth.schema.name(attr)])
    basis, sel = truth.bases[attr], truth.bank.selectors[attr]
    return sample.clean - basis @ sel[:, own] + basis @ sel[:, inst]


class Workload:
    """Operation counting shared by every workload."""

    name = ""
    min_ops = 1

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


class TrainWorkload(Workload):
    """`train` at the pinned defaults on `instances` planted instances drawn
    from the seed, in turn. One more call than there are instances repeats
    the first one, whose bundle must come back bitwise identical."""

    def __init__(self, name: str, spec_fn, seed: int, instances: int,
                 config: SolverConfig = SolverConfig()) -> None:
        super().__init__()
        self.name = name
        self.specs = [spec_fn(derive(seed, _INSTANCE, k)) for k in range(instances)]
        self.config = config
        self.min_ops = instances + 1
        self.digests: dict[int, bytes] = {}
        self.reports: dict[int, object] = {}
        self.iterations: dict[int, int] = {}

    def setup(self) -> None:
        self.instances = [generate(spec) for spec in self.specs]

    def op(self, i: int) -> list[tuple[float, float, int]]:
        k = i % len(self.instances)
        ts, truth = self.instances[k]
        start = time.perf_counter()
        bundle = trainer.train(ts, self.config)
        end = time.perf_counter()
        problems = []
        if not _all_finite(*bundle.bases, *bundle.bank.selectors, bundle.individual,
                           bundle.sparse_error):
            problems.append(f"{self.name}: non-finite trained factors")
        for j, basis in enumerate(bundle.bases):
            gap = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()
            if gap > ORTHONORMAL_TOL:
                problems.append(f"{self.name}: basis {j} off orthonormal by {gap:.2e}")
        digest = _bundle_digest(bundle)
        if k in self.digests:
            if digest != self.digests[k]:
                problems.append(f"{self.name}: repeated train of instance {k} differs")
        else:
            self.digests[k] = digest
            self.reports[k] = recovery_metrics(bundle, truth)
            self.iterations[k] = bundle.diagnostics.iterations
        self.record(problems)
        return [(start, end, ts.count)]

    def rel_err(self) -> float:
        return statistics.median(r.clean_rel_err_overall for r in self.reports.values())

    def info(self) -> dict:
        reports = list(self.reports.values())
        return {
            "instances": len(self.specs),
            "clean_rel_err": [r.clean_rel_err_overall for r in reports],
            "support_f1": [r.support_f1 for r in reports],
            "iterations": list(self.iterations.values()),
        }


class ReconWorkload(Workload):
    """Interactive reconstruction: one vector per call against a model built
    from the planted truth of the stock instance, so no trainer change can
    move it. The seed draws the held-out vectors, taken in turn from a pool;
    even ones are completed freely, odd ones are transferred to attr2=b3.
    Each pool vector is solved at least twice, and the repeat must match
    bitwise."""

    name = "recon-holdout"

    def __init__(self, seed: int, pool: int = 400, config: ReconConfig = ReconConfig()) -> None:
        super().__init__()
        self.seed = seed
        self.pool_size = pool
        self.config = config
        self.min_ops = 2 * pool
        self.digests: dict[int, bytes] = {}
        self.errors: dict[int, float] = {}

    def setup(self) -> None:
        _, truth = generate(default_spec())
        bundle = bundle_from_truth(truth)
        reconstructor.build_span(bundle, self.config.rank_rule)
        self.truth, self.bundle = truth, bundle
        self.attr = truth.schema.attr_index(PIN_ATTR)
        self.inst = truth.schema.inst_index(self.attr, PIN_LABEL)
        self.free = TransferSpec.all_free(truth.schema)
        self.pinned = TransferSpec.targets(truth.schema, {PIN_ATTR: PIN_LABEL})
        self.pool = [holdout_sample(truth, derive(self.seed, _VECTOR, n))
                     for n in range(self.pool_size)]

    def op(self, i: int) -> list[tuple[float, float, int]]:
        n = i % self.pool_size
        sample = self.pool[n]
        moving = n % 2 == 1
        start = time.perf_counter()
        result = reconstructor.reconstruct(sample.y, sample.mask, self.bundle,
                                           self.pinned if moving else self.free, self.config)
        end = time.perf_counter()
        out = result.reconstruction
        problems = []
        if not _all_finite(out, result.sparse_error, result.indiv_coeffs, *result.selectors):
            problems.append(f"recon-holdout: non-finite result for vector {n}")
        if moving:
            trained = self.bundle.bank.selectors[self.attr][:, self.inst]
            if result.selectors[self.attr].tobytes() != trained.tobytes():
                problems.append(f"recon-holdout: pinned selector changed for vector {n}")
        digest = _digest(out)
        if n in self.digests:
            if digest != self.digests[n]:
                problems.append(f"recon-holdout: repeated solve of vector {n} differs")
        else:
            self.digests[n] = digest
            if moving:
                target = transfer_target(self.truth, sample, self.attr, self.inst)
                self.errors[n] = float(np.linalg.norm(out - target) / np.linalg.norm(target))
            else:
                self.errors[n] = hidden_rel_err(out, sample.clean, sample.mask)
        self.record(problems)
        return [(start, end, 1)]

    def rel_err(self) -> float:
        return statistics.median(e for n, e in self.errors.items() if n % 2 == 0)

    def info(self) -> dict:
        return {
            "pool": self.pool_size,
            "holdout_rel_err": self.rel_err(),
            "transfer_rel_err": statistics.median(
                e for n, e in self.errors.items() if n % 2 == 1),
        }


def _write_if_changed(path: Path, v: np.ndarray) -> None:
    """Write a vector file unless it already holds exactly these values, so
    repeated set-ups time generating the inputs rather than the disk."""
    if path.is_file() and np.array_equal(read_vector(path), v):
        return
    write_vector(path, v)


class CliWorkload(Workload):
    """Bulk use through `marc.cli.main`, called in this process. The model is
    trained by `marc synth` + `marc train` on the stock instance; the seed
    draws the held-out vectors and masks that set-up writes to files. One
    operation is a whole pass of synth -> train -> eval -> complete <dir> ->
    transfer <dir>. Every pass must rewrite one output per input and repeat
    the first pass bitwise.

    All files live under one fixed `work_dir` and are rewritten in place,
    never deleted: on ext4 mounted with `discard`, deleting a few thousand
    small files slows file writes several-fold for about ten seconds after,
    which made this workload's timings depend on the run before it."""

    name = "cli-pipeline"
    min_ops = 2

    def __init__(self, seed: int, work_dir: Path, vectors: int = 200,
                 train_args: tuple[str, ...] = ()) -> None:
        super().__init__()
        self.seed = seed
        self.work_dir = work_dir
        self.n_vectors = vectors
        self.train_args = train_args
        self.reference: dict[str, bytes] | None = None
        self.errors: list[float] = []
        self.eval_report: dict = {}
        self.command_seconds: dict[str, list[float]] = {}

    def setup(self) -> None:
        self.vec_dir, self.mask_dir = self.work_dir / "vectors", self.work_dir / "masks"
        self.vec_dir.mkdir(parents=True, exist_ok=True)
        self.mask_dir.mkdir(exist_ok=True)
        _, truth = generate(default_spec())
        self.samples = [holdout_sample(truth, derive(self.seed, _VECTOR, n))
                        for n in range(self.n_vectors)]
        for n, sample in enumerate(self.samples):
            _write_if_changed(self.vec_dir / f"v{n:04d}.marc", sample.y)
            _write_if_changed(self.mask_dir / f"v{n:04d}.marc", sample.mask)

    def _run(self, command: str, argv: list[str],
             problems: list[str]) -> tuple[float, float]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main([command, *argv])
            end = time.perf_counter()
        self.command_seconds.setdefault(command, []).append(end - start)
        if code != 0:
            problems.append(f"cli-pipeline: '{command}' exited {code}: {sink.getvalue()[-300:]}")
        return start, end

    def _fresh(self, paths: list[Path], problems: list[str]) -> None:
        stale = [p for p in paths if p.stat().st_mtime_ns == 0]
        if stale:
            problems.append(f"cli-pipeline: {len(stale)} files not rewritten, e.g. {stale[0]}")

    def _outputs(self, out_dir: Path, problems: list[str]) -> dict[str, np.ndarray]:
        names = sorted(p.name for p in self.vec_dir.iterdir())
        found = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
        if found != names:
            problems.append(f"cli-pipeline: {out_dir.name} holds {len(found)} files "
                            f"for {len(names)} inputs")
            return {}
        self._fresh([out_dir / name for name in names], problems)
        outs = {name: read_vector(out_dir / name) for name in names}
        if not _all_finite(*outs.values()):
            problems.append(f"cli-pipeline: non-finite values in {out_dir.name}")
        return outs

    def op(self, i: int) -> list[tuple[float, float, int]]:
        pass_dir = self.work_dir / "pass"
        data, model = pass_dir / "data", pass_dir / "model"
        report = pass_dir / "report.json"
        done, moved = pass_dir / "completed", pass_dir / "transferred"
        for path in pass_dir.rglob("*"):  # a file this pass fails to rewrite keeps mtime 0
            if path.is_file():
                os.utime(path, ns=(0, 0))
        recon = ["-b", str(model), "-i", str(self.vec_dir), "-m", str(self.mask_dir)]
        problems: list[str] = []
        start, _ = self._run("synth", ["-o", str(data), "--seed", str(default_spec().seed)],
                             problems)
        self._run("train", [str(data / "manifest.json"), "-o", str(model), *self.train_args],
                  problems)
        self._run("eval", ["-b", str(model), "--truth", str(data / "truth"),
                           "--out-json", str(report)], problems)
        completing = self._run("complete", [*recon, "-o", str(done)], problems)
        moving = self._run("transfer", [*recon, "-t", f"{PIN_ATTR}={PIN_LABEL}",
                                        "-o", str(moved)], problems)
        timed = [(start, moving[1], 0), (*completing, self.n_vectors),
                 (*moving, self.n_vectors)]

        completed = self._outputs(done, problems)
        transferred = self._outputs(moved, problems)
        if problems:
            self.record(problems)
            return timed
        self._fresh([report, *model.iterdir()], problems)
        scores = json.loads(report.read_text())
        if not all(math.isfinite(v) for v in scores.values() if isinstance(v, float)):
            problems.append("cli-pipeline: non-finite eval report")
        files = {f"model/{p.name}": p.read_bytes() for p in sorted(model.iterdir())}
        files.update({f"completed/{k}": v.tobytes() for k, v in completed.items()})
        files.update({f"transferred/{k}": v.tobytes() for k, v in transferred.items()})
        if self.reference is None:
            self.reference = files
            self.eval_report = scores
            self.errors = [hidden_rel_err(completed[f"v{n:04d}.marc"], s.clean, s.mask)
                           for n, s in enumerate(self.samples)]
        elif files != self.reference:
            differing = sorted(k for k in files.keys() | self.reference.keys()
                               if files.get(k) != self.reference.get(k))
            problems.append(f"cli-pipeline: pass {i} differs from the first in {differing[:3]}")
        self.record(problems)
        return timed

    def rel_err(self) -> float:
        return statistics.median(self.errors)

    def info(self) -> dict:
        return {
            "vectors": self.n_vectors,
            "clean_rel_err": self.eval_report.get("clean_rel_err_overall"),
            "support_f1": self.eval_report.get("support_f1"),
            "command_s_median": {k: statistics.median(v) for k, v in self.command_seconds.items()},
        }


def make(name: str, seed: int, work_dir: Path) -> Workload:
    """The named workload at its benchmark size and the pinned defaults."""
    if name == "train-stock":
        return TrainWorkload(name, stock_spec, seed, instances=5)
    if name == "train-labels":
        return TrainWorkload(name, labels_spec, seed, instances=3)
    if name == "recon-holdout":
        return ReconWorkload(seed)
    if name == "cli-pipeline":
        return CliWorkload(seed, work_dir / name)
    raise ValueError(f"unknown workload '{name}'")
