"""Span recorder and call wrappers for the traced benchmark run.

The traced run times calls into the marc package from outside it: while a
`Tracer` is installed, selected module-level functions are replaced, in every
marc module namespace that holds them, by wrappers that record one span per
call. The package's loops look these names up at call time, so the wrappers
see every nested call (for example the `update_g` calls made by `train`).
Nothing in the package changes; `uninstall` puts the original objects back.

Spans (name, start, end, parent, thread) are kept in memory in typed arrays
and written out when the run ends. A layer's self time is its span's duration
minus the part of that interval its child spans cover. Spans opened in a
worker thread with no enclosing span of their own take the innermost open
span of the thread that installed the tracer as their parent, so the CLI's
thread pool work is charged to the command that started it.
"""
from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function, span name). Functions the package imports by name are
# replaced in every marc module that holds them, not only where defined.
TRACED = (
    ("trainer", "train", "trainer.train"),
    ("trainer", "update_h", "trainer.update_h"),
    ("trainer", "update_f", "trainer.update_f"),
    ("trainer", "update_g", "trainer.update_g"),
    ("trainer", "update_e", "trainer.update_e"),
    ("trainer", "update_duals", "trainer.update_duals"),
    ("trainer", "normalized_residual", "trainer.residual"),
    ("trainer", "constraint_residual", "trainer.residual"),
    ("trainer", "shared_component", "trainer.shared_component"),
    ("proxops", "svt", "proxops.svt"),
    ("proxops", "procrustes", "proxops.procrustes"),
    ("proxops", "shrink_matrix", "proxops.shrink_matrix"),
    ("dataset", "assemble", "dataset.assemble"),
    ("dataset", "materialize_h", "dataset.materialize_h"),
    ("dataset", "columns_of", "dataset.columns_of"),
    ("reconstructor", "reconstruct", "reconstructor.reconstruct"),
    ("reconstructor", "build_span", "reconstructor.build_span"),
    ("formats", "load_bundle", "formats.load_bundle"),
    ("formats", "save_bundle", "formats.save_bundle"),
    ("formats", "load_manifest", "formats.load_manifest"),
    ("formats", "write_manifest", "formats.write_manifest"),
    ("formats", "save_truth", "formats.save_truth"),
    ("formats", "load_truth", "formats.load_truth"),
    ("formats", "read_vector", "formats.read_vector"),
    ("formats", "write_vector", "formats.write_vector"),
    ("synthbench", "generate", "synthbench.generate"),
    ("synthbench", "recovery_metrics", "synthbench.recovery_metrics"),
)

CLI_COMMANDS = ("synth", "train", "eval", "complete", "transfer")

_MARKER = "__perfbench_span__"


def marc_modules() -> list:
    """The marc package and every loaded marc submodule."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "marc" or name.startswith("marc."))]


def wrapped_names() -> list[str]:
    """`module.attribute` of every marc name currently bound to a wrapper."""
    return [f"{m.__name__}.{attr}" for m in marc_modules()
            for attr, value in vars(m).items() if hasattr(value, _MARKER)]


class Recorder:
    """Thread-safe in-memory span store."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.thread = array("Q")

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def ids(self) -> dict[str, int]:
        with self._lock:
            return dict(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._owner_stack if threading.get_ident() == self._owner else []
            self._local.stack = stack
        return stack

    def enter(self, nid: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else -1
        tid = threading.get_ident()
        t = time.perf_counter()
        with self._lock:
            idx = len(self.start)
            self.start.append(t)
            self.end.append(math.nan)
            self.name.append(nid)
            self.parent.append(parent)
            self.thread.append(tid)
        stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        t = time.perf_counter()
        with self._lock:
            self.end[idx] = t
        self._local.stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        with self._lock:
            return {
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "thread": np.frombuffer(self.thread, dtype=np.uint64).copy(),
            }

    def self_times(self, exclude=()) -> dict[str, np.ndarray]:
        """Span arrays plus `self`: duration minus the union of the child
        spans' intervals (a plain sum when every child ran in the parent's
        thread, since those cannot overlap).

        `exclude` holds (start, end) intervals of work the owner thread did
        for the benchmark (speed probes run from a signal handler). Each is
        added as a child, with name id -1, of the innermost owner-thread span that
        contains it, so no span is charged for it; those outside every span
        are dropped."""
        a = self.arrays()
        if np.isnan(a["end"]).any():
            raise RuntimeError("self times requested while a span is still open")
        own = np.flatnonzero(a["thread"] == self._owner)
        extra = []
        for start, end in exclude:
            holders = own[(a["start"][own] <= start) & (a["end"][own] >= end)]
            if holders.size:
                extra.append((start, end, holders[np.argmax(a["start"][holders])]))
        if extra:
            start, end, parent = np.asarray(extra).T
            a["start"] = np.concatenate([a["start"], start])
            a["end"] = np.concatenate([a["end"], end])
            a["parent"] = np.concatenate([a["parent"], parent.astype(np.int64)])
            a["thread"] = np.concatenate(
                [a["thread"], np.full(len(extra), self._owner, dtype=np.uint64)])
            a["name"] = np.concatenate([a["name"], np.full(len(extra), -1, dtype=np.int32)])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.flatnonzero(has_parent)
        par = a["parent"][child]
        cross = a["thread"][child] != a["thread"][par]
        covered = np.bincount(par, weights=dur[child], minlength=dur.size)
        cross_parents = np.unique(par[cross])
        if cross_parents.size:
            groups = defaultdict(list)
            sel = np.isin(par, cross_parents)
            for c, p in zip(child[sel], par[sel]):
                groups[p].append((a["start"][c], a["end"][c]))
            for p, intervals in groups.items():
                covered[p] = _union_length(intervals)
        a["self"] = np.maximum(dur - covered, 0.0)
        a["dur"] = dur
        return a


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = -math.inf
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def _fingerprint(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Tracer:
    """Installs span wrappers on the marc package and keeps per-call facts
    that only the call's arguments and result reveal (iteration counts,
    singular values kept, bytes written)."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._patches: list[tuple[object, str, object]] = []
        self._svt_local = threading.local()
        self._lock = threading.Lock()
        self.svt_kept = 0
        self.svt_computed = 0
        self.bytes_written = 0
        self.train_stats: dict[str, tuple[int, int]] = {}
        self.train_iterations_run = 0
        self.recon_stats: dict[str, tuple[int, bool, int]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if wrapped_names():
            raise RuntimeError(f"marc functions already wrapped: {wrapped_names()}")
        import marc  # noqa: F401  (loads every submodule)
        mods = marc_modules()
        replacements: dict[int, object] = {}
        for module, func, span_name in TRACED:
            original = getattr(sys.modules[f"marc.{module}"], func)
            replacements[id(original)] = self._wrap(original, span_name)
        svd = sys.modules["marc.proxops"].deterministic_svd
        replacements[id(svd)] = self._svd_hook(svd)
        main = sys.modules["marc.cli"].main
        replacements[id(main)] = self._cli_wrap(main)
        for m in mods:
            for attr, value in list(vars(m).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patches.append((m, attr, value))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, span_name: str):
        rec = self.recorder
        nid = rec.name_id(span_name)
        post = {
            "trainer.train": self._after_train,
            "reconstructor.reconstruct": self._after_reconstruct,
            "proxops.svt": self._after_svt,
            "formats.write_vector": self._after_write_vector,
            "formats.save_bundle": self._after_save_bundle,
        }.get(span_name)
        svd_local = self._svt_local if span_name == "proxops.svt" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if svd_local is not None:
                svd_local.s = None
            idx = rec.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.exit(idx)
            if post is not None:
                post(args, kwargs, out)
            return out

        setattr(wrapper, _MARKER, span_name)
        return wrapper

    def _cli_wrap(self, fn):
        """`marc.cli.main` as one span per call, named after the command."""
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(argv=None):
            command = (argv if argv is not None else sys.argv[1:])[:1]
            idx = rec.enter(rec.name_id(f"cli.{command[0] if command else ''}"))
            try:
                return fn(argv)
            finally:
                rec.exit(idx)

        setattr(wrapper, _MARKER, "cli.main")
        return wrapper

    def _svd_hook(self, fn):
        """Not a span: remembers the singular values of the latest SVD in
        this thread so the svt wrapper can count how many it kept."""
        local = self._svt_local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            local.s = out[1]
            return out

        setattr(wrapper, _MARKER, "proxops.deterministic_svd")
        return wrapper

    # -- per-call facts -------------------------------------------------------

    def _after_train(self, args, kwargs, bundle) -> None:
        ts = args[0] if args else kwargs["ts"]
        d = bundle.diagnostics
        cap = bundle.config.mu_max
        key = _fingerprint(ts.X, ts.W)
        with self._lock:
            self.train_iterations_run += d.iterations
            self.train_stats.setdefault(
                key, (d.iterations, sum(1 for mu in d.mu_history if mu >= cap)))

    def _after_reconstruct(self, args, kwargs, result) -> None:
        y = args[0] if args else kwargs["y"]
        w = args[1] if len(args) > 1 else kwargs.get("w_y")
        spec = args[3] if len(args) > 3 else kwargs.get("spec")
        pinned = np.array([-1 if p is None else p for p in spec.pinned]) if spec else np.zeros(0)
        w = np.ones(0) if w is None else np.asarray(w, dtype=np.float64)
        key = _fingerprint(np.asarray(y, dtype=np.float64), w, pinned)
        d = result.diagnostics
        with self._lock:
            self.recon_stats.setdefault(key, (d.iterations, d.converged, result.indiv_coeffs.size))

    def _after_svt(self, args, kwargs, out) -> None:
        s = self._svt_local.s
        if s is None:  # svt stopped going through deterministic_svd
            kept, computed = int(np.linalg.matrix_rank(out)), min(out.shape)
        else:
            tau = args[1] if len(args) > 1 else kwargs["tau"]
            kept, computed = int(np.count_nonzero(s > tau)), s.size
        with self._lock:
            self.svt_kept += kept
            self.svt_computed += computed

    def _after_write_vector(self, args, kwargs, out) -> None:
        path = args[0] if args else kwargs["path"]
        size = os.stat(path).st_size
        with self._lock:
            self.bytes_written += size

    def _after_save_bundle(self, args, kwargs, out) -> None:
        root = Path(args[0] if args else kwargs["path"])
        size = sum(p.stat().st_size for p in root.iterdir() if p.is_file())
        with self._lock:
            self.bytes_written += size

    # -- results --------------------------------------------------------------

    def layer_metrics(self, exclude=()) -> dict[str, float]:
        """Per-layer numbers of everything recorded so far. Self times are
        reported as a share (%) of the time the benchmark spent inside calls
        to marc: the summed duration of the root spans, less the `exclude`
        intervals inside them (see Recorder.self_times)."""
        a = self.recorder.self_times(exclude)
        names = self.recorder.names
        n = len(names)
        spans = a["name"] >= 0
        calls = np.bincount(a["name"][spans], minlength=n)
        self_s = np.bincount(a["name"][spans], weights=a["self"][spans], minlength=n)
        roots = a["parent"] < 0
        wall = float(a["dur"][roots].sum() - a["dur"][~spans].sum())

        ids = self.recorder.ids()

        def share(name: str) -> float:
            if name not in ids or wall == 0.0:
                return 0.0
            return 100.0 * float(self_s[ids[name]]) / wall

        def count(name: str) -> int:
            return int(calls[ids[name]]) if name in ids else 0

        out: dict[str, float] = {}
        for _, _, span_name in TRACED:
            out[f"{span_name}.self_pct"] = share(span_name)
        for name in ("trainer.shared_component", "proxops.svt", "proxops.shrink_matrix",
                     "dataset.materialize_h", "dataset.columns_of",
                     "reconstructor.reconstruct", "formats.read_vector",
                     "formats.write_vector"):
            out[f"{name}.calls"] = count(name)
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.self_pct"] = share(f"cli.{cmd}")
        out["cli.self_pct"] = sum(out[f"cli.{cmd}.self_pct"] for cmd in CLI_COMMANDS)
        recon = a["name"] == ids.get("reconstructor.reconstruct", -2)
        cli_ids = [ids[f"cli.{cmd}"] for cmd in CLI_COMMANDS if f"cli.{cmd}" in ids]
        under_cli = recon & (a["parent"] >= 0)
        under_cli[under_cli] = np.isin(a["name"][a["parent"][under_cli]], cli_ids)
        out["cli.recon_threads"] = int(np.unique(a["thread"][under_cli]).size)

        train = a["name"] == ids.get("trainer.train", -2)
        t_start, t_end = a["start"][train], a["end"][train]
        p_start, p_end = a["start"][~spans], a["end"][~spans]
        in_train = np.zeros(p_start.size, dtype=bool)
        if t_start.size:  # train calls never nest, so the latest start is the holder
            k = np.maximum(np.searchsorted(t_start, p_start, side="right") - 1, 0)
            in_train = (p_start >= t_start[k]) & (p_end <= t_end[k])
        train_s = float((t_end - t_start).sum() - (p_end - p_start)[in_train].sum())
        stats = list(self.train_stats.values())
        out["trainer.iterations"] = float(np.mean([s[0] for s in stats])) if stats else 0.0
        out["trainer.iters_at_mu_cap"] = float(np.mean([s[1] for s in stats])) if stats else 0.0
        out["trainer.iters_per_s"] = self.train_iterations_run / train_s if train_s > 0 else 0.0

        out["proxops.svt.kept_frac"] = (self.svt_kept / self.svt_computed
                                        if self.svt_computed else 0.0)
        rstats = list(self.recon_stats.values())
        out["reconstructor.iterations_mean"] = (float(np.mean([s[0] for s in rstats]))
                                                if rstats else 0.0)
        out["reconstructor.iterations_max"] = max((s[0] for s in rstats), default=0)
        out["reconstructor.unconverged_frac"] = (sum(1 for s in rstats if not s[1]) / len(rstats)
                                                 if rstats else 0.0)
        out["reconstructor.span_width"] = max((s[2] for s in rstats), default=0)
        out["formats.bytes_written"] = self.bytes_written
        out["trace.spans"] = int(np.count_nonzero(spans))
        out["trace.wall_s"] = wall
        return out

    def write_spans(self, path: Path) -> None:
        a = self.recorder.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.recorder.names), **a)
