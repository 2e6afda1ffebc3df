"""Command line interface.

Subcommands: train, complete, transfer, synth, eval. Exit codes: 0 success
(including a training run that stops without converging, at t_max or stalled
with the penalty at mu_max, which is reported as a warning), 2 validation
problems (including inputs too large for memory), 3 file or format problems,
4 numerical failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import formats
from .dataset import AttributeSchema, assemble, check_input
from .errors import FormatError, NumericalError, ValidationError
from .proxops import RankRule
from .reconstructor import ReconConfig, TransferSpec, reconstruct_many
from .synthbench import SynthSpec, check_sizes, default_spec, generate, recovery_metrics
from .trainer import Schedule, SolverConfig, train

MATRIX_SUFFIXES = (".marc", ".csv")

# The synth flags: each sets, and takes its default and type from, one SynthSpec field.
SYNTH_FLAGS = (
    ("--dim", "dim", "vector dimension"),
    ("--samples", "count", "number of samples"),
    ("--rank-g", "rank_g", "rank of the individual part"),
    ("--sparsity", "sparsity", "gross error fraction"),
    ("--missing-frac", "missing_frac", "hidden cell fraction"),
    ("--noise-amp", "noise_amp", "gross error magnitude"),
    ("--seed", "seed", "generator seed"),
)


def _add_schedule_flags(p: argparse.ArgumentParser, lam_default: str) -> None:
    """The flags of the Schedule fields that train, complete and transfer share."""
    defaults = Schedule()
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                   help=f"sparsity weight (default {lam_default})")
    p.add_argument("--eps", type=float, default=defaults.eps,
                   help="convergence threshold; in complete and transfer it also bounds a "
                        "certified decode's distance to the exact fit")
    p.add_argument("--t-max", type=int, default=defaults.t_max, help="iteration cap")
    p.add_argument("--rho", type=float, default=defaults.rho, help="penalty growth factor")
    p.add_argument("--mu-max", type=float, default=defaults.mu_max, help="penalty cap")
    p.add_argument("--mu0-scale", type=float, default=defaults.mu0_scale,
                   help="initial penalty scale")


def _schedule_kwargs(args: argparse.Namespace) -> dict:
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(Schedule)}


def _add_common_recon_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundle", "-b", required=True, help="trained bundle directory")
    p.add_argument("--input", "-i", required=True,
                   help="input vector file, or a directory of vector files")
    p.add_argument("--mask", "-m", default=None,
                   help="visibility mask file (or directory matching --input)")
    p.add_argument("--output", "-o", required=True,
                   help="output vector file (or directory for directory input)")
    _add_schedule_flags(p, "1/sqrt(dim)")
    span = p.add_mutually_exclusive_group()
    span.add_argument("--rank", type=int, default=None,
                      help="explicit width of the individual span")
    span.add_argument("--energy", type=float, default=None,
                      help="energy fraction for the individual span "
                           f"(default {ReconConfig().rank_rule.energy})")
    span.add_argument("--no-individual", action="store_true",
                      help="drop the individual span from the reconstruction")


def _recon_config(args: argparse.Namespace) -> ReconConfig:
    kwargs = _schedule_kwargs(args)
    if args.no_individual:
        kwargs["rank_rule"] = None
    elif args.rank is not None:
        kwargs["rank_rule"] = RankRule.fixed(args.rank)
    elif args.energy is not None:
        kwargs["rank_rule"] = RankRule.energy_fraction(args.energy)
    return ReconConfig(**kwargs)


def _recon_jobs(args: argparse.Namespace) -> list[tuple[str, str | None, str]]:
    """Resolve (input, mask, output) paths; a directory input fans out to one
    job per file (or symlink to one) whose suffix is in MATRIX_SUFFIXES, any
    case, sorted by name for deterministic outputs. Each argument is taken
    as `Path` normalises it, and a file under it is named by appending its
    name, to nothing for the working directory itself."""
    inp, out = str(Path(args.input)), str(Path(args.output))
    mask = str(Path(args.mask)) if args.mask else None
    if not os.path.isdir(inp):
        return [(inp, mask, out)]
    with os.scandir(inp) as entries:
        names = sorted(entry.name for entry in entries
                       if formats.path_suffix(entry.name) in MATRIX_SUFFIXES
                       and entry.is_file())
    if not names:
        raise ValidationError(f"no matrix files found in directory {inp}")
    in_dir, out_dir = _dir_prefix(inp), _dir_prefix(out)
    mask_dir = _dir_prefix(mask) if mask else None
    return [(in_dir + name, None if mask_dir is None else mask_dir + name, out_dir + name)
            for name in names]


def _dir_prefix(root: str) -> str:
    """What names a file in the directory `root` when its name is appended,
    as `Path(root) / name` does: nothing for the working directory."""
    return "" if root == "." else os.path.join(root, "")


def _run_recon_jobs(args: argparse.Namespace) -> int:
    """complete and transfer: read every resolved job, check each vector's
    and mask's length (`check_input`), and reconstruct them all with one
    `reconstruct_many` call, which checks the values and names a file at
    fault by its path. Then create the output directory, if the input is
    one, write the outputs and print one line per job in name order.
    Without --target every selector is solved freely; otherwise each
    completion is re-rendered with the named attributes pinned."""
    targets = _parse_pairs(args.target, "--target", "attribute=instantiation")
    bundle = formats.load_bundle(args.bundle)
    config = _recon_config(args)
    jobs = _recon_jobs(args)
    spec = TransferSpec.targets(bundle.schema, targets)
    Y, W = np.empty((2, bundle.dim, len(jobs)))
    for k, (in_path, mask_path, _) in enumerate(jobs):
        y = formats.read_vector(in_path)
        w = formats.read_vector(mask_path) if mask_path else None
        Y[:, k], W[:, k] = check_input(y, w, bundle.dim, f"{in_path}: ")
    results = reconstruct_many(Y, W, bundle, spec, config, name=lambda k: jobs[k][0])
    if os.path.isdir(args.input):
        Path(args.output).mkdir(parents=True, exist_ok=True)
    for (in_path, _, out_path), result in zip(jobs, results):
        formats.write_vector(out_path, result.reconstruction)
        d = result.diagnostics
        flag = "" if d.converged else f" (did not converge: {d.stop_reason})"
        print(f"{os.path.basename(in_path)}: iterations={d.iterations} "
              f"residual={d.final_residual:.3e}{flag}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    schema, samples = formats.load_manifest(args.manifest)
    ts = assemble(schema, samples)
    config = SolverConfig(**_schedule_kwargs(args), seed=args.seed)
    start = time.perf_counter()
    bundle = train(ts, config)
    wall = time.perf_counter() - start
    formats.save_bundle(args.output, bundle)
    d = bundle.diagnostics
    print(f"iterations={d.iterations} residual={d.final_residual:.6e} "
          f"residual_unmasked={d.final_residual_unmasked:.6e} wall_time={wall:.2f}s")
    if d.stop_reason == "stalled":
        print(f"warning: stalled at iteration {d.iterations} (penalty at mu_max) "
              f"without reaching eps={config.eps}", file=sys.stderr)
    elif d.stop_reason == "t_max":
        print(f"warning: stopped at t_max={config.t_max} without reaching "
              f"eps={config.eps}", file=sys.stderr)
    return 0


def _parse_pairs(pairs: list[str], flag: str, form: str) -> dict[str, str]:
    """The NAME=VALUE arguments of a repeatable flag, by name; a pair
    without "=" or a name given twice raises ValidationError."""
    out: dict[str, str] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValidationError(f"{flag} needs {form}, got '{pair}'")
        if name in out:
            raise ValidationError(f"{flag} names '{name}' more than once")
        out[name] = value
    return out


def _cmd_synth(args: argparse.Namespace) -> int:
    schema = default_spec().schema
    if args.attr:
        sizes = {}
        for name, count in _parse_pairs(args.attr, "--attr", "name=count").items():
            try:
                sizes[name] = int(count)
            except ValueError:
                raise ValidationError(f"--attr count must be an integer, got '{count}'") from None
        check_sizes(sizes, args.dim, args.count)  # before any label is built
        schema = AttributeSchema.of([(name, [f"{name}_{j}" for j in range(1, m + 1)])
                                     for name, m in sizes.items()])
    spec = SynthSpec(schema=schema, **{field: getattr(args, field) for _, field, _ in SYNTH_FLAGS})
    ts, truth = generate(spec)
    out = Path(args.output)
    samples_dir = out / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    write_masks = spec.missing_frac > 0
    for n in range(ts.count):
        data_rel = f"samples/sample_{n:04d}.marc"
        formats.write_vector(out / data_rel, ts.X[:, n])
        mask_rel = None
        if write_masks:
            mask_rel = f"samples/sample_{n:04d}_mask.marc"
            formats.write_vector(out / mask_rel, ts.W[:, n])
        labels = {schema.name(i): schema.labels(i)[ts.label_index[i][n]]
                  for i in range(schema.count)}
        entries.append({"data": data_rel, "mask": mask_rel, "labels": labels})
    formats.write_manifest(out / "manifest.json", schema, entries)
    formats.save_truth(out / "truth", truth)
    print(f"wrote {ts.count} samples ({ts.dim} dims) to {out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    bundle = formats.load_bundle(args.bundle)
    truth = formats.load_truth(args.truth)
    report = recovery_metrics(bundle, truth)
    sys.stdout.write(report.to_text())
    formats.write_report(report, args.out_json, args.out_txt)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marc",
        description="Robust component analysis for labeled, incompletely observed data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model from a dataset manifest")
    p.add_argument("manifest", help="dataset manifest (JSON)")
    p.add_argument("--output", "-o", required=True, help="bundle directory to write")
    _add_schedule_flags(p, "1/sqrt(max(dim, count))")
    p.add_argument("--seed", type=int, default=SolverConfig().seed,
                   help="basis initialization seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("complete", help="fill in partially observed vectors")
    _add_common_recon_flags(p)
    p.set_defaults(func=_run_recon_jobs, target=[])

    p = sub.add_parser("transfer", help="re-render vectors with pinned attribute instantiations")
    _add_common_recon_flags(p)
    p.add_argument("--target", "-t", action="append", required=True,
                   metavar="ATTR=INST", help="pin an attribute (repeatable)")
    p.set_defaults(func=_run_recon_jobs)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--output", "-o", required=True, help="output directory")
    spec = default_spec()
    stock = " ".join(f"{spec.schema.name(i)}={spec.schema.size(i)}"
                     for i in range(spec.schema.count))
    p.add_argument("--attr", action="append", metavar="NAME=COUNT",
                   help=f"attribute with its instantiation count (repeatable; default {stock})")
    for flag, field, text in SYNTH_FLAGS:
        default = getattr(spec, field)
        p.add_argument(flag, dest=field, type=type(default), default=default, help=text)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="score a trained bundle against planted truth")
    p.add_argument("--bundle", "-b", required=True, help="trained bundle directory")
    p.add_argument("--truth", required=True, help="ground-truth directory from synth")
    p.add_argument("--out-json", default=None, help="also write the report as JSON")
    p.add_argument("--out-txt", default=None, help="also write the report as key=value text")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
