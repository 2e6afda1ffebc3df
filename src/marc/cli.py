"""Command line interface.

Subcommands: train, complete, transfer, synth, eval. Exit codes: 0 success
(including a training run that stops without converging, at t_max or stalled
with the penalty at mu_max, which is reported as a warning), 2 validation
problems, 3 file or format problems, 4 numerical failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import formats
from .dataset import AttributeSchema, assemble
from .errors import FormatError, NumericalError, ValidationError
from .proxops import RankRule
from .reconstructor import ReconConfig, TransferSpec, reconstruct, synthesize
from .synthbench import SynthSpec, default_spec, generate, recovery_metrics
from .trainer import Schedule, SolverConfig, train

MATRIX_SUFFIXES = (".marc", ".csv")


def _add_schedule_flags(p: argparse.ArgumentParser, lam_default: str) -> None:
    """The flags of the Schedule fields that train, complete and transfer share."""
    defaults = Schedule()
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                   help=f"sparsity weight (default {lam_default})")
    p.add_argument("--eps", type=float, default=defaults.eps, help="convergence threshold")
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
    rank = p.add_mutually_exclusive_group()
    rank.add_argument("--rank", type=int, default=None,
                      help="explicit width of the individual span")
    rank.add_argument("--energy", type=float, default=None,
                      help="energy fraction for the individual span (default 0.99)")
    p.add_argument("--no-individual", action="store_true",
                   help="drop the individual span from the reconstruction")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for interface uniformity; reconstruction is "
                        "deterministic and ignores it")


def _recon_config(args: argparse.Namespace) -> ReconConfig:
    kwargs = dict(_schedule_kwargs(args), use_individual=not args.no_individual)
    if args.rank is not None:
        kwargs["rank_rule"] = RankRule.fixed(args.rank)
    elif args.energy is not None:
        kwargs["rank_rule"] = RankRule.energy_fraction(args.energy)
    return ReconConfig(**kwargs)


def _recon_jobs(args: argparse.Namespace) -> list[tuple[Path, Path | None, Path]]:
    """Resolve (input, mask, output) paths; directory inputs fan out to one
    job per matrix file, sorted by name for deterministic outputs."""
    inp = Path(args.input)
    out = Path(args.output)
    if inp.is_dir():
        files = sorted(p for p in inp.iterdir()
                       if p.is_file() and p.suffix.lower() in MATRIX_SUFFIXES)
        if not files:
            raise ValidationError(f"no matrix files found in directory {inp}")
        mask_dir = Path(args.mask) if args.mask else None
        out.mkdir(parents=True, exist_ok=True)
        jobs = []
        for f in files:
            mask = mask_dir / f.name if mask_dir else None
            jobs.append((f, mask, out / f.name))
        return jobs
    mask = Path(args.mask) if args.mask else None
    return [(inp, mask, out)]


def _run_recon_jobs(args: argparse.Namespace, targets: dict[str, str] | None) -> int:
    """Reconstruct every resolved job, one at a time. `targets` = None
    completes freely; otherwise the named attributes are pinned (args.post_hoc
    chooses the joint re-solve or the post-hoc substitution)."""
    bundle = formats.load_bundle(args.bundle)
    config = _recon_config(args)
    jobs = _recon_jobs(args)
    free = TransferSpec.all_free(bundle.schema)
    pins = free if targets is None else TransferSpec.targets(bundle.schema, targets)
    for in_path, mask_path, out_path in jobs:
        y = formats.read_vector(in_path)
        w = formats.read_vector(mask_path) if mask_path else None
        result = reconstruct(y, w, bundle, free if args.post_hoc else pins, config)
        out = result.reconstruction
        if args.post_hoc:
            out = synthesize(bundle, pins, result.selectors, result.indiv_coeffs,
                             config.rank_rule)
        formats.write_vector(out_path, out)
        flag = "" if result.diagnostics.converged else " (did not converge)"
        print(f"{in_path.name}: iterations={result.diagnostics.iterations} "
              f"residual={result.diagnostics.final_residual:.3e}{flag}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    schema, samples = formats.load_manifest(args.manifest)
    ts = assemble(schema, samples)
    config = SolverConfig(**_schedule_kwargs(args), mu0_norm=args.mu0_norm, seed=args.seed)
    start = time.perf_counter()
    bundle = train(ts, config)
    wall = time.perf_counter() - start
    formats.save_bundle(args.output, bundle)
    d = bundle.diagnostics
    print(f"iterations={d.iterations} residual={d.final_residual:.6e} "
          f"residual_unmasked={d.final_residual_unmasked:.6e} wall_time={wall:.2f}s")
    if not d.converged and d.iterations < config.t_max:
        print(f"warning: stalled at iteration {d.iterations} (penalty at mu_max) "
              f"without reaching eps={config.eps}", file=sys.stderr)
    elif not d.converged:
        print(f"warning: stopped at t_max={config.t_max} without reaching "
              f"eps={config.eps}", file=sys.stderr)
    return 0


def _cmd_complete(args: argparse.Namespace) -> int:
    return _run_recon_jobs(args, None)


def _parse_targets(pairs: list[str]) -> dict[str, str]:
    targets = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"--target needs attribute=instantiation, got '{pair}'")
        name, label = pair.split("=", 1)
        targets[name] = label
    return targets


def _cmd_transfer(args: argparse.Namespace) -> int:
    return _run_recon_jobs(args, _parse_targets(args.target))


def _parse_attrs(pairs: list[str]) -> list[tuple[str, int]]:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"--attr needs name=count, got '{pair}'")
        name, count = pair.split("=", 1)
        try:
            m = int(count)
        except ValueError:
            raise ValidationError(f"--attr count must be an integer, got '{count}'") from None
        out.append((name, m))
    return out


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.attr:
        pairs = _parse_attrs(args.attr)
        schema = AttributeSchema.of(
            [(name, [f"{name}_{j}" for j in range(1, m + 1)]) for name, m in pairs]
        )
    else:
        schema = default_spec().schema
    spec = SynthSpec(
        schema=schema,
        dim=args.dim,
        count=args.samples,
        rank_g=args.rank_g,
        sparsity=args.sparsity,
        missing_frac=args.missing_frac,
        noise_amp=args.noise_amp,
        seed=args.seed,
    )
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
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if args.out_txt:
        Path(args.out_txt).write_text(report.to_text())
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
    p.add_argument("--mu0-norm", choices=("spectral", "frobenius"), default="spectral",
                   help="norm of X scaling the initial penalty")
    p.add_argument("--seed", type=int, default=0, help="basis initialization seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("complete", help="fill in partially observed vectors")
    _add_common_recon_flags(p)
    p.set_defaults(func=_cmd_complete, target=None, post_hoc=False)

    p = sub.add_parser("transfer", help="reconstruct with pinned attribute instantiations")
    _add_common_recon_flags(p)
    p.add_argument("--target", "-t", action="append", required=True,
                   metavar="ATTR=INST", help="pin an attribute (repeatable)")
    p.add_argument("--post-hoc", action="store_true",
                   help="substitute pinned selectors after a free solve instead "
                        "of re-solving around them")
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--output", "-o", required=True, help="output directory")
    p.add_argument("--attr", action="append", metavar="NAME=COUNT",
                   help="attribute with its instantiation count (repeatable; "
                        "default attr1=3 attr2=4)")
    p.add_argument("--dim", type=int, default=200, help="vector dimension")
    p.add_argument("--samples", type=int, default=60, help="number of samples")
    p.add_argument("--rank-g", type=int, default=5, help="rank of the individual part")
    p.add_argument("--sparsity", type=float, default=0.05, help="gross error fraction")
    p.add_argument("--missing-frac", type=float, default=0.2, help="hidden cell fraction")
    p.add_argument("--noise-amp", type=float, default=5.0, help="gross error magnitude")
    p.add_argument("--seed", type=int, default=7, help="generator seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval", help="score a trained bundle against planted truth")
    p.add_argument("--bundle", "-b", required=True, help="trained bundle directory")
    p.add_argument("--truth", required=True, help="ground-truth directory from synth")
    p.add_argument("--out-json", default=None, help="also write the report as JSON")
    p.add_argument("--out-txt", default=None, help="also write the report as key=value text")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for interface uniformity; eval is deterministic")
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


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
