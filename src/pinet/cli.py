"""Command-line entry point: dataset generation, training, cross-
validation, the isomorphism and matrix-sweep experiments, and the
consistency checker.

Exit codes: 0 on success, 1 for invalid input or arguments, 2 for
runtime failures (generation, training, or a failed consistency suite).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import datagen, dataio, model, selfcheck, stats, train
from .errors import DataFormatError, DomainError, GenerationError, NumericalError, ShapeError
from .graph import CORNERS
from .tensor import _pq_scalar


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this artifact reserves
    2 for runtime failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _field(cls, name: str, convert=int, **given) -> dict:
    """The argparse `type` and `default` of a flag that sets config field
    `name` of `cls`. The text is converted, then checked by building the
    config (its other required fields from `given`), so the config's own
    rule decides and its DomainError becomes a usage error; the default
    is the field's."""
    def parse(text):
        try:
            return getattr(cls(**given, **{name: convert(text)}), name)
        except DomainError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return {"type": parse, "default": cls.__dataclass_fields__[name].default}


def _pq_spec(text: str):
    """'learned' or 'P,Q' with both values in [0, 1]."""
    if text == "learned":
        return "learned"
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'learned' or 'P,Q', got {text!r}")
    try:
        return tuple(_pq_scalar(float(x), name).item() for x, name in zip(parts, "pq"))
    except DomainError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _sizes_list(text: str) -> list[int]:
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    if len(set(sizes)) < len(sizes):
        raise argparse.ArgumentTypeError(f"sizes must be distinct, got {text!r}")
    return sizes


def _add_data_flags(p: _Parser):
    p.add_argument("--data", help="dataset file in the internal line-JSON format")
    p.add_argument("--tu-dir", help="directory holding a benchmark in the public text format")
    p.add_argument("--tu-name", help="benchmark name, e.g. MUTAG (with --tu-dir)")


def _add_hyper_flags(p: _Parser, pq_default="learned"):
    """Training flags; `pq_default=None` leaves out `--pq` for commands
    that choose p, q themselves."""
    p.add_argument("--epochs", **_field(train.TrainConfig, "epochs"))
    p.add_argument("--batch-size", **_field(train.TrainConfig, "batch_size"))
    p.add_argument("--lr", **_field(train.TrainConfig, "learning_rate", float))
    p.add_argument("--f0", **_field(model.PiNetConfig, "F0", d=1, C=1), help="first layer width")
    p.add_argument("--f1", **_field(model.PiNetConfig, "F1", d=1, C=1), help="second layer width")
    p.add_argument("--attention-axis", **_field(model.PiNetConfig, "attention_axis", str, d=1, C=1))
    if pq_default is not None:
        p.add_argument("--pq", type=_pq_spec, default=_pq_spec(pq_default),
                       help="'learned' or fixed 'P,Q' used by all message-passing layers "
                            f"(default: {pq_default})")
    p.add_argument("--seed", **_field(train.TrainConfig, "seed"))


def _echo_config(args, extra=None):
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg.update(extra or {})
    print("config:", json.dumps(cfg, sort_keys=True, default=str))


def _check_outputs(inputs: dict, outputs: dict):
    """Refuse, before any file is read or written, an output that names
    an input or another output, that exists and is not a regular file
    (a directory, a FIFO, a device), or whose directory does not exist.
    Both map a flag to its path; an unset path is skipped."""
    seen = {os.path.realpath(path): flag for flag, path in inputs.items() if path}
    for flag, path in outputs.items():
        if not path:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise DomainError(f"{flag} {path} names the same file as {seen[real]}")
        if os.path.exists(real) and not os.path.isfile(real):  # os.stat only, never opened
            raise DomainError(f"{flag} {path} exists and is not a regular file")
        if not os.path.isdir(os.path.dirname(real)):
            raise DomainError(f"{flag} {path}: no such directory")
        seen[real] = flag


def _load(args, outputs: dict) -> dataio.Dataset:
    """The dataset that --data or --tu-dir/--tu-name name, read once
    `_check_outputs` has compared `outputs` with every file it reads:
    the dataset file, or each file of the text layout that
    `dataio.tu_files` names, the optional node-label file included."""
    if args.data and (args.tu_dir or args.tu_name):
        raise DomainError("give either --data or --tu-dir/--tu-name, not both")
    if args.data:
        _check_outputs({"--data": args.data}, outputs)
        return dataio.load_dataset(args.data)
    if args.tu_dir and args.tu_name:
        required, optional = dataio.tu_files(args.tu_dir, args.tu_name)
        _check_outputs({f"--tu-dir/--tu-name file {os.path.basename(path)}": path
                        for path in (*required, optional)}, outputs)
        return dataio.load_tu(args.tu_dir, args.tu_name)
    raise DomainError("a dataset is required: --data PATH or --tu-dir DIR --tu-name NAME")


def _model_config(args, ds: dataio.Dataset, pq) -> model.PiNetConfig:
    fixed = {} if pq == "learned" else {"pq_mode": "fixed", "fixed_p": pq[0], "fixed_q": pq[1]}
    return model.PiNetConfig(
        d=ds.d, C=ds.class_count, F0=args.f0, F1=args.f1,
        attention_axis=args.attention_axis, seed=args.seed, **fixed,
    )


def _train_config(args) -> train.TrainConfig:
    return train.TrainConfig(
        learning_rate=args.lr, batch_size=args.batch_size,
        epochs=args.epochs, seed=args.seed,
    )


def cmd_gen_iso(args) -> int:
    prov_out = args.provenance_out or f"{args.out}.prov.json"
    _check_outputs({}, {"--out": args.out, "--provenance-out": prov_out})
    _echo_config(args, {"provenance_out": prov_out})
    params = datagen.GenParams(
        n_nodes=args.nodes, classes=args.classes, copies=args.copies,
        edge_prob=args.edge_prob, seed=args.seed,
    )
    ds, prov = datagen.generate_iso_dataset(params)
    dataio.save_dataset(ds, args.out)
    datagen.save_provenance(prov, prov_out)
    print(f"wrote {len(ds)} graphs ({params.classes} classes x {params.copies} copies, "
          f"{params.n_nodes} nodes) to {args.out}")
    print(f"wrote provenance to {prov_out}")
    return 0


def cmd_train(args) -> int:
    ds = _load(args, {"--params-out": args.params_out})
    _echo_config(args, {"dataset": ds.name, "graphs": len(ds), "d": ds.d, "C": ds.class_count})
    mc = _model_config(args, ds, args.pq)
    result = train.fit(ds.graphs, _train_config(args), mc)
    acc = train.evaluate(result.params, ds.graphs)
    print(f"epochs: {len(result.epoch_losses)}  steps: {result.steps}")
    print(f"loss: first epoch {result.epoch_losses[0]:.6f}, last epoch {result.epoch_losses[-1]:.6f}")
    print(f"train accuracy: {acc:.4f}")
    print("pq:", json.dumps(result.params.pq_pairs(), sort_keys=True))
    if args.params_out:
        model.save_params(result.params, args.params_out)
        print(f"wrote parameters to {args.params_out}")
    return 0


def cmd_cv(args) -> int:
    ds = _load(args, {"--out": args.out})
    _echo_config(args, {"dataset": ds.name, "graphs": len(ds), "d": ds.d, "C": ds.class_count})
    mc = _model_config(args, ds, args.pq)
    report = train.cross_validate(ds.graphs, args.k, _train_config(args), mc)
    for f, acc in enumerate(report.fold_accuracies):
        print(f"fold {f}: accuracy {acc:.4f} (seed {report.fold_seeds[f]})")
    print(f"mean accuracy: {report.mean:.4f} +- {report.std:.4f} ({args.k} folds)")
    if args.out:
        rows = [
            {"dataset": ds.name, "fold": f, "accuracy": acc}
            for f, acc in enumerate(report.fold_accuracies)
        ]
        stats.write_results_csv(rows, args.out, columns=["dataset", "fold", "accuracy"])
        print(f"wrote per-fold results to {args.out}")
    return 0


def cmd_iso_exp(args) -> int:
    if not args.data:
        raise DomainError("iso-exp requires --data (a generated dataset)")
    prov_path = args.provenance or f"{args.data}.prov.json"
    _check_outputs({"--data": args.data, "--provenance": prov_path}, {"--out": args.out})
    ds = dataio.load_dataset(args.data)
    try:
        prov = datagen.load_provenance(prov_path)
    except FileNotFoundError:
        raise DataFormatError(
            "provenance file is required (generated alongside the dataset)",
            path=prov_path,
        ) from None
    _echo_config(args, {"provenance": prov_path, "dataset": ds.name, "graphs": len(ds)})
    if not datagen.verify_provenance(ds, prov):
        raise DataFormatError(
            f"dataset {args.data} does not replay from its provenance", path=prov_path
        )
    per_class: dict[int, list[int]] = {}
    for i, g in enumerate(ds.graphs):
        per_class.setdefault(g.label, []).append(i)
    smallest = min(len(v) for v in per_class.values())
    if args.trials < 1:
        raise DomainError(f"trials must be an integer >= 1, got {args.trials}")
    for size in args.sizes:
        if size > smallest:
            raise DomainError(
                f"train size {size} exceeds the smallest class size {smallest}"
            )
        if size * len(per_class) == len(ds):
            raise DomainError(f"train size {size} leaves no held-out graph to score")
    jobs = []
    for size in args.sizes:
        for trial in range(args.trials):
            trial_seed = args.seed + 7919 * size + trial
            rng = np.random.default_rng(trial_seed)
            train_idx: list[int] = []
            for cls in sorted(per_class):
                members = np.asarray(per_class[cls])
                picked = rng.choice(len(members), size=size, replace=False)
                train_idx.extend(int(members[i]) for i in picked)
            jobs.append((train_idx, trial_seed))
    accs = train.fit_and_score(ds.graphs, jobs, _train_config(args),
                               _model_config(args, ds, args.pq))
    keys = [(size, trial) for size in args.sizes for trial in range(args.trials)]
    rows = []
    for (size, trial), acc in zip(keys, accs):
        rows.append({"train_size": size, "trial": trial, "accuracy": acc})
        print(f"size {size} trial {trial}: accuracy {acc:.4f}")
    stats.write_results_csv(rows, args.out, columns=["train_size", "trial", "accuracy"])
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


SWEEP_MODES = (*((f"fixed-{p:g}-{q:g}", (p, q)) for p, q in CORNERS), ("learned", "learned"))


def cmd_sweep(args) -> int:
    ds = _load(args, {"--out": args.out})
    _echo_config(args, {"dataset": ds.name, "graphs": len(ds), "d": ds.d, "C": ds.class_count})
    tc = _train_config(args)
    rows = []
    means = {}
    for mode, pq in SWEEP_MODES:
        report = train.cross_validate(ds.graphs, args.k, tc, _model_config(args, ds, pq))
        means[mode] = report.mean
        print(f"{mode}: mean {report.mean:.4f} +- {report.std:.4f}")
        p, q = (None, None) if pq == "learned" else pq
        for f, acc in enumerate(report.fold_accuracies):
            rows.append({
                "dataset": ds.name, "p": p, "q": q,
                "mode": mode, "fold": f, "accuracy": acc,
            })
    fixed_means = [means[m] for m, pq in SWEEP_MODES if pq != "learned"]
    avg_fixed = sum(fixed_means) / len(fixed_means)
    print(f"fixed-mode average: {avg_fixed:.4f}; learned: {means['learned']:.4f}")
    stats.write_results_csv(
        rows, args.out, columns=["dataset", "p", "q", "mode", "fold", "accuracy"]
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_selfcheck(args) -> int:
    _echo_config(args)
    results = selfcheck.run_all(seed=args.seed, quick=args.quick)
    for r in results:
        print(r.one_line())
        for failure in r.failures[:5]:
            print(f"  {failure}")
    bad = [r for r in results if not r.ok]
    print(f"{len(results) - len(bad)}/{len(results)} suites passed")
    return 2 if bad else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pinet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-iso", help="generate the isomorphism-classification dataset")
    p.add_argument("--nodes", **_field(datagen.GenParams, "n_nodes"))
    p.add_argument("--classes", **_field(datagen.GenParams, "classes"))
    p.add_argument("--copies", **_field(datagen.GenParams, "copies"), help="graphs per class")
    p.add_argument("--edge-prob", **_field(datagen.GenParams, "edge_prob", float))
    p.add_argument("--seed", **_field(datagen.GenParams, "seed"))
    p.add_argument("--out", required=True)
    p.add_argument("--provenance-out", default=None)
    p.set_defaults(func=cmd_gen_iso)

    p = sub.add_parser("train", help="train on a full dataset and report training accuracy")
    _add_data_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--params-out", default=None, help="write a parameter checkpoint here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    _add_data_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", default=None, help="per-fold CSV")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("iso-exp", help="accuracy vs training-set size on a generated dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--provenance", default=None,
                   help="provenance file (default: <data>.prov.json)")
    p.add_argument("--sizes", type=_sizes_list, default=[1, 2, 5, 10],
                   help="comma-separated training examples per class")
    p.add_argument("--trials", type=int, default=10)
    # The unnormalized adjacency corner separates the structure-only classes;
    # the 0.5 starting point of learned mode sits in a flat region here.
    _add_hyper_flags(p, pq_default="1,0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_iso_exp)

    p = sub.add_parser("sweep", help="cross-validate the four fixed (p,q) corners and learned mode")
    _add_data_flags(p)
    _add_hyper_flags(p, pq_default=None)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selfcheck", help="run the randomized consistency suites")
    p.add_argument("--seed", **_field(train.TrainConfig, "seed"))
    p.add_argument("--quick", action="store_true", help="smaller case counts")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ShapeError, DataFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1
    except (GenerationError, NumericalError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
