"""Command-line entry point: ingest, eval, break, vet, report."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import breaklab, vetting
from .core import TabTextError, as_int
from .embed import HashedNgram, TfIdf, WordVecAvg, make_embedder
from .evaluate import (
    DuplicateDatasetName,
    EvalResult,
    ExperimentSpec,
    _run_specs,
    emit_report,
    format_rows_text,
    parse_results_csv,
    run_experiment,  # noqa: F401 - unused; perfbench/tracer.py patches this name
)
from .ingest import (
    DatasetManifest,
    ingest_dataset,
    load_manifest,
    manifest_from_dict,
    write_table_cache,
)
from .models import Gbdt, make_model
from .select import applicable

EXIT_CODES = {"ingest": 2, "eval": 3, "break": 4, "vet": 5, "report": 1}


# config entries that hold one value per grid axis (or per table)
_LIST_KEYS = ("manifests", "embedders", "models", "selectors", "with_text")
# the types, and their description, of the items of these lists
_ITEM_TYPES = {"selectors": ((str, type(None)), "names or nulls"), "with_text": (bool, "booleans")}
_INT_KEYS = ("k_folds", "feature_cap", "row_cap", "seed")


def _read_config(path: str) -> dict:
    """The JSON config at path, refused unless it is an object whose list
    entries are lists, whose selectors and with_text hold names or null and
    booleans, and whose integer entries hold integers (see core.as_int)."""
    config = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(config, dict):
        raise TabTextError(f"config {path} must be a JSON object")
    for key in _LIST_KEYS:
        if key in config and not isinstance(config[key], list):
            raise TabTextError(f"config {key!r} must be a list, got {config[key]!r}")
    for key, (types, what) in _ITEM_TYPES.items():
        if not all(isinstance(item, types) for item in config.get(key, [])):
            raise TabTextError(f"config {key!r} must be a list of {what}, got {config[key]!r}")
    for key in _INT_KEYS:
        if key in config:
            config[key] = as_int(config[key], f"config {key!r}")
    return config


def _check_out(out) -> None:
    """Refuse an output directory that is not a path or names an existing
    non-directory, before any work is done."""
    if not isinstance(out, str):
        raise TabTextError(f"output directory must be a path, got {out!r}")
    if Path(out).exists() and not Path(out).is_dir():
        raise TabTextError(f"output directory {out} exists and is not a directory")


def _load_manifests(entries) -> list[DatasetManifest]:
    return [
        load_manifest(entry) if isinstance(entry, str) else manifest_from_dict(entry)
        for entry in entries
    ]


def cmd_ingest(args) -> None:
    manifest = load_manifest(args.manifest)
    table, report = ingest_dataset(manifest)
    print(report.to_text(), end="")
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{manifest.name}.report.json").write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    # the snapshot only spares later commands a clean: failing to write it
    # fails nothing
    try:
        cache = write_table_cache(manifest, table, report)
    except OSError as exc:
        print(f"note: no snapshot of {manifest.name!r} written: {exc}", file=sys.stderr)
    else:
        print(f"cached cleaned table: {cache}")


def _build_grid(config: dict, manifests: list[DatasetManifest], seed: int) -> list[ExperimentSpec]:
    embedders = [make_embedder(e) for e in config["embedders"]]
    models = [make_model(m) for m in config["models"]]
    selectors = config.get("selectors", [None])
    with_text_values = config.get("with_text", [True, False])

    # a selector nobody can use is a config mistake, not a skippable cell
    for sel in selectors:
        if sel is None:
            continue
        if not any(applicable(sel, m.task) for m in manifests):
            raise TabTextError(f"selector {sel!r} is not applicable to any configured dataset")

    specs = []
    for manifest in manifests:
        for model in models:
            for embedder in embedders:
                for sel in selectors:
                    if sel is not None and not applicable(sel, manifest.task):
                        continue
                    for with_text in with_text_values:
                        specs.append(
                            ExperimentSpec(
                                manifest=manifest,
                                embedder=embedder,
                                selector=sel,
                                model=model,
                                with_text=with_text,
                                k_folds=config.get("k_folds", 5),
                                feature_cap=config.get("feature_cap", 300),
                                row_cap=config.get("row_cap", 3000),
                                seed=seed,
                            )
                        )
    return specs


def cmd_eval(args) -> None:
    config = _read_config(args.config)
    out = args.out or config.get("out", "run")
    _check_out(out)
    manifests = _load_manifests(config["manifests"])
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    names = [m.name for m in manifests]
    for name in names:
        if names.count(name) > 1:
            raise DuplicateDatasetName(f"two manifests are named {name!r}")
    specs = _build_grid(config, manifests, seed)
    tables = {m.name: ingest_dataset(m)[0] for m in manifests}

    # cell failures are reported, not fatal
    outcomes = _run_specs(specs, tables)
    results = [o for o in outcomes if isinstance(o, EvalResult)]
    failures = [
        f"{spec.dataset_name}/{spec.condition()}: {o}"
        for spec, o in zip(specs, outcomes)
        if not isinstance(o, EvalResult)
    ]
    paths = emit_report(results, out)
    if failures:
        with open(paths["txt"], "a", encoding="utf-8") as fh:
            fh.write("\nfailures:\n")
            fh.writelines(f"  {line}\n" for line in failures)
        raise TabTextError(f"{len(failures)} experiment(s) failed; see {paths['txt']}")
    print(f"wrote {paths['csv']}")


def cmd_break(args) -> None:
    config = _read_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    # compact booster keeps the default run at desk scale
    model = make_model(config["model"]) if "model" in config else Gbdt(4, 0.3, 30)
    breaklab.check_break_model(model)
    if "embedders" in config:
        embedders = [make_embedder(e) for e in config["embedders"]]
    else:
        embedders = [TfIdf(), WordVecAvg(str(breaklab.toy_vector_file())), HashedNgram()]
    if "manifests" in config:
        tables = [ingest_dataset(m)[0] for m in _load_manifests(config["manifests"])]
    else:
        tables = [breaklab.make_break_table(seed=seed)]
    matrix = breaklab.run_break_suite(tables, embedders, model, seed)
    print(matrix.to_text(), end="")
    out = Path(args.out or "break-run")
    out.mkdir(parents=True, exist_ok=True)
    (out / "break_matrix.csv").write_text(matrix.to_csv(), encoding="utf-8")
    (out / "break_matrix.txt").write_text(matrix.to_text(), encoding="utf-8")
    print(f"wrote {out / 'break_matrix.csv'}")


def cmd_vet(args) -> None:
    manifests = [load_manifest(path) for path in args.manifests]
    if args.pair and not set(args.pair) <= {m.name for m in manifests}:
        raise TabTextError("--pair names must match manifest dataset names")
    tables = [ingest_dataset(m)[0] for m in manifests]
    out = Path(args.out or "vet-run")
    out.mkdir(parents=True, exist_ok=True)
    all_checks = {}
    for table in tables:
        checks = vetting.run_curation_checks(table, seed=args.seed or 0)
        all_checks[table.name] = [
            {"rule": c.rule, "verdict": c.verdict, "detail": c.detail} for c in checks
        ]
        print(f"{table.name}:")
        for c in checks:
            print(f"  {c.rule}: {c.verdict} ({c.detail})")
    (out / "checks.json").write_text(json.dumps(all_checks, indent=2) + "\n", encoding="utf-8")
    if args.pair:
        a_name, b_name = args.pair
        by_name = {t.name: t for t in tables}
        if args.live:
            client = vetting.HttpChatLlmClient(args.endpoint, args.model_name)
            print("note: live LLM responses are outside --seed determinism")
        else:
            client = vetting.ReplayLlmClient(args.fixtures)
        matrix = vetting.coverage_matrix([by_name[a_name], by_name[b_name]], client)
        paths = vetting.export_coverage(matrix, out)
        print(f"coverage {a_name} -> {b_name}: {matrix.coverage[0, 1]:.3f}"
              f" (binary {matrix.binary[0, 1]})")
        print(f"coverage {b_name} -> {a_name}: {matrix.coverage[1, 0]:.3f}"
              f" (binary {matrix.binary[1, 0]})")
        print(f"wrote {paths['coverage']}")


def cmd_report(args) -> None:
    csv_text = Path(args.results).read_text(encoding="utf-8-sig")
    text = format_rows_text(parse_results_csv(csv_text))
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.txt").write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabtext",
        description="Benchmark harness for tabular prediction tasks with text columns",
    )
    parser.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load, clean and type-classify one dataset")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("eval", help="run a with/without-text experiment grid")
    p.add_argument("config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("break", help="run the synthetic embedding-failure suite")
    p.add_argument("config", nargs="?", default=None)
    p.set_defaults(func=cmd_break)

    p = sub.add_parser("vet", help="curation rule checks and schema coverage")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--pair", nargs=2, metavar=("A", "B"), default=None)
    p.add_argument("--live", action="store_true", default=False,
                   help="use the HTTP chat-completion client instead of canned responses")
    p.add_argument("--fixtures", default=str(vetting.default_fixture_dir()),
                   help="canned-response directory, read unless --live is given")
    p.add_argument("--endpoint", default="https://api.openai.com/v1/chat/completions")
    p.add_argument("--model-name", default="gpt-4o")
    p.set_defaults(func=cmd_vet)

    p = sub.add_parser("report", help="re-render the text report from a results.csv")
    p.add_argument("results")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command. A failure in its inputs, config or outputs, failed
    eval cells included, prints `<command> failed: <reason>` and returns the
    command's exit code from EXIT_CODES instead of raising."""
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        args.func(args)
    except (TabTextError, OSError, ValueError, KeyError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_CODES[args.command]
    return 0


if __name__ == "__main__":
    sys.exit(main())
