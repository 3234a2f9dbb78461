"""Command-line entry point: data generation, training, verification, reports.

One JSON config file describes a run. Top-level keys:

  out_dir   directory for training artifacts
  dataset   path of the transition JSONL consumed by ``train``
  env       task layout: ``data.ENV_SCHEMA``
  data      generation knobs: ``data.DATA_SCHEMA``
  train     ``train.TRAIN_SCHEMA`` but eval_env, plus ``evaluate`` (default true)
            to toggle greedy-rollout evaluation

Unknown keys are rejected. The constructor taking a value checks its type and
range, naming ``section.field``, and supplies its default. ``--set key=value``
overrides single entries with dotted paths (``--set train.steps=500``);
values are parsed as JSON when possible, otherwise kept as strings.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
The CSV stays the source of truth for plots; SVGs are rendered by hand so
no plotting stack is needed. C4_THREADS caps BLAS worker pools; the package
exports it to the BLAS variables on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from . import apply_thread_cap as _apply_thread_cap
from .data import (DATA_SCHEMA, ENV_SCHEMA, EnvSpec, check_fields, generate, load_jsonl,
                   save_jsonl)
from .errors import C4Error, InputError, ParseError
from .gmm import mixture_to_json
from .train import TRAIN_SCHEMA, TrainConfig, metrics_from_csv, metrics_to_csv, train
from .verify import SUITES, run_suite

# train.evaluate stands in for eval_env, which a JSON document cannot hold
_SECTIONS = {"env": ENV_SCHEMA, "data": DATA_SCHEMA,
             "train": {**{k: v for k, v in TRAIN_SCHEMA.items() if k != "eval_env"},
                       "evaluate": ("bool",)}}


def _encodable_path(path: str) -> bool:
    """What open() and mkdir() need of a str path: no NUL, and os.fsencode succeeds."""
    if "\0" in path:
        return False
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        return False
    return True


_PATH = ("str", _encodable_path, "must be a path the file system can encode, without NUL")
_TOP = {"out_dir": _PATH, "dataset": _PATH, **dict.fromkeys(_SECTIONS, ("object",))}

_REPORT_METRICS = ("td_loss", "tr_n_sample_convention", "eval_return")
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
_MAX_POLYLINE_POINTS = 2000


def _reject_unknown(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise InputError(f"unknown config key {where + key!r}")


def _apply_override(cfg: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep or not key:
        raise InputError(f"--set expects key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except (json.JSONDecodeError, RecursionError):  # kept as text
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        child = node.setdefault(part, {})
        if not isinstance(child, dict):
            raise InputError(f"--set path {key!r} crosses a non-object value")
        node = child
    node[parts[-1]] = value


def load_run_config(path: str, overrides: list[str] | None = None) -> dict:
    """Parse a run config, apply overrides and reject unknown keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config root must be a JSON object")
    for assignment in overrides or []:
        _apply_override(cfg, assignment)
    _reject_unknown(cfg, _TOP, "")
    check_fields(cfg, _TOP)
    for name, schema in _SECTIONS.items():
        _reject_unknown(cfg.get(name, {}), schema, f"{name}.")
    return cfg


def build_env(cfg: dict) -> EnvSpec:
    return EnvSpec.with_circular_modes(**cfg.get("env", {}))


def _train_config(env: EnvSpec, evaluate: bool = True, **fields) -> TrainConfig:
    check_fields({"evaluate": evaluate}, _SECTIONS["train"], "train.")
    return TrainConfig(eval_env=env if evaluate else None, **fields)


def build_train_config(cfg: dict, env: EnvSpec, baseline: bool) -> TrainConfig:
    section = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg.get("train", {}).items()}
    if "steps" not in section:
        raise InputError("config must set train.steps")
    if baseline:
        section["baseline_mode"] = True
    return _train_config(env, **section)


def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config, args.set)
    env = build_env(cfg)
    dataset = generate(env, **cfg.get("data", {}))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_jsonl(dataset, str(out))
    print(json.dumps({"path": str(out), "n_transitions": len(dataset),
                      "ds": dataset.ds, "da": dataset.da,
                      "modes": env.n_modes, "seed": dataset.seed}))
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set)
    dataset_path = cfg.get("dataset")
    if dataset_path is None:
        raise InputError("config must set 'dataset'")
    if not Path(dataset_path).is_file():
        raise InputError(f"dataset not found: {dataset_path}")
    dataset = load_jsonl(dataset_path)
    env = build_env(cfg)
    train_cfg = build_train_config(cfg, env, args.baseline)
    out_dir = Path(cfg.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    on_refresh = None
    if not train_cfg.baseline_mode:
        mixture_dir = out_dir / "mixtures"
        mixture_dir.mkdir(exist_ok=True)

        def on_refresh(step, mixture):
            path = mixture_dir / f"refresh_{step:06d}.json"
            path.write_text(mixture_to_json(mixture), encoding="utf-8")

    critic, metrics = train(dataset, train_cfg, on_refresh=on_refresh)
    suffix = "_baseline" if train_cfg.baseline_mode else ""
    metrics_path = out_dir / f"metrics{suffix}.csv"
    critic_path = out_dir / f"critic{suffix}.json"
    metrics_to_csv(metrics, str(metrics_path))
    critic.save(str(critic_path))
    print(json.dumps({"metrics": str(metrics_path), "critic": str(critic_path),
                      "steps": len(metrics)}))
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["passed"] else 1


def _run_label(path: str, taken: set) -> str:
    base = Path(path).stem
    label = base
    bump = 2
    while label in taken:
        label = f"{base}-{bump}"
        bump += 1
    taken.add(label)
    return label


def _series(rows: list[dict], metric: str) -> list[tuple[int, float]]:
    return [(row["step"], row[metric]) for row in rows if row[metric] is not None]


def _thin(points: list) -> list:
    if len(points) <= _MAX_POLYLINE_POINTS:
        return points
    stride = -(-len(points) // _MAX_POLYLINE_POINTS)
    kept = points[::stride]
    if kept[-1] != points[-1]:
        kept.append(points[-1])
    return kept


def render_metric_svg(metric: str, runs: list[tuple[str, list[dict]]]) -> str:
    """Self-contained SVG overlaying one polyline per run for one metric."""
    width, height = 720, 420
    left, right, top, bottom = 70, 160, 30, 45
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<text x="{left}" y="20" font-family="sans-serif" font-size="14" '
            f'font-weight="bold">{metric}</text>']
    series = [(label, _thin(_series(rows, metric))) for label, rows in runs]
    drawn = [s for s in series if s[1]]
    if not drawn:
        body.append(f'<text x="{width // 2}" y="{height // 2}" '
                    'font-family="sans-serif" font-size="13" '
                    'text-anchor="middle">no data</text>')
        body.append("</svg>")
        return "\n".join(body) + "\n"

    xs = [p[0] for _, pts in drawn for p in pts]
    ys = [p[1] for _, pts in drawn for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 == x1:
        x0, x1 = x0 - 1, x1 + 1
    if y0 == y1:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(x):
        return left + (x - x0) / (x1 - x0) * plot_w

    def sy(y):
        return top + (y1 - y) / (y1 - y0) * plot_h

    axis = (f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
            'stroke="black"/>'
            f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
            f'y2="{height - bottom}" stroke="black"/>')
    body.append(axis)
    labels = [
        (left, height - bottom + 16, "start", f"{x0:.6g}"),
        (width - right, height - bottom + 16, "end", f"{x1:.6g}"),
        (left - 6, height - bottom, "end", f"{y0:.6g}"),
        (left - 6, top + 10, "end", f"{y1:.6g}"),
    ]
    for x, y, anchor, text in labels:
        body.append(f'<text x="{x}" y="{y}" font-family="sans-serif" '
                    f'font-size="11" text-anchor="{anchor}">{text}</text>')

    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{sx(s):.2f},{sy(v):.2f}" for s, v in pts)
            body.append(f'<polyline points="{coords}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 8 + 16 * i
        body.append(f'<rect x="{width - right + 10}" y="{ly - 8}" width="10" '
                    f'height="10" fill="{color}"/>')
        body.append(f'<text x="{width - right + 25}" y="{ly + 1}" '
                    f'font-family="sans-serif" font-size="11">{label}</text>')
    body.append("</svg>")
    return "\n".join(body) + "\n"


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    taken = set()
    for path in args.csv:
        try:
            rows = metrics_from_csv(path)
        except ParseError as exc:
            raise InputError(f"{path}: {exc}") from exc
        runs.append((_run_label(path, taken), rows))
    summary = {}
    for label, rows in runs:
        per_metric = {}
        for metric in _REPORT_METRICS:
            values = [v for _, v in _series(rows, metric)]
            per_metric[metric] = {
                "final": values[-1] if values else None,
                "median": statistics.median(values) if values else None,
            }
        summary[label] = per_metric
    for metric in _REPORT_METRICS:
        (out_dir / f"{metric}.svg").write_text(render_metric_svg(metric, runs),
                                               encoding="utf-8")
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(json.dumps({"out_dir": str(out_dir),
                      "plots": [f"{m}.svg" for m in _REPORT_METRICS],
                      "summary": str(summary_path)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c4",
        description="Clustered cross-covariance control for TD critics.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate an offline dataset")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train a critic and write artifacts")
    tr.add_argument("--config", required=True)
    tr.add_argument("--baseline", action="store_true",
                    help="run the ablation twin with the shared seed")
    tr.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    tr.set_defaults(func=cmd_train)

    ver = sub.add_parser("verify", help="run numerical invariant suites")
    ver.add_argument("--suite", required=True, choices=SUITES)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("report", help="render SVG plots and a summary")
    rep.add_argument("csv", nargs="+")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_thread_cap()
        return args.func(args)
    except (C4Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
