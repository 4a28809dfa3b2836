"""Command-line interface.

Subcommands cover the full pipeline: flow graph inspection, soft propagation,
baseline propagation, partial matching, benchmarking, the lattice and holonomy
experiments, synthetic collection generation, and stability reports.

Every output starts with a provenance header (version, command, seed, config)
and is written atomically; identical invocations produce byte-identical files.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
# benchmark, geometry and matching are imported by the handlers that use
# them, so a command loads and compiles only the modules it runs
from .baselines import METHODS, check_epsilon, direct_propagate, mst_propagate, shortest_path_propagate
from .collection import KNN_DEFAULT, _fmt, atomic_write, load_collection, map_csv, save_collection
from .errors import CorrsyncError, check_integer
from .flow import MAX_PATHS_DEFAULT, directed_flow_matrix
from .soft import LAMBDA_DEFAULT, propagate_soft


# Dests that do not shape an output: the command, its handler, the seed (its
# own header line), the config file (read into options), progress and paths.
_UNRECORDED = frozenset(
    {"command", "func", "seed", "config", "quiet", "out", "svg", "interpolated"}
)


def _write(args, body, info: str, files: tuple[tuple[str, str], ...] = (), **derived) -> int:
    """Write a command's output, body with its provenance, and return 0. The
    provenance holds the version, command, seed and config: every option of
    args not in _UNRECORDED, by dest, overridden by the run-time values in
    derived. A text body follows a four-line comment header; a dict body is
    dumped as JSON with a "provenance" field. The output goes to --out, or to
    stdout when there is none; --out and each (path, text) of files are
    written all or none, before stdout. info goes to stderr unless --quiet."""
    config = {k: v for k, v in vars(args).items() if k not in _UNRECORDED} | derived
    provenance = {"version": __version__, "command": args.command, "seed": args.seed,
                  "config": config}
    if isinstance(body, dict):
        text = json.dumps({**body, "provenance": provenance}, indent=2, sort_keys=True) + "\n"
    else:
        cfg = json.dumps(config, sort_keys=True, default=str)
        text = (
            f"# corrsync {__version__}\n"
            f"# command: {args.command}\n"
            f"# seed: {args.seed}\n"
            f"# config: {cfg}\n"
        ) + body
    atomic_write(((args.out, text), *files) if args.out else files)
    if not args.out:
        sys.stdout.write(text)
    if not args.quiet:
        print(info, file=sys.stderr)
    return 0


def _load_config(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise CorrsyncError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CorrsyncError(f"config file {path} is not UTF-8 text: {exc}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorrsyncError(f"config line {lineno}: expected KEY=VALUE")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _collection(args):
    return load_collection(args.manifest, allow_duplicates=args.allow_duplicates)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_flow(args) -> int:
    collection = _collection(args)
    i = collection.index(args.source)
    j = collection.index(args.target)
    flow = directed_flow_matrix(collection.D, i, j, beta=collection.beta)
    lines = ["# section: matrix\n"]
    for row in flow.F.astype(int):
        lines.append(",".join(str(v) for v in row) + "\n")
    lines.append("# section: edges\n")
    lines.append("from,to,weight\n")
    for a in range(flow.n):
        for b in np.flatnonzero(flow.F[a]):
            lines.append(f"{a},{int(b)},{_fmt(flow.WF[a, b])}\n")
    info = f"flow {args.source}->{args.target}: {int(flow.F.sum())} edges"
    return _write(args, "".join(lines), info)


def _cmd_propagate(args) -> int:
    collection = _collection(args)
    points = None
    if args.source_points != "landmarks":
        points = []
        for token in args.source_points.split(","):
            try:
                points.append(int(token))
            except ValueError:
                raise CorrsyncError(
                    f"--points expects comma-separated vertex indices or 'landmarks', "
                    f"got {token!r}"
                ) from None
    soft = propagate_soft(
        collection, args.source, args.target, lam=args.lam, source_points=points,
        max_paths=args.max_paths, strict=args.strict,
    )
    rows = []
    for v in sorted(soft.queries.tolist()):
        targets, masses = (part.tolist() for part in soft.row(v))
        rows.append({"source_index": v, "support": [[t, m] for t, m in zip(targets, masses)]})
    payload = {
        "source": args.source,
        "target": args.target,
        "lambda": args.lam,
        "rows": rows,
    }
    info = f"propagated {soft.queries.size} rows over {soft.path_count} paths"
    return _write(args, payload, info, beta=collection.beta, path_count=soft.path_count)


def _cmd_baseline(args) -> int:
    check_epsilon(args.epsilon)
    collection = _collection(args)
    if args.method == "direct":
        cmap, route = direct_propagate(collection, args.source, args.target), None
    elif args.method == "mst":
        cmap, route = mst_propagate(collection, args.source, args.target)
    else:
        cmap, route = shortest_path_propagate(
            collection, args.source, args.target, epsilon=args.epsilon
        )
    return _write(args, map_csv(cmap), f"{args.method} route: {route}", route=route)


def _cmd_match(args) -> int:
    from .matching import interpolate_dense, match_pair

    collection = _collection(args)
    ids = args.pair.split(",")
    if len(ids) != 2 or ids[0] == ids[1]:
        raise CorrsyncError(
            f"--pair expects two different comma-separated shape ids, got {args.pair!r}"
        )
    a_id, b_id = ids
    refined, unmatched = match_pair(
        collection, a_id, b_id, radius=args.radius, delta=args.delta,
        max_matches=args.max_matches, lam=args.lam, landmarks=args.landmarks,
        hops=args.hops, k=args.knn,
    )
    # the dense map is built before any output, so a command that fails writes nothing
    dense = ()
    if args.interpolated:
        dense_map = interpolate_dense(refined, collection.shape(a_id), collection.shape(b_id),
                                      collection.oracle(a_id, k=args.knn))
        dense = ((args.interpolated, map_csv(dense_map)),)

    lines = ["source_index,target_index,provenance\n"]
    for m in refined:
        lines.append(f"{m.source},{m.target},{m.provenance}\n")
    info = f"{len(refined)} matches ({unmatched} unmatched landmarks)"
    return _write(args, "".join(lines), info, dense)


def _curves_svg(curves) -> str:
    width, height, margin = 640, 420, 50
    palette = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400", "#16a085"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    tmax = max(float(c.thresholds[-1]) for c in curves) or 1.0
    for ci, curve in enumerate(curves):
        pts = []
        for t, f in zip(curve.thresholds, curve.fractions):
            x = margin + (width - 2 * margin) * float(t) / tmax
            y = height - margin - (height - 2 * margin) * float(f)
            pts.append(f"{x:.2f},{y:.2f}")
        color = palette[ci % len(palette)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>'
        )
        label = curve.method if curve.lam is None else f"{curve.method} λ={curve.lam}"
        parts.append(
            f'<text x="{width - margin - 150}" y="{margin + 16 * ci}" '
            f'fill="{color}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_benchmark(args) -> int:
    from .benchmark import default_grid, run_benchmark

    collection = _collection(args)
    methods = tuple(args.methods.split(",")) if args.methods is not None else METHODS
    result = run_benchmark(
        collection,
        methods=methods,
        lams=args.lam,
        to_mean=args.to_mean,
        grid=default_grid(args.grid_count, args.grid_max),
        normalize=not args.unnormalized,
        epsilon=args.epsilon,
        max_paths=args.max_paths,
    )
    lines = ["method,lambda,threshold,fraction\n"]
    for curve in result.curves:
        lam_repr = "" if curve.lam is None else _fmt(curve.lam)
        for t, f in zip(curve.thresholds, curve.fractions):
            lines.append(f"{curve.method},{lam_repr},{_fmt(t)},{_fmt(f)}\n")
    info = f"{len(result.curves)} curves over {len(result.pairs)} pairs"
    svg = ((args.svg, _curves_svg(result.curves)),) if args.svg else ()
    return _write(args, "".join(lines), info, svg, methods=",".join(methods))


def _cmd_lattice(args) -> int:
    from .geometry import build_lattice, lattice_walks

    lattice = build_lattice(args.side)
    report = lattice_walks(
        lattice,
        mode=args.mode,
        count=args.walks,
        seed=args.seed,
        source=args.source,
        target=args.target,
        beta=args.beta,
        max_steps=args.max_steps,
    )
    lines = ["walk_id,step,x,y\n"]
    for wid, walk in enumerate(report.walks):
        for step, v in enumerate(walk):
            x, y = lattice.coords[v]
            lines.append(f"{wid},{step},{_fmt(x)},{_fmt(y)}\n")
    info = (
        f"{len(report.walks)} {report.mode} walks, {report.discarded} discarded, "
        f"max deviation {max(report.deviations):.4f}"
    )
    return _write(args, "".join(lines), info, discarded=report.discarded)


def _cmd_holonomy(args) -> int:
    from .geometry import (
        GeodesicLegPath,
        TangentVector,
        holonomy_deficit,
        random_triangle,
        tangent_toward,
        transport_along_path,
    )

    check_integer(args.trials, "trials", 1)
    rng = np.random.default_rng(args.seed)
    lines = ["trial,area,deficit,bound,bound_satisfied,integration_gap\n"]
    worst_gap = 0.0
    for trial in range(args.trials):
        tri = random_triangle(rng)
        v = tangent_toward(tri.p, tri.q)
        tv = TangentVector(tri.p, v)
        res = holonomy_deficit(tri, tv)
        numeric = transport_along_path(GeodesicLegPath((tri.p, tri.r, tri.q)), tv, method="rk4")
        gap = float(np.linalg.norm(numeric.vector - res.two_leg))
        worst_gap = max(worst_gap, gap)
        lines.append(
            f"{trial},{_fmt(res.area)},{_fmt(res.deficit)},{_fmt(res.bound)},"
            f"{int(res.bound_satisfied)},{_fmt(gap)}\n"
        )
    info = f"{args.trials} trials, worst closed-vs-integrated gap {worst_gap:.3e}"
    return _write(args, "".join(lines), info)


def _cmd_synth(args) -> int:
    from .benchmark import synth_collection

    collection = synth_collection(
        n_shapes=args.shapes,
        n_points=args.points,
        deform_amplitude=args.amplitude,
        seed=args.seed,
        map_source="truth" if args.truth_maps else "align",
        landmark_count=args.landmarks,
        allow_duplicates=args.allow_duplicates,
    )
    manifest = save_collection(collection, args.out_dir)
    print(manifest)
    return 0


def _cmd_stability(args) -> int:
    from .benchmark import add_far_shape, remove_shape, stability_report

    collection = _collection(args)
    if args.add_far is not None:
        after = add_far_shape(collection, factor=args.add_far)
        edit = {"kind": "add_far", "factor": args.add_far}
    else:
        after = remove_shape(collection, args.remove)
        edit = {"kind": "remove", "shape": args.remove}
    report = stability_report(collection, after, lam=args.lam)
    payload = {
        "edit": edit,
        "shared_ids": list(report.shared_ids),
        "mst_before": [list(e) for e in report.mst_before],
        "mst_after": [list(e) for e in report.mst_after],
        "mst_changed": report.mst_changed,
        "flow_edge_diff": {f"{a}->{b}": v for (a, b), v in sorted(report.flow_edge_diff.items())},
        "tv": {f"{a}->{b}": v for (a, b), v in sorted(report.tv.items())},
    }
    return _write(args, payload, f"mst_changed={report.mst_changed}")


# ---------------------------------------------------------------------------
# parser


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or comma-separated numbers, got {text!r}"
        ) from None


def _add_common(p: argparse.ArgumentParser, manifest: bool = True, out: bool = True) -> None:
    if manifest:
        p.add_argument("--manifest", required=True, help="collection manifest JSON")
        p.add_argument("--allow-duplicates", action="store_true")
    p.add_argument("--config", help="KEY=VALUE defaults file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true", help="suppress progress output")
    if out:
        p.add_argument("--out", help="output path (stdout when omitted)")


# Dests a config file cannot set: outputs, edits and the method and source
# vertex selections are given on the command line only.
_COMMAND_LINE_ONLY = frozenset(
    {"command", "func", "out", "svg", "interpolated", "methods", "source_points", "add_far",
     "remove"}
)


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The corrsync parser; config values, if given, become every subcommand's defaults."""
    parser = argparse.ArgumentParser(
        prog="corrsync",
        description="Correspondence synchronization across shape collections",
    )
    parser.add_argument("--version", action="version", version=f"corrsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="emit one pair's directed flow graph")
    _add_common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("propagate", help="soft correspondence for one pair")
    _add_common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=LAMBDA_DEFAULT)
    p.add_argument("--points", dest="source_points", metavar="POINTS", default="landmarks",
                   help="comma-separated source vertices, or 'landmarks'")
    p.add_argument("--strict", action="store_true",
                   help="drop the direct path when it falls below the threshold")
    p.add_argument("--max-paths", dest="max_paths", type=int, default=MAX_PATHS_DEFAULT)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("baseline", help="single-route propagation")
    _add_common(p)
    p.add_argument("--method", required=True, choices=("direct", "mst", "shortest"))
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--epsilon", type=float, help="pruning threshold for --method shortest")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("match", help="sparse landmark matching for one pair")
    _add_common(p)
    p.add_argument("--pair", required=True, help="source,target shape ids")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--max-matches", dest="max_matches", type=int, default=15)
    p.add_argument("--lambda", dest="lam", type=float, default=LAMBDA_DEFAULT)
    p.add_argument("--landmarks", type=int, default=10,
                   help="farthest-point landmark count when shapes carry none")
    p.add_argument("--hops", type=int, default=1)
    p.add_argument("--knn", type=int, default=KNN_DEFAULT)
    p.add_argument("--interpolated", help="also write a dense interpolated map to this path")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("benchmark", help="error curves for propagation methods")
    _add_common(p)
    p.add_argument("--methods", help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--lambda", dest="lam", type=_float_list, default=(LAMBDA_DEFAULT,),
                   help="threshold or comma-separated sweep")
    p.add_argument("--to-mean", dest="to_mean", action="store_true",
                   help="only score pairs into the central hub shape")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--grid-count", dest="grid_count", type=int, default=100)
    p.add_argument("--grid-max", dest="grid_max", type=float, default=0.5)
    p.add_argument("--unnormalized", action="store_true")
    p.add_argument("--max-paths", dest="max_paths", type=int, default=MAX_PATHS_DEFAULT)
    p.add_argument("--svg", help="also render curves to this SVG path")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("lattice", help="grid walk comparison")
    _add_common(p, manifest=False)
    p.add_argument("--mode", required=True, choices=("standard", "nonbacktracking", "eop"))
    p.add_argument("--walks", type=int, default=100)
    p.add_argument("--side", type=int, default=31)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--source", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=100_000)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("holonomy", help="transport deficit trials on the sphere")
    _add_common(p, manifest=False)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_holonomy)

    # synth takes no --out, and with abbreviations off --out is not read as --out-dir
    p = sub.add_parser("synth", help="generate a synthetic collection", allow_abbrev=False)
    _add_common(p, manifest=False, out=False)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--shapes", type=int, default=8)
    p.add_argument("--points", type=int, default=300)
    p.add_argument("--amplitude", type=float, default=0.08)
    p.add_argument("--landmarks", type=int, default=16)
    p.add_argument("--truth-maps", dest="truth_maps", action="store_true",
                   help="store exact identity maps instead of aligned ones")
    p.add_argument("--allow-duplicates", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("stability", help="collection edit impact report")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--add-far", dest="add_far", nargs="?", const=10.0, type=float,
                       help="add a uniformly distant shape (optional factor)")
    group.add_argument("--remove", help="shape id to remove")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.set_defaults(func=_cmd_stability)

    for p in sub.choices.values():
        p.set_defaults(**(config or {}))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # Config values go in as the subcommand's defaults: a flag still
            # wins, argparse reads each value with its option's type, and keys
            # naming a store_true flag, a command-line-only option or no
            # option at all are left out.
            settable = {
                key for key, value in vars(args).items()
                if key not in _COMMAND_LINE_ONLY and not isinstance(value, bool)
            }
            config = {k: v for k, v in _load_config(args.config).items() if k in settable}
            try:
                args = build_parser(config).parse_args(argv)
            except SystemExit:
                # the command line parsed once already, so a config value failed
                print(f"corrsync: error: the value above comes from --config {args.config}",
                      file=sys.stderr)
                raise
        # every provenance header records the seed, so every command checks it
        check_integer(args.seed, "seed", 0)
        return args.func(args)
    except (CorrsyncError, OSError) as exc:
        # an OSError: a path that is missing, a directory, or otherwise
        # unreadable or unwritable
        print(f"corrsync: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
