"""Command-line entry point: experiments, sweeps, verification, manifests.

Every run writes a result file plus a manifest recording the exact argv,
seeds, package versions, wall time, and sha256 digests of the outputs.
Result files contain no timing or path-dependent data, so rerunning a
manifest with deterministic methods reproduces them byte-for-byte
(`nlsurf rerun --manifest ...` does exactly that and checks the digests).

Exit codes: 0 success, 1 verification failure (or rerun mismatch),
2 usage error, 3 infeasible size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import verify as verify_mod
from .exact import SizeCapExceeded
from .lattice import Boundary, build_lattice, decompose_box, tiling_interfaces, torus_cut
from .mcmc import CHAIN_ENGINE, McmcConfig
from .model import uniform_params
from .quenched import DisorderMC, GridTooLarge, Quadrature, quenched_pressure
from .surface import (
    ROUTES,
    SurfaceTermResult,
    adjacency_term,
    periodic_minus_free,
    scaling_sweep,
    surface_pressure_free,
    surface_pressure_periodic,
)

RESULT_SCHEMA = "nlsurf.result.v11"
MANIFEST_SCHEMA = "nlsurf.manifest.v1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _versions() -> dict:
    """Package versions, the BLAS numpy was built against (float32 result
    bytes depend on its sgemm) and the BLAS thread counts the environment asks for."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before show_config(mode=)
        blas = "unknown"
    threads = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if v in os.environ}
    return {"nlsurf": __version__, "numpy": np.__version__, "python": sys.version.split()[0], "blas": blas, "blas_threads": threads}


def _method_from_args(args) -> Quadrature | DisorderMC | None:
    """The averaging method; None under quadrature without --nodes (verify's per-instance node counts)."""
    if args.method == "quadrature":
        return Quadrature(nodes_per_bond=args.nodes) if args.nodes is not None else None
    return DisorderMC(samples=args.samples, seed=args.seed)


def _method_dict(method) -> dict:
    if isinstance(method, Quadrature):
        return {"kind": "quadrature", "nodes_per_bond": method.nodes_per_bond}
    return {"kind": "disorder_mc", "samples": method.samples, "seed": method.seed}


def _estimate_dict(e) -> dict | None:
    if e is None:
        return None
    return {"value": e.value, "std_error": e.std_error}


def _term_dict(r: SurfaceTermResult) -> dict:
    return {
        "kind": r.kind.value,
        "geometry": {"dim": r.geometry.dim, "L": r.geometry.L, "k": r.geometry.k, "corridor_size": r.geometry.corridor_size},
        "x": r.x,
        "t_nodes": r.t_nodes,
        "routes": {
            "direct": _estimate_dict(r.direct),
            "integral": _estimate_dict(r.integral),
            "per_unit_surface": _estimate_dict(r.per_unit_surface),
        },
        "integrand_tables": {
            name: [{"t": p.t, "value": p.value, "std_error": p.std_error} for p in table] if table else None
            for name, table in r.integrand_tables.items()
        },
    }


def emit_sweep(results: list[SurfaceTermResult]) -> str:
    """Plot-ready CSV: one row per (L, term kind), 17 significant digits."""
    if not results:
        raise ValueError("no results to emit")
    lines = ["L,term,value,stderr,per_unit_surface,per_unit_stderr"]
    for r in results:
        lines.append(
            f"{r.geometry.L},{r.kind.value},{r.integral.value:.17g},{r.integral.std_error:.17g},"
            f"{r.per_unit_surface.value:.17g},{r.per_unit_surface.std_error:.17g}"
        )
    return "\n".join(lines) + "\n"


def _config_snapshot(args, command: str) -> dict:
    # only the physics/method parameters the run reads enter: the snapshot must be
    # identical across reruns so the manifest id (and the result bytes) reproduce
    skip = {"out", "format", "workers", "func", "manifest", "original_argv", "start_time"}
    skip |= {"nodes", "tolerance"} if getattr(args, "method", None) == "mc" else {"samples", "seed"}
    if getattr(args, "mcmc_sweeps", None) is None:
        skip |= {"mcmc_burn_in", "mcmc_stride"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None and not callable(v)}
    cfg["command"] = command
    return cfg


def _write_run(args, command: str, result: dict, csv_text: str | None = None, telemetry: dict | None = None) -> None:
    """Attach the manifest id and write the result: to stdout, or to --out
    with a manifest next to it.

    The manifest holds everything needed to reproduce and audit the run.
    Result files reference it through manifest_id (a digest of the parameter
    snapshot), never the other way around, so reruns are byte-identical while
    the manifest itself may carry wall-clock time.  Telemetry (timings,
    counters, diagnostics) goes to the manifest only, so the result bytes
    reproduce.
    """
    config = _config_snapshot(args, command)
    manifest_id = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    result = dict(result)
    result["schema"] = RESULT_SCHEMA
    result["command"] = command
    result["manifest_id"] = manifest_id
    text = json.dumps(result, sort_keys=True, indent=2) + "\n"

    # --format csv (scaling only) writes the CSV in place of the JSON; with
    # --format json the CSV goes next to an --out file
    as_csv = getattr(args, "format", "json") == "csv"
    primary = csv_text if as_csv else text
    if args.out is None:
        sys.stdout.write(primary)
        return
    out = Path(args.out)
    files = {out: primary}
    if csv_text is not None and not as_csv:
        files[out.with_suffix(".csv")] = csv_text
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        for path, content in files.items():
            path.write_text(content)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "manifest_id": manifest_id,
            "argv": list(args.original_argv),
            "config": config,
            "seeds": {"seed": getattr(args, "seed", None)},
            "versions": _versions(),
            "wall_time_s": time.time() - args.start_time,
            "outputs": {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in files},
            "telemetry": telemetry or {},
        }
        out.with_name(out.stem + ".manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except OSError as exc:  # an unwritable --out is bad input, like an unreadable manifest
        raise ValueError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc


def _boundary(name: str) -> Boundary:
    return Boundary.FREE if name == "free" else Boundary.PERIODIC


# --- subcommand handlers ---------------------------------------------------


def _cmd_lattice_info(args) -> int:
    lat = build_lattice(args.dim, args.side, _boundary(args.bc))
    info: dict = {
        "dim": lat.dim,
        "side": lat.side,
        "boundary": lat.boundary.value,
        "n_sites": lat.n_sites,
        "n_bonds": lat.n_bonds,
    }
    if lat.boundary is Boundary.FREE and lat.side % 2 == 0 and lat.side >= 4:
        dec = decompose_box(lat)
        info["midplane_corridor"] = dec.corridor.cardinality
        info["sub_boxes"] = len(dec.sub_boxes)
    if lat.boundary is Boundary.PERIODIC:
        info["torus_cut"] = torus_cut(lat).cardinality
    if args.tiles is not None:
        if args.tiles < 1 or args.side % args.tiles != 0:
            raise ValueError(f"tile side must be a positive divisor of side {args.side}, got {args.tiles}")
        _, dec = tiling_interfaces(args.dim, args.tiles, args.side // args.tiles)
        info["tiling_corridor"] = dec.corridor.cardinality
    _write_run(args, "lattice-info", info)
    return EXIT_OK


def _cmd_pressure(args) -> int:
    lat = build_lattice(args.dim, args.side, _boundary(args.bc))
    method = _method_from_args(args)
    passes: list[dict] = []
    est = quenched_pressure(lat, uniform_params(lat, args.x), method, telemetry=passes)
    _write_run(
        args,
        "pressure",
        {
            "geometry": {"dim": lat.dim, "side": lat.side, "boundary": lat.boundary.value, "n_sites": lat.n_sites},
            "x": args.x,
            "method": _method_dict(method),
            "value": est.value,
            "std_error": est.std_error,
        },
        telemetry={"passes": passes},
    )
    return EXIT_OK


_TERMS = {
    "adjacency": lambda a, m: adjacency_term(a.dim, a.L, a.x, m, a.t_nodes, routes=a.routes),
    "torus-diff": lambda a, m: periodic_minus_free(a.dim, a.L, a.x, m, a.t_nodes, routes=a.routes),
    "surface-free": lambda a, m: surface_pressure_free(a.dim, a.L, a.x, a.k, m, a.t_nodes, routes=a.routes),
    "surface-periodic": lambda a, m: surface_pressure_periodic(a.dim, a.L, a.x, a.k, m, a.t_nodes, routes=a.routes),
}


def _cmd_term(args) -> int:
    """Every term command: only the requested routes are computed, and a
    single-route payload keeps exactly that route's key."""
    method = _method_from_args(args)
    payload = _term_dict(_TERMS[args.command](args, method))
    if args.routes != "both":
        payload["routes"] = {args.routes: payload["routes"][args.routes]}
    payload["method"] = _method_dict(method)
    _write_run(args, args.command, payload)
    return EXIT_OK


def _cmd_scaling(args) -> int:
    if args.format == "json" and args.out is not None and Path(args.out).suffix == ".csv":
        raise ValueError(
            f"--out {args.out}: with --format json the sweep CSV goes next to the JSON result under a .csv suffix and "
            "would overwrite it; pass --format csv to write the CSV alone, or an --out that does not end in .csv"
        )
    method = _method_from_args(args)
    mcmc = None
    if args.mcmc_sweeps is not None:
        mcmc = McmcConfig(sweeps=args.mcmc_sweeps, burn_in=args.mcmc_burn_in, seed=args.seed, measure_stride=args.mcmc_stride)
    L_list = [int(v) for v in args.L_list.split(",")]
    results = scaling_sweep(args.dim, args.x, L_list, method=method, t_nodes=args.t_nodes, mcmc=mcmc, workers=args.workers)
    payload = {
        "method": _method_dict(method),
        "x": args.x,
        "terms": [_term_dict(r) for r in results],
    }
    telemetry = {"workers": args.workers}
    chains = {f"L{r.geometry.L}": r.chain_telemetry for r in results if r.chain_telemetry}
    if chains:  # the chain engine enters the result only when a chain ran
        payload["method"]["mcmc"] = {
            "engine": CHAIN_ENGINE,
            "sweeps": mcmc.sweeps,
            "burn_in": mcmc.burn_in,
            "measure_stride": mcmc.measure_stride,
        }
    if mcmc is not None:
        telemetry["chains"] = chains
    _write_run(args, "scaling", payload, csv_text=emit_sweep(results), telemetry=telemetry)
    return EXIT_OK


def _cmd_verify(args) -> int:
    method = _method_from_args(args)
    tol = args.tolerance if args.tolerance is not None else verify_mod.DEFAULT_TOL
    passes: list[dict] = []
    reports = verify_mod.run_standard_suite(method, tol=tol, telemetry=passes)
    payload = verify_mod.suite_report(reports)
    _write_run(args, "verify", payload, telemetry={"passes": passes})
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAILED


_RERUNNABLE = ("lattice-info", "pressure", *_TERMS, "scaling", "verify")  # every command but rerun itself


def _cmd_rerun(args) -> int:
    try:
        text = Path(args.manifest).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read manifest {args.manifest}: {exc.strerror or exc}") from exc
    manifest = json.loads(text)
    argv, digests = (manifest.get("argv"), manifest.get("outputs")) if isinstance(manifest, dict) else (None, None)
    if not (isinstance(argv, list) and isinstance(digests, dict) and all(isinstance(d, str) for d in digests.values())):
        raise ValueError(f"{args.manifest} is not a run manifest: it needs an argv list and an outputs table of digests")
    if not (argv and all(isinstance(a, str) for a in argv) and argv[0] in _RERUNNABLE):
        raise ValueError(
            f"{args.manifest} has no rerunnable argv: it must be a list of strings that starts with one of {', '.join(_RERUNNABLE)}"
        )
    if "--out" in argv:
        i = argv.index("--out")
        del argv[i : i + 2]
    out = args.out
    if out is None:
        out = str(Path(args.manifest).with_name("rerun-" + Path(args.manifest).stem.replace(".manifest", "") + ".json"))
    argv += ["--out", out]
    status = run(argv)
    if status not in (EXIT_OK, EXIT_VERIFY_FAILED):
        return status
    new_manifest = json.loads(Path(out).with_name(Path(out).stem + ".manifest.json").read_text())
    # filenames may differ between runs; the content digests must not
    same = sorted(new_manifest["outputs"].values()) == sorted(digests.values())
    sys.stdout.write(json.dumps({"reproduced": bool(same), "outputs": new_manifest["outputs"]}, indent=2) + "\n")
    return EXIT_OK if same else EXIT_VERIFY_FAILED


# --- parser ----------------------------------------------------------------


def _int_at_least(low: int):
    def integer(text: str) -> int:  # argparse names the flag, and a ValueError here reads "invalid integer value"
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text!r}")
        return int(text)

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsurf",
        description="Surface terms of the Gaussian spin glass on the Nishimori line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--x", type=float, required=True, help="coupling strength x = beta*sigma")
        p.add_argument("--method", choices=("quadrature", "mc"), default="quadrature")
        p.add_argument("--nodes", type=int, default=20, help="quadrature nodes per bond")
        p.add_argument("--samples", type=int, default=100_000, help="disorder MC samples")
        p.add_argument("--seed", type=int, default=2024, help="disorder seed")
        out(p)

    def out(p):
        p.add_argument("--out", type=str, default=None, help="result file (stdout if omitted)")

    p = sub.add_parser("lattice-info", help="sites, bonds, corridor cardinalities")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--side", type=int, required=True)
    p.add_argument("--bc", choices=("free", "periodic"), required=True)
    p.add_argument("--tiles", type=int, default=None, help="tile side L for tiling-corridor info")
    out(p)
    p.set_defaults(func=_cmd_lattice_info)

    p = sub.add_parser("pressure", help="quenched pressure of one lattice")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--side", type=int, required=True)
    p.add_argument("--bc", choices=("free", "periodic"), required=True)
    common(p)
    p.set_defaults(func=_cmd_pressure)

    for name in _TERMS:
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} term, direct and integral routes")
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--L", type=int, required=True)
        if name.startswith("surface-"):
            p.add_argument("--k", type=int, default=2, help="magnification (reported, not extrapolated)")
        p.add_argument("--routes", choices=ROUTES, default="both", help="compute only these routes")
        p.add_argument("--t-nodes", dest="t_nodes", type=_int_at_least(2), default=16)
        common(p)
        p.set_defaults(func=_cmd_term)

    p = sub.add_parser("scaling", help="per-unit-surface adjacency sweep over L")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--L-list", dest="L_list", type=str, required=True, help="comma-separated box sizes")
    p.add_argument("--mcmc-sweeps", dest="mcmc_sweeps", type=int, default=None, help="enable the two-level chain estimator")
    p.add_argument("--mcmc-burn-in", dest="mcmc_burn_in", type=int, default=500)
    p.add_argument("--mcmc-stride", dest="mcmc_stride", type=int, default=2)
    p.add_argument("--format", choices=("json", "csv"), default="json", help="csv: the plot-ready table alone")
    workers_help = "threads for the Markov chains: at 2 or more, one helper thread for the whole kernel call draws "
    workers_help += "their uniforms ahead of the sweeps; results never depend on it"
    p.add_argument("--workers", type=_int_at_least(1), default=1, help=workers_help)
    p.add_argument("--t-nodes", dest="t_nodes", type=_int_at_least(2), default=16)
    common(p)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("verify", help="run the identity/inequality suite")
    p.add_argument("--suite", choices=("standard",), default="standard")
    p.add_argument("--method", choices=("quadrature", "mc"), default="quadrature")
    p.add_argument("--nodes", type=int, default=None, help="fixed node count (default: per-instance)")
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=2024)
    tol_help = f"bound for the non-derivative quadrature checks, finite and >= 0 (default {verify_mod.DEFAULT_TOL:g})"
    tol_help += f"; derivative checks keep {verify_mod.DERIVATIVE_TOL:g}, MC checks use 3 combined std errors"
    p.add_argument("--tolerance", type=float, default=None, help=tol_help)
    out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rerun", help="re-execute a manifest and check digests")
    p.add_argument("--manifest", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_rerun)
    return parser


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.original_argv = list(argv)
    args.start_time = time.time()
    try:
        return args.func(args)
    except (SizeCapExceeded, GridTooLarge) as exc:
        sys.stderr.write(f"infeasible size: {exc}\n")
        return EXIT_INFEASIBLE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
