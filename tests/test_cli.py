"""CLI: schemas, exit codes, CSV emission, manifest reproducibility."""

import ctypes
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nlsurf
from nlsurf import cli, exact, mcmc, quenched, surface
from nlsurf.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    _config_snapshot,
    _versions,
    build_parser,
    emit_sweep,
    run,
)
from nlsurf.exact import batch_gibbs
from nlsurf.mcmc import CHAIN_ENGINE, PoorMixingWarning
from nlsurf.quenched import Quadrature
from nlsurf.surface import scaling_sweep


def _run_json(tmp_path, name, argv):
    out = tmp_path / name
    status = run(argv + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return status, data, out


def test_pressure_free_spins(tmp_path):
    status, data, _ = _run_json(
        tmp_path, "p.json", ["pressure", "--dim", "2", "--side", "2", "--bc", "free", "--x", "0", "--method", "quadrature"]
    )
    assert status == EXIT_OK
    assert data["value"] == pytest.approx(4 * math.log(2.0), abs=1e-12)
    assert data["schema"] == "nlsurf.result.v12"
    assert {"command", "geometry", "method", "manifest_id"} <= set(data)


def test_lattice_info(tmp_path):
    status, data, _ = _run_json(
        tmp_path, "l.json", ["lattice-info", "--dim", "2", "--side", "4", "--bc", "free"]
    )
    assert status == EXIT_OK
    assert data["n_sites"] == 16 and data["n_bonds"] == 24
    assert data["midplane_corridor"] == 8


def test_adjacency_route_equality(tmp_path):
    status, data, _ = _run_json(
        tmp_path,
        "a.json",
        ["adjacency", "--dim", "1", "--L", "2", "--x", "0.8", "--method", "quadrature", "--t-nodes", "16", "--routes", "both"],
    )
    assert status == EXIT_OK
    routes = data["routes"]
    assert abs(routes["direct"]["value"] - routes["integral"]["value"]) <= 1e-6
    assert len(data["integrand_tables"]["corridor"]) == 16


def test_adjacency_single_routes(tmp_path):
    status, data, _ = _run_json(
        tmp_path, "ad.json", ["adjacency", "--dim", "1", "--L", "2", "--x", "0.8", "--routes", "direct"]
    )
    assert status == EXIT_OK and set(data["routes"]) == {"direct"}
    status, data, _ = _run_json(
        tmp_path, "ai.json", ["adjacency", "--dim", "1", "--L", "2", "--x", "0.8", "--routes", "integral", "--t-nodes", "8"]
    )
    assert status == EXIT_OK and set(data["routes"]) == {"integral"}


def test_surface_commands(tmp_path):
    status, data, _ = _run_json(
        tmp_path, "sf.json",
        ["surface-free", "--dim", "1", "--L", "2", "--k", "2", "--x", "0.8", "--t-nodes", "8"],
    )
    assert status == EXIT_OK
    assert data["routes"]["integral"]["value"] <= 0.0
    assert data["geometry"]["k"] == 2

    status, data, _ = _run_json(
        tmp_path, "td.json", ["torus-diff", "--dim", "1", "--L", "4", "--x", "0.7", "--t-nodes", "8"]
    )
    assert status == EXIT_OK
    assert abs(data["routes"]["direct"]["value"] - data["routes"]["integral"]["value"]) <= 1e-5


def test_verify_cli_pass_and_fail(tmp_path):
    out = tmp_path / "v.json"
    status = run(["verify", "--suite", "standard", "--method", "mc", "--samples", "2000", "--seed", "7", "--out", str(out)])
    assert status == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] is True and data["n_checks"] > 50

    # an impossible tolerance must be reported through the exit status
    status = run(["verify", "--method", "quadrature", "--nodes", "10", "--tolerance", "0", "--out", str(tmp_path / "vf.json")])
    assert status == EXIT_VERIFY_FAILED


def test_verify_cli_quadrature_suite(tmp_path):
    out = tmp_path / "vq.json"
    status = run(["verify", "--suite", "standard", "--method", "quadrature", "--out", str(out)])
    assert status == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] is True and data["n_failed"] == 0


def test_exit_codes(tmp_path, capsys):
    assert run(["pressure", "--dim", "2", "--side", "4", "--bc", "free", "--x", "0.5", "--method", "quadrature"]) == EXIT_INFEASIBLE
    assert run(["pressure", "--dim", "3", "--side", "3", "--bc", "periodic", "--x", "0.5", "--method", "mc", "--samples", "10"]) == EXIT_INFEASIBLE
    # scaling beyond the cap without a chain config is an infeasible size too
    assert run(["scaling", "--dim", "2", "--L-list", "4", "--x", "0.5", "--method", "mc", "--samples", "10"]) == EXIT_INFEASIBLE
    assert run(["pressure", "--dim", "2", "--side", "3", "--bc", "free", "--x", "0.5", "--bogus"]) == EXIT_USAGE
    assert run(["no-such-command"]) == EXIT_USAGE
    # --format belongs to scaling, the one command with a CSV table
    assert run(["adjacency", "--dim", "1", "--L", "2", "--x", "0.8", "--format", "csv"]) == EXIT_USAGE
    # beyond the cap the direct route is infeasible whatever the chain settings
    capsys.readouterr()
    assert run(["adjacency", "--dim", "2", "--L", "4", "--x", "0.5", "--routes", "direct"]) == EXIT_INFEASIBLE
    assert "--mcmc-sweeps" not in capsys.readouterr().err
    # outside input is a usage error with an error line, not a traceback
    (tmp_path / "no-argv.json").write_text('{"outputs": {}}')
    (tmp_path / "int-argv.json").write_text('{"argv": [1, 2], "outputs": {}}')
    (tmp_path / "int-digest.json").write_text('{"argv": ["lattice-info"], "outputs": {"a": 1, "b": "x"}}')
    looped = tmp_path / "looped.json"
    looped.write_text(json.dumps({"argv": ["rerun", "--manifest", str(looped)], "outputs": {}}))
    for argv in (
        ["lattice-info", "--dim", "1", "--side", "4", "--bc", "free", "--tiles", "0"],
        ["rerun", "--manifest", str(tmp_path / "missing.json")],
        ["rerun", "--manifest", str(tmp_path / "no-argv.json")],
        ["rerun", "--manifest", str(tmp_path / "int-argv.json")],
        ["rerun", "--manifest", str(tmp_path / "int-digest.json")],
        ["rerun", "--manifest", str(looped)],
        *(["verify", "--method", "quadrature", "--nodes", "4", "--tolerance", t] for t in ("-1", "nan", "inf")),
        # a node count past the cap is bad input, not a NaN value from numpy's Hermite weights
        ["pressure", "--dim", "1", "--side", "2", "--bc", "free", "--x", "0.5", "--nodes", "400"],
        ["verify", "--method", "quadrature", "--nodes", "400"],
    ):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


def test_bad_worker_count_is_usage_error(capsys):
    # scaling still parses --workers (it selects nothing) and refuses a count
    # below 1; every other command refuses the flag
    for workers in ("0", "-3", "two"):
        for argv in (
            "scaling --dim 1 --L-list 2 --x 0.5 --nodes 6 --t-nodes 2",
            "pressure --dim 1 --side 2 --bc free --x 0.5",
        ):
            capsys.readouterr()
            assert run(argv.split() + ["--workers", workers]) == EXIT_USAGE
            assert "--workers" in capsys.readouterr().err


def test_repeated_or_bad_size_in_L_list_is_usage_error(capsys):
    # each size names its own term, CSV row and chain telemetry entry, so a
    # repeat is refused with the sizes named; a non-integer entry by flag
    for sizes, named in (("4,4", "once, got [4, 4]"), ("2,3,2", "once, got [2, 3, 2]"), ("2,x", "--L-list"), ("2.5", "--L-list"), ("", "--L-list")):
        capsys.readouterr()
        argv = ["scaling", "--dim", "2", "--L-list", sizes, "--x", "0.5", "--method", "mc", "--samples", "2", "--mcmc-sweeps", "40", "--mcmc-burn-in", "8"]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


def test_t_nodes_below_two_is_usage_error(capsys):
    # a t-rule needs two nodes: below that every term command and scaling
    # refuse the value by flag, a direct-only route included
    for t_nodes in ("0", "1", "-3"):
        for argv in (
            "adjacency --dim 1 --L 2 --x 0.5 --nodes 4",
            "adjacency --dim 1 --L 2 --x 0.5 --nodes 4 --routes direct",
            "torus-diff --dim 1 --L 2 --x 0.5 --nodes 4",
            "surface-free --dim 1 --L 2 --x 0.5 --nodes 4",
            "surface-periodic --dim 1 --L 2 --x 0.5 --nodes 4",
            "scaling --dim 1 --L-list 2 --x 0.5 --nodes 4",
        ):
            capsys.readouterr()
            assert run(argv.split() + ["--t-nodes", t_nodes]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "--t-nodes" in err and "at least 2" in err


def test_config_snapshot_keys_per_method():
    # the snapshot (so the manifest id) holds only what the method reads:
    # --nodes (and verify's --tolerance) under quadrature, --samples and --seed
    # under disorder MC, the chain options only with --mcmc-sweeps
    def keys(argv):
        args = build_parser().parse_args(argv.split())
        return set(_config_snapshot(args, args.command))

    pressure = {"command", "dim", "side", "bc", "x", "method"}
    assert keys("pressure --dim 1 --side 2 --bc free --x 0.5 --seed 3") == pressure | {"nodes"}
    assert keys("pressure --dim 1 --side 2 --bc free --x 0.5 --method mc --nodes 8") == pressure | {"samples", "seed"}
    term = {"command", "dim", "L", "x", "method", "routes", "t_nodes"}
    assert keys("adjacency --dim 1 --L 2 --x 0.5 --samples 9") == term | {"nodes"}
    assert keys("surface-free --dim 1 --L 2 --x 0.5 --method mc") == term | {"k", "samples", "seed"}
    assert keys("torus-diff --dim 1 --L 2 --x 0.5 --routes direct --t-nodes 8") == term - {"t_nodes"} | {"nodes"}
    sweep = {"command", "dim", "L_list", "x", "method", "t_nodes"}
    assert keys("scaling --dim 2 --L-list 4 --x 0.5 --mcmc-burn-in 9") == sweep | {"nodes"}
    assert keys("scaling --dim 2 --L-list 4 --x 0.5 --method mc --mcmc-stride 3") == sweep | {"samples", "seed"}
    chains = sweep | {"samples", "seed", "mcmc_sweeps", "mcmc_burn_in", "mcmc_stride"}
    assert keys("scaling --dim 2 --L-list 4 --x 0.5 --method mc --mcmc-sweeps 40 --workers 2") == chains
    assert keys("verify --seed 5 --tolerance 1e-3") == {"command", "method", "suite", "tolerance"}
    assert keys("verify --method mc --nodes 8 --tolerance 1e-3") == {"command", "method", "suite", "samples", "seed"}


def test_unread_options_leave_the_bytes(tmp_path):
    # runs that differ only in an option their method or route never reads write the
    # same bytes, manifest id included
    quadrature = ["pressure", "--dim", "1", "--side", "2", "--bc", "free", "--x", "0.5", "--nodes", "6"]
    mc = ["adjacency", "--dim", "1", "--L", "2", "--x", "0.5", "--method", "mc", "--samples", "64", "--t-nodes", "2"]
    direct = ["adjacency", "--dim", "1", "--L", "2", "--x", "0.5", "--nodes", "4", "--routes", "direct"]
    for name, base, variants in (
        ("q", quadrature, (["--seed", "1"], ["--seed", "2"], ["--samples", "7"])),
        ("mc", mc, (["--nodes", "8"], ["--nodes", "20"])),
        ("d", direct, (["--t-nodes", "4"], ["--t-nodes", "8"])),
    ):
        outputs = []
        for i, extra in enumerate(variants):
            status, _, out = _run_json(tmp_path, f"{name}{i}.json", base + extra)
            assert status == EXIT_OK
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    # exit 1 means a failed verification or rerun; a result that cannot be written is bad input
    (tmp_path / "file").write_text("")
    for out in (tmp_path, tmp_path / "file" / "l.json"):
        capsys.readouterr()
        assert run(["lattice-info", "--dim", "1", "--side", "4", "--bc", "free", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot write ")


def test_size_cap_advice_names_a_reachable_path(capsys):
    # commands without a chain path must not point at the Markov-chain module
    for argv in (
        "pressure --dim 2 --side 5 --bc free --x 0.5 --method mc --samples 2",
        "torus-diff --dim 2 --L 5 --x 0.5 --method mc --samples 2 --t-nodes 2",
    ):
        capsys.readouterr()
        assert run(argv.split()) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "nlsurf.mcmc" not in err and "exact enumeration" in err and "--mcmc-sweeps" in err


def test_scaling_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["scaling", "--dim", "1", "--L-list", "2,4", "--x", "0", "--method", "quadrature", "--t-nodes", "4", "--format", "csv"]
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert run(argv) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()  # without --out the CSV goes to stdout
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "L,term,value,stderr,per_unit_surface,per_unit_stderr"
    assert len(lines) == 3
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[2]) == 0.0 and float(cols[4]) == 0.0


def test_scaling_json_schema(tmp_path):
    out = tmp_path / "s.json"
    status = run(
        ["scaling", "--dim", "1", "--L-list", "2", "--x", "0.5", "--method", "quadrature", "--t-nodes", "4", "--out", str(out)]
    )
    assert status == EXIT_OK
    data = json.loads(out.read_text())
    assert data["schema"] == "nlsurf.result.v12" and data["command"] == "scaling"
    term = data["terms"][0]
    assert {"kind", "geometry", "routes", "integrand_tables"} <= set(term)
    assert (tmp_path / "s.csv").exists()  # sweep CSV emitted alongside the JSON


def test_emit_sweep_format():
    rs = scaling_sweep(1, 0.5, [2], method=Quadrature(16), t_nodes=4)
    text = emit_sweep(rs)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    val = lines[1].split(",")[2]
    assert len(val.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15  # 17 significant digits
    with pytest.raises(ValueError):
        emit_sweep([])


def test_scaling_chain_telemetry_in_manifest_only(tmp_path):
    # L=2 enumerates, L=4 runs chains: one sweep through both inner engines
    argv = ["scaling", "--dim", "2", "--L-list", "2,4", "--x", "0.5", "--method", "mc", "--samples", "2", "--seed", "3",
            "--t-nodes", "2", "--mcmc-sweeps", "40", "--mcmc-burn-in", "10"]
    with pytest.warns(PoorMixingWarning):
        status, data, _ = _run_json(tmp_path, "s.json", argv)
    assert status == EXIT_OK
    assert data["method"]["mcmc"] == {"engine": CHAIN_ENGINE, "sweeps": 40, "burn_in": 10, "measure_stride": 2}
    assert "telemetry" not in data
    chains = json.loads((tmp_path / "s.manifest.json").read_text())["telemetry"]["chains"]
    tel = chains["L4"]
    assert set(chains) == {"L4"}
    assert tel["chains"] == 4 and tel["site_sweeps"] == 4 * 64 * 40
    assert tel["chain_s"] > 0 and tel["ns_per_site_sweep"] > 0
    assert 0.0 < tel["mean_acceptance"] <= 1.0
    assert tel["min_ess"] < 32 and tel["poor_mixing_warnings"] == 1
    exact, chained = data["terms"]
    assert exact["routes"]["direct"] is not None and exact["integrand_tables"]["center_bond"]
    assert chained["routes"]["direct"] is None


def test_scaling_without_chains_records_no_chain_engine(tmp_path):
    # L=2 enumerates although chains are configured: the result carries no
    # chain engine, so its bytes do not move when CHAIN_ENGINE does
    argv = ["scaling", "--dim", "2", "--L-list", "2", "--x", "0.5", "--method", "mc", "--samples", "64",
            "--t-nodes", "2", "--mcmc-sweeps", "40", "--mcmc-burn-in", "8"]
    status, data, _ = _run_json(tmp_path, "s.json", argv)
    assert status == EXIT_OK
    assert "mcmc" not in data["method"]
    assert json.loads((tmp_path / "s.manifest.json").read_text())["telemetry"]["chains"] == {}


@pytest.mark.filterwarnings("ignore::nlsurf.mcmc.PoorMixingWarning")
def test_scaling_worker_count_in_telemetry_only(tmp_path, monkeypatch):
    # a two-level sweep at --workers 1 and 2, each at one and two CPUs: the
    # same result and CSV bytes and manifest id; the inert worker count is
    # recorded nowhere, and the chains' telemetry records the threads their
    # 80 sweeps (3 blocks) ran on: the helper draws at two CPUs
    argv = ["scaling", "--dim", "2", "--L-list", "4", "--x", "0.5", "--method", "mc", "--samples", "2", "--seed", "3",
            "--t-nodes", "2", "--mcmc-sweeps", "80", "--mcmc-burn-in", "10"]
    runs = set()
    for workers in (1, 2):
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            status, _, out = _run_json(tmp_path, f"w{workers}c{cpus}.json", argv + ["--workers", str(workers)])
            assert status == EXIT_OK
            manifest = json.loads((tmp_path / f"w{workers}c{cpus}.manifest.json").read_text())
            assert "workers" not in manifest["telemetry"] and "workers" not in manifest["config"]
            assert manifest["telemetry"]["chains"]["L4"]["threads"] == cpus
            runs.add((out.read_bytes(), out.with_suffix(".csv").read_bytes(), manifest["manifest_id"]))
    assert len(runs) == 1


def test_manifest_records_blas_result_does_not(tmp_path, monkeypatch):
    # the BLAS build and the requested BLAS thread counts go to the manifest;
    # the result bytes do not depend on them
    argv = ["pressure", "--dim", "1", "--side", "2", "--bc", "free", "--x", "0.5"]
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        status, _, out = _run_json(tmp_path, f"b{threads}.json", argv)
        assert status == EXIT_OK
        versions = json.loads((tmp_path / f"b{threads}.manifest.json").read_text())["versions"]
        assert isinstance(versions["blas"], str) and versions["blas"]
        assert versions["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
        assert "MKL_NUM_THREADS" not in versions["blas_threads"]
        results.append(out.read_bytes())
    assert results[0] == results[1]


def test_manifest_roundtrip_mc(tmp_path):
    out = tmp_path / "adj.json"
    argv = ["adjacency", "--dim", "2", "--L", "2", "--x", "0.6", "--method", "mc", "--samples", "2000",
            "--seed", "99", "--t-nodes", "4", "--out", str(out)]
    assert run(argv) == EXIT_OK
    manifest_path = tmp_path / "adj.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["argv"] == argv
    first_bytes = out.read_bytes()

    rerun_out = tmp_path / "adj2.json"
    status = run(["rerun", "--manifest", str(manifest_path), "--out", str(rerun_out)])
    assert status == EXIT_OK
    assert rerun_out.read_bytes() == first_bytes


def test_manifest_roundtrip_quadrature(tmp_path):
    out = tmp_path / "q.json"
    argv = ["torus-diff", "--dim", "1", "--L", "4", "--x", "0.7", "--method", "quadrature", "--t-nodes", "8", "--out", str(out)]
    assert run(argv) == EXIT_OK
    first = out.read_bytes()
    status = run(["rerun", "--manifest", str(tmp_path / "q.manifest.json"), "--out", str(tmp_path / "q2.json")])
    assert status == EXIT_OK
    assert (tmp_path / "q2.json").read_bytes() == first


def test_result_references_manifest(tmp_path):
    out = tmp_path / "r.json"
    run(["pressure", "--dim", "1", "--side", "2", "--bc", "free", "--x", "0.5", "--out", str(out)])
    data = json.loads(out.read_text())
    manifest = json.loads((tmp_path / "r.manifest.json").read_text())
    assert data["manifest_id"] == manifest["manifest_id"]
    assert manifest["outputs"][out.name] == __import__("hashlib").sha256(out.read_bytes()).hexdigest()


def test_pressure_takes_no_t_nodes(tmp_path, capsys):
    # a pressure has no t-integral: --t-nodes is a usage error there, and the
    # config snapshot (so the manifest id) carries no t_nodes
    argv = ["pressure", "--dim", "1", "--side", "2", "--bc", "free", "--x", "0.5"]
    assert run(argv + ["--t-nodes", "4"]) == EXIT_USAGE
    assert "--t-nodes" in capsys.readouterr().err
    status, _, _ = _run_json(tmp_path, "p.json", argv)
    assert status == EXIT_OK
    config = json.loads((tmp_path / "p.manifest.json").read_text())["config"]
    assert config["command"] == "pressure" and "t_nodes" not in config

def test_manifest_keys(tmp_path):
    # the manifest's top-level keys are its schema: pinned exactly
    status, _, _ = _run_json(tmp_path, "k.json", ["pressure", "--dim", "1", "--side", "2", "--bc", "free", "--x", "0.5"])
    assert status == EXIT_OK
    manifest = json.loads((tmp_path / "k.manifest.json").read_text())
    assert set(manifest) == {
        "schema", "manifest_id", "argv", "config", "seeds", "versions", "wall_time_s", "outputs", "telemetry"
    }
    assert manifest["schema"] == "nlsurf.manifest.v1"


def test_scaling_json_out_csv_is_usage_error(tmp_path, capsys):
    # with --format json the sweep CSV goes to out.with_suffix(".csv"): a .csv
    # --out would be overwritten by it and the JSON result lost
    out = tmp_path / "sweep.csv"
    argv = ["scaling", "--dim", "1", "--L-list", "2", "--x", "0.5", "--nodes", "6", "--t-nodes", "2", "--out", str(out)]
    capsys.readouterr()
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--format csv" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("module", ["nlsurf.cli", "nlsurf"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    # without the console script, python -m runs the same command line: an
    # --out that is a directory is a usage error, not a silent exit 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", module, "lattice-info", "--dim", "1", "--side", "4", "--bc", "free", "--out", str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_USAGE and done.stderr.startswith("error: cannot write")


def test_manifest_version_is_the_project_version():
    # one version literal: the package's, which is the one in pyproject.toml
    # (read with a regex, since Python 3.10 has no tomllib)
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]*)"', project, re.M).group(1)
    assert _versions()["nlsurf"] == nlsurf.__version__ == version


def test_cli_import_loads_no_metadata_or_executor():
    # importlib.metadata pulls in email, socket and calendar, and the helper
    # thread's executor is imported by the first run that uses it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    code = "import sys; before = set(sys.modules); import nlsurf.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = set(done.stdout.split())
    assert "nlsurf.cli" in loaded
    assert not {"importlib.metadata", "concurrent.futures"} & loaded


_PASS_KEYS = {
    "method", "nodes", "active_bonds", "group_order", "grid_points", "chunks", "representatives", "source_variants", "engine_rows", "cores_s"
}


@pytest.mark.parametrize(
    "argv, passes",
    [
        (["pressure", "--dim", "2", "--side", "2", "--bc", "free", "--x", "0.6", "--nodes", "9"], 1),
        (["verify"], 8),
        (["verify", "--method", "mc", "--samples", "2"], 81),
    ],
    ids=["pressure", "verify-quad", "verify-mc"],
)
def test_pass_telemetry_in_manifest_only(tmp_path, argv, passes):
    # one record per disorder pass, under the manifest's telemetry alone: the
    # result carries none, so its bytes and manifest id do not move
    status, data, _ = _run_json(tmp_path, "t.json", argv)
    assert status in (EXIT_OK, EXIT_VERIFY_FAILED) and "telemetry" not in data  # 2 samples fail checks
    records = json.loads((tmp_path / "t.manifest.json").read_text())["telemetry"]["passes"]
    assert len(records) == passes
    assert all(set(r) == _PASS_KEYS for r in records)
    for r in records:
        assert r["engine_rows"] == r["representatives"] * r["source_variants"] and r["cores_s"] >= 0.0
        if r["method"] == "quadrature":
            assert r["grid_points"] == r["nodes"] ** r["active_bonds"] and r["representatives"] <= r["grid_points"]
        else:
            assert r["nodes"] is None and r["group_order"] == 1 and r["representatives"] == r["grid_points"] == 2
    if argv[0] == "pressure":
        # Burnside's count of the orbits of 9**4 points under the 8 symmetries of the square's edges
        assert records[0]["group_order"] == 8 and records[0]["representatives"] == (9**4 + 2 * 9**3 + 3 * 9**2 + 2 * 9) // 8


_TERM_TELEMETRY = {"engine_threads", "passes", "minor_faults"}
_CHAIN_KEYS = {
    "chains", "site_sweeps", "chain_s", "ns_per_site_sweep", "threads", "mean_acceptance", "min_ess", "poor_mixing_warnings"
}


@pytest.mark.parametrize(
    "argv, keys",
    [
        ("adjacency --dim 1 --L 2 --x 0.5 --nodes 4 --t-nodes 2", _TERM_TELEMETRY),
        ("torus-diff --dim 1 --L 4 --x 0.5 --method mc --samples 64 --t-nodes 2", _TERM_TELEMETRY),
        ("surface-free --dim 1 --L 2 --x 0.5 --method mc --samples 64 --t-nodes 2", _TERM_TELEMETRY),
        ("surface-periodic --dim 1 --L 2 --x 0.5 --nodes 4 --t-nodes 2", _TERM_TELEMETRY),
        ("pressure --dim 1 --side 2 --bc free --x 0.5 --nodes 4", {"engine_threads", "passes", "minor_faults"}),
        ("verify --method mc --samples 2", {"engine_threads", "passes", "minor_faults"}),
        ("scaling --dim 1 --L-list 2 --x 0.5 --nodes 4 --t-nodes 2", {"engine_threads", "passes", "minor_faults"}),
        ("scaling --dim 2 --L-list 4 --x 0.5 --method mc --samples 2 --t-nodes 2 --mcmc-sweeps 40 --mcmc-burn-in 8", {"engine_threads", "passes", "chains", "minor_faults"}),
        ("lattice-info --dim 1 --side 4 --bc free", {"minor_faults"}),
    ],
    ids=["adjacency", "torus-diff", "surface-free", "surface-periodic", "pressure", "verify", "scaling", "scaling-chains", "lattice-info"],
)
@pytest.mark.filterwarnings("ignore::nlsurf.mcmc.PoorMixingWarning")  # the chain case runs 40 sweeps
def test_telemetry_keys_per_command(tmp_path, argv, keys):
    status, data, _ = _run_json(tmp_path, "t.json", argv.split())
    assert status in (EXIT_OK, EXIT_VERIFY_FAILED) and "telemetry" not in data  # 2 samples fail checks
    telemetry = json.loads((tmp_path / "t.manifest.json").read_text())["telemetry"]
    assert set(telemetry) == keys and type(telemetry["minor_faults"]) is int and telemetry["minor_faults"] >= 0
    if "engine_threads" in keys:
        assert telemetry["engine_threads"] == exact.engine_threads() in (1, 2)
    if "passes" in keys:
        assert telemetry["passes"] and all(set(r) == _PASS_KEYS for r in telemetry["passes"])
    if "chains" in keys:
        assert set(telemetry["chains"]) == {"L4"} and set(telemetry["chains"]["L4"]) == _CHAIN_KEYS
        assert telemetry["chains"]["L4"]["threads"] == mcmc._draw_threads(40) in (1, 2)


def test_term_telemetry_counts_every_engine_call(tmp_path, monkeypatch):
    # the bench's adj-mc command: 2 chunks of 4096 samples, each enumerated for
    # 2 endpoint log Z and 16 t-nodes, so 36 float32 calls over 147,456 rows,
    # as a wrapper around the engine counts them too: the term's one record
    # holds chunks x source_variants calls and their rows
    calls = []

    def counting(lattice, K_batch, **kwargs):
        calls.append(("f64" if kwargs.get("precise", True) else "f32", len(K_batch)))
        return batch_gibbs(lattice, K_batch, **kwargs)

    monkeypatch.setattr(surface, "batch_gibbs", counting)
    argv = "adjacency --dim 2 --L 2 --x 0.8 --method mc --t-nodes 16 --samples 8192 --seed 1".split()
    status, _, _ = _run_json(tmp_path, "am.json", argv)
    telemetry = json.loads((tmp_path / "am.manifest.json").read_text())["telemetry"]
    [record] = telemetry["passes"]
    assert status == EXIT_OK and (record["method"], record["chunks"], record["representatives"]) == ("disorder_mc", 2, 8192)
    assert len(calls) == 36 and sum(rows for _, rows in calls) == 147_456 and {dt for dt, _ in calls} == {"f32"}
    assert (record["chunks"] * record["source_variants"], record["engine_rows"]) == (2 * 18, 147_456)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap-top pad is a glibc mallopt")
def test_freed_heap_stays_in_the_process(tmp_path):
    # cli.run pads glibc's heap tops, so the temporaries each disorder chunk
    # frees stay mapped: a second run of the bench's adj-mc command faults in
    # a few dozen pages at most, where trimming at every free faulted about
    # 13,000 back in on every run (the batch_gibbs helper's arena included)
    argv = "adjacency --dim 2 --L 2 --x 0.8 --method mc --t-nodes 16 --samples 8192 --seed 1".split()
    for _ in range(2):
        status, _, _ = _run_json(tmp_path, "am.json", argv)
        assert status == EXIT_OK
    assert json.loads((tmp_path / "am.manifest.json").read_text())["telemetry"]["minor_faults"] < 1000


def test_run_without_mallopt_writes_the_same_bytes(tmp_path, monkeypatch):
    # where the C library has no mallopt (macOS), the heap pad is skipped
    # and nothing else changes
    argv = "adjacency --dim 1 --L 2 --x 0.8 --method mc --samples 4096 --t-nodes 4".split()
    _, _, padded = _run_json(tmp_path, "a.json", argv)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
    cli._keep_freed_heap.cache_clear()
    try:
        status, _, plain = _run_json(tmp_path, "b.json", argv)
    finally:
        cli._keep_freed_heap.cache_clear()  # the next run pads again
    assert status == EXIT_OK and plain.read_bytes() == padded.read_bytes()


def test_surface_periodic_records_every_pass(tmp_path, monkeypatch):
    # both routes: the two integral terms' passes, then the two quenched
    # pressures of the direct route, whose engine rows add up to what a
    # wrapper around the engine in either module counts
    rows = []

    def counting(lattice, K_batch, **kwargs):
        rows.append(len(K_batch))
        return batch_gibbs(lattice, K_batch, **kwargs)

    monkeypatch.setattr(surface, "batch_gibbs", counting)
    monkeypatch.setattr(quenched, "batch_gibbs", counting)
    status, _, _ = _run_json(tmp_path, "sp.json", "surface-periodic --dim 1 --L 2 --k 2 --x 0.8 --nodes 8 --t-nodes 4".split())
    records = json.loads((tmp_path / "sp.manifest.json").read_text())["telemetry"]["passes"]
    assert status == EXIT_OK and len(records) == 4 and all(set(r) == _PASS_KEYS for r in records)
    assert [r["source_variants"] for r in records] == [4, 4, 1, 1]
    assert [r["grid_points"] for r in records] == [8**2, 8**4, 8**2, 8**4]
    assert sum(r["engine_rows"] for r in records) == sum(rows)


@pytest.mark.filterwarnings("ignore::nlsurf.mcmc.PoorMixingWarning")  # 40 sweeps
def test_scaling_records_one_pass_per_size(tmp_path):
    # L=2 is enumerated (2 endpoints and 2 t-nodes a chunk); at L=4 the chains
    # read the stream, and the engine enumerates nothing
    argv = "scaling --dim 2 --L-list 2,4 --x 0.5 --method mc --samples 3 --t-nodes 2 --mcmc-sweeps 40 --mcmc-burn-in 8".split()
    status, _, _ = _run_json(tmp_path, "s.json", argv)
    enumerated, chained = json.loads((tmp_path / "s.manifest.json").read_text())["telemetry"]["passes"]
    assert status == EXIT_OK and enumerated["representatives"] == chained["representatives"] == 3
    assert (enumerated["source_variants"], enumerated["engine_rows"]) == (4, 12)
    assert (chained["source_variants"], chained["engine_rows"], chained["active_bonds"]) == (0, 0, 112)
