import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np
import pytest

from prodexp import checks, cli
from prodexp.hwmod import SugawaraAction
from prodexp.prodint import TruncationOverflow

FAST_DESCRIPTOR = {
    "name": "fast",
    "module": {"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 8},
    "seed": 11,
    "checks": ["vir-gram-exact", "vir-commutation", "projective-defect",
               "rotation-phase", "nelson-full-turn"],
    "tolerances": {},
}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    # one cache for the whole file so the N=8 module is built once
    return str(tmp_path_factory.mktemp("modcache"))


def write_descriptor(tmp_path, data, name="desc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def strip_wall_times(report):
    return [{k: v for k, v in row.items() if k != "wall_time"}
            for row in report["rows"]]


class CatalogTests(unittest.TestCase):

    def test_catalog_size_and_required_ids(self):
        self.assertGreaterEqual(len(checks.CATALOG), 20)
        self.assertIn("holonomy-phase", checks.CATALOG)
        self.assertIn("gw-virasoro-estimate", checks.CATALOG)

    def test_every_entry_has_anchor_and_bound(self):
        for cid, (func, bound, anchor) in checks.CATALOG.items():
            self.assertTrue(callable(func), cid)
            self.assertGreaterEqual(bound, 0.0, cid)
            self.assertIsInstance(anchor, str, cid)
            self.assertGreater(len(anchor), 10, cid)


def test_list_checks_verb(capsys):
    assert cli.main(["list-checks"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) >= 20
    ids = [l.split("\t")[0] for l in lines]
    assert "holonomy-phase" in ids
    assert "gw-virasoro-estimate" in ids
    for line in lines:
        assert len(line.split("\t")) == 3


def test_run_fast_descriptor(tmp_path, cache_dir):
    desc = write_descriptor(tmp_path, FAST_DESCRIPTOR)
    out = tmp_path / "report.json"
    rc = cli.main(["--cache-dir", cache_dir, "run", desc,
                   "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == cli.REPORT_SCHEMA
    rows = {r["check"]: r for r in report["rows"]}
    assert set(rows) == set(FAST_DESCRIPTOR["checks"])
    assert all(r["verdict"] == "pass" for r in report["rows"])
    # the rotation row carries the e^{2 pi i h} phase comparison
    assert rows["rotation-phase"]["measured"] < 1e-8
    assert rows["rotation-phase"]["params"]["h"] == "1/16"


def test_bundled_rotation_descriptor(tmp_path, cache_dir):
    # resolvable by name without a file on disk
    out = tmp_path / "rot.json"
    rc = cli.main(["--cache-dir", cache_dir, "run", "virasoro-rotation",
                   "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    rows = {r["check"]: r for r in report["rows"]}
    assert rows["rotation-phase"]["verdict"] == "pass"


def test_su2_descriptor_spins_are_measured(tmp_path, cache_dir):
    # the full turn on an integer spin is +Id, not the spin-1/2 -Id
    su2_checks = ["nelson-axis-angle", "nelson-full-turn",
                  "nelson-assumptions"]
    desc = write_descriptor(tmp_path, {
        "name": "spin-one", "module": {"kind": "su2", "spins": ["1"]},
        "checks": su2_checks})
    out = tmp_path / "su2.json"
    assert cli.main(["--cache-dir", cache_dir, "run", desc,
                     "--output", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["check"] for r in rows] == su2_checks
    for row in rows:
        assert row["verdict"] == "pass", row
        assert row["params"]["spins"] == ["1"], row


def test_unknown_check_id_named(tmp_path, capsys):
    desc = write_descriptor(tmp_path, {"name": "bad",
                                       "checks": ["no-such-check"]})
    assert cli.main(["run", desc]) == 2
    assert "no-such-check" in capsys.readouterr().err


def test_validation_errors_name_the_field(tmp_path, capsys):
    cases = [
        ({"name": "x", "checks": [], "tolerances": {"a": -1}},
         "tolerances.a"),
        ({"name": "x", "checks": [],
          "module": {"kind": "mystery"}}, "module.kind"),
        ({"name": 3, "checks": []}, "name"),
        ({"name": "x", "checks": [], "seed": "seven"}, "seed"),
    ]
    for data, needle in cases:
        desc = write_descriptor(tmp_path, data)
        assert cli.main(["run", desc]) == 2
        assert needle in capsys.readouterr().err


def test_unknown_tolerance_key_named(tmp_path, capsys):
    # a misspelled check id would otherwise leave the check at its default
    desc = write_descriptor(tmp_path, {
        "name": "x", "checks": ["vir-commutation"],
        "tolerances": {"vir-comutation": 5}})
    assert cli.main(["run", desc]) == 2
    assert ("tolerances.vir-comutation: unknown check id"
            in capsys.readouterr().err)


def test_missing_descriptor_file(capsys):
    assert cli.main(["run", "/nonexistent/desc.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_empty_checks_exit_zero(tmp_path, capsys):
    desc = write_descriptor(tmp_path, {"name": "empty", "checks": []})
    assert cli.main(["run", desc]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == []


def test_failure_exit_code(tmp_path, cache_dir, capsys):
    data = dict(FAST_DESCRIPTOR, checks=["vir-commutation"],
                tolerances={"vir-commutation": 1e-15})
    desc = write_descriptor(tmp_path, data)
    assert cli.main(["--cache-dir", cache_dir, "run", desc]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["rows"][0]["verdict"] == "fail"


def test_reproducibility_bit_identical(tmp_path, cache_dir):
    desc = write_descriptor(tmp_path, FAST_DESCRIPTOR)
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["--cache-dir", cache_dir, "run", desc,
                         "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    a, b = reports
    assert json.dumps(strip_wall_times(a), sort_keys=True) == \
        json.dumps(strip_wall_times(b), sort_keys=True)
    assert a["artifact_hashes"] == b["artifact_hashes"]


def test_cache_correctness(tmp_path):
    # identical rows from a fresh build and from the pickle cache
    desc = write_descriptor(tmp_path, FAST_DESCRIPTOR)
    fresh_cache = str(tmp_path / "cache")
    outs = []
    for name in ("fresh.json", "cached.json"):
        out = tmp_path / name
        assert cli.main(["--cache-dir", fresh_cache, "run", desc,
                         "--output", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    assert strip_wall_times(outs[0]) == strip_wall_times(outs[1])
    cache_files = list((tmp_path / "cache").glob("module-*.pkl"))
    assert cache_files, "module cache was not populated"


def test_sweep_csv(tmp_path, cache_dir, capsys):
    data = dict(FAST_DESCRIPTOR, checks=["vir-commutation"])
    desc = write_descriptor(tmp_path, data)
    rc = cli.main(["--cache-dir", cache_dir, "sweep", desc,
                   "--param", "module.N", "--values", "6,8"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "param,value,check,measured,bound,verdict,leakage"
    body = [l for l in lines[1:] if not l.startswith("#")]
    meta = [l for l in lines[1:] if l.startswith("#")]
    assert len(body) == 2              # one row per value
    assert all(l.split(",")[0] == "module.N" for l in body)
    assert any("loglog_slope" in l and "vir-commutation" in l for l in meta)


def test_sweep_holonomy_loglin_rate(tmp_path, cache_dir, capsys):
    # the holonomy mismatch decays geometrically in N, by about 0.41 per
    # level; the log-linear fit reports that factor
    data = dict(FAST_DESCRIPTOR, checks=["holonomy-phase"])
    desc = write_descriptor(tmp_path, data)
    assert cli.main(["--cache-dir", cache_dir, "sweep", desc, "--param",
                     "module.N", "--values", "8,10,12"]) == 0
    fit = [l for l in capsys.readouterr().out.splitlines()
           if l.startswith("# fit check=holonomy-phase ")]
    assert len(fit) == 1
    fields = dict(f.split("=", 1) for f in fit[0].split()[2:])
    assert 0.3 < float(fields["loglin_rate"]) < 0.5
    assert float(fields["loglog_slope"]) < 0
    assert fields["monotone_decreasing"] == "True"


def test_sweep_single_value(tmp_path, cache_dir, capsys):
    data = dict(FAST_DESCRIPTOR, checks=["vir-gram-exact"])
    desc = write_descriptor(tmp_path, data)
    rc = cli.main(["--cache-dir", cache_dir, "sweep", desc,
                   "--param", "module.N", "--values", "8"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([l for l in lines[1:] if not l.startswith("#")]) == 1


def test_sweep_bad_param(tmp_path, capsys):
    desc = write_descriptor(tmp_path, FAST_DESCRIPTOR)
    assert cli.main(["sweep", desc, "--param", "module.no_such",
                     "--values", "1"]) == 2
    assert "not addressable" in capsys.readouterr().err


def test_build_module_verb(tmp_path, capsys):
    spec = '{"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 5}'
    cache = str(tmp_path / "cache")
    assert cli.main(["--cache-dir", cache, "build-module", spec]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["cached"] is False
    assert first["dim"] == sum(first["level_dims"])
    assert cli.main(["--cache-dir", cache, "build-module", spec]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["cached"] is True
    assert second["level_dims"] == first["level_dims"]


def test_build_module_ignores_pickles_from_other_code(tmp_path, capsys,
                                                     monkeypatch):
    # a pickle under the old spec-only name, or under another code digest,
    # is never loaded
    spec = '{"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 3}'
    cache = tmp_path / "cache"

    def build():
        assert cli.main(["--cache-dir", str(cache), "build-module", spec]) == 0
        return json.loads(capsys.readouterr().out)

    monkeypatch.setattr(cli, "_code_digest", lambda: "000000000000")
    info = build()
    assert info["cached"] is False
    other = cache / f"module-{info['key']}-000000000000.pkl"
    (cache / f"module-{info['key']}.pkl").write_bytes(other.read_bytes())
    monkeypatch.undo()
    assert build()["cached"] is False
    assert build()["cached"] is True


def test_build_module_rejects_nonunitarizable(tmp_path, capsys):
    spec = '{"kind": "virasoro", "c": "1/2", "h": "0.3", "N": 4}'
    assert cli.main(["--cache-dir", str(tmp_path), "build-module",
                     spec]) == 1
    assert "not unitarizable" in capsys.readouterr().err


def test_truncation_overflow_is_a_row_not_a_crash(monkeypatch):
    def exploding(ctx):
        raise TruncationOverflow(0.5, t=0.25)

    monkeypatch.setitem(checks.CATALOG, "explode-test",
                        (exploding, 1e-9, "synthetic overflow for testing"))
    ctx = checks.CheckContext(seed=1)
    row = checks.run_check("explode-test", ctx)
    assert row["verdict"] == "error"
    assert "TruncationOverflow" in row["params"]["error"]


# the order in which list-checks prints the catalog
CATALOG_ORDER = [
    "vir-commutation", "projective-defect", "vir-gram-exact",
    "vir-unitarity-region", "rotation-phase", "holonomy-phase",
    "holonomy-mobius", "up-properties", "prodint-convergence-order",
    "refinement-bound", "dyson-order-scaling", "ode-norm-conservation",
    "ode-residual", "inhomogeneous-residual", "gateaux-central-difference",
    "gw-virasoro-estimate", "gw-loop-estimate", "exp-estimate",
    "exp-difference-estimate", "sugawara-central-charge",
    "sugawara-intertwining", "sugawara-lowest-weight", "nelson-axis-angle",
    "nelson-full-turn", "nelson-assumptions", "extension-cocycle",
    "local-cocycle-invariance"]


def test_catalog_order_is_pinned():
    assert list(checks.CATALOG)[:27] == CATALOG_ORDER


@pytest.mark.parametrize("module", [
    None,
    {"kind": "su2", "spins": ["1", "5/2"]},
    {"kind": "affine_sl2", "ell": 1, "lam": 1, "N": 5}])
def test_basic_estimates_pass(module, cache_dir):
    spec = None if module is None else cli.parse_module_spec(module)
    ctx = checks.CheckContext(seed=3, module_spec=spec,
                              cache=cli.ModuleCache(cache_dir))
    row = checks.run_check("basic-estimates", ctx)
    assert row["verdict"] == "pass", row
    assert set(row["params"]) >= {"virasoro", "sugawara", "su2"}


def test_samples_outside_the_truncation_are_error_rows(cache_dir):
    # at N=2 these checks ask for vectors on levels up to N-4, N-3 and N-3
    desc = cli.validate_descriptor({
        "name": "n2", "seed": 7,
        "module": {"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 2},
        "checks": ["ode-norm-conservation", "gw-virasoro-estimate",
                   "inhomogeneous-residual"]})
    report = cli.execute(desc, cache=cli.ModuleCache(cache_dir))
    for row in report["rows"]:
        assert row["verdict"] == "error", row
        assert "max_level" in row["params"]["error"], row
        assert "N=2" in row["params"]["error"], row


def test_rng_streams_independent_per_check():
    ctx = checks.CheckContext(seed=5)
    a = ctx.rng("gw-virasoro-estimate").normal(size=4)
    b = ctx.rng("exp-difference-estimate").normal(size=4)
    assert not np.allclose(a, b)
    a2 = checks.CheckContext(seed=5).rng("gw-virasoro-estimate").normal(size=4)
    np.testing.assert_array_equal(a, a2)


def test_rng_streams_keyed_by_check_id(monkeypatch):
    # a row added to the catalog does not reseed the others
    before = checks.CheckContext(seed=5).rng("exp-estimate").normal(size=4)
    monkeypatch.setattr(checks, "CATALOG",
                        {"new-row": checks.CATALOG["exp-estimate"],
                         **checks.CATALOG})
    after = checks.CheckContext(seed=5).rng("exp-estimate").normal(size=4)
    np.testing.assert_array_equal(before, after)


def test_substituted_module_is_named_in_params(cache_dir):
    # a check that needs another kind of module than the descriptor's runs
    # on its default and says so; one that runs on the descriptor does not
    vir8 = {"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 8}
    aff4 = {"kind": "affine_sl2", "ell": 1, "lam": 0, "N": 4}
    su2 = {"kind": "su2", "spins": ["1/2", "3/2"]}
    cases = [
        (aff4, "vir-commutation", vir8),
        (None, "vir-commutation", vir8),
        (vir8, "vir-commutation", None),
        (vir8, "sugawara-lowest-weight", aff4),
        (aff4, "sugawara-lowest-weight", None),
        (vir8, "nelson-full-turn", su2),
        (None, "basic-estimates", [vir8, aff4, su2]),
        (vir8, "basic-estimates", [aff4, su2]),
    ]
    for module, cid, want in cases:
        spec = None if module is None else cli.parse_module_spec(module)
        ctx = checks.CheckContext(seed=3, module_spec=spec,
                                  cache=cli.ModuleCache(cache_dir))
        row = checks.run_check(cid, ctx)
        assert row["verdict"] == "pass", row
        assert row["params"].get("module") == want, (module, cid, row)
        for m in want if isinstance(want, list) else [want] * bool(want):
            assert cli.parse_module_spec(m).descriptor() == m


@pytest.mark.parametrize("seed", [12, 19, 29, 65, 70, 72, 89])
def test_inhomogeneous_residual_passes_on_former_failing_seeds(seed,
                                                               cache_dir):
    # seeds on which the second-order residual stencil exceeded the bound
    ctx = checks.CheckContext(seed=seed, cache=cli.ModuleCache(cache_dir))
    row = checks.run_check("inhomogeneous-residual", ctx)
    assert row["verdict"] == "pass", row


def test_sugawara_central_charge_fails_on_scaled_matrices(monkeypatch,
                                                          cache_dir):
    # the row reads c off the Sugawara matrices, so a wrong normalization
    # of L_n shows in it
    matrix = SugawaraAction.matrix
    monkeypatch.setattr(SugawaraAction, "matrix",
                        lambda self, n: (1 + 1e-3) * matrix(self, n))
    ctx = checks.CheckContext(seed=7, cache=cli.ModuleCache(cache_dir))
    row = checks.run_check("sugawara-central-charge", ctx)
    assert row["verdict"] == "fail", row


# Reports the OPENBLAS_NUM_THREADS value and the thread count of every
# OpenBLAS that importing the module named in argv[1] loads into a fresh
# interpreter.
_BLAS_PROBE = r"""
import ctypes, importlib, json, os, sys
importlib.import_module(sys.argv[1])
threads = {}
with open("/proc/self/maps") as maps:
    libs = {l.split()[-1] for l in maps if "openblas" in l.lower()
            and l.split()[-1].startswith("/")}
for lib in sorted(libs):
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            threads[os.path.basename(lib)] = fn()
            break
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": threads}))
"""


def _probe_blas(module, **env_update):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_update)
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE, module], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="needs /proc/self/maps to find the loaded OpenBLAS")
@pytest.mark.parametrize("module", ["prodexp.cli", "prodexp.prodint"])
def test_import_pins_openblas_to_one_thread(module):
    probe = _probe_blas(module)
    assert probe["env"] == "1"
    if not probe["threads"]:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert set(probe["threads"].values()) == {1}
    # a value chosen by the caller is kept
    assert _probe_blas(module, OPENBLAS_NUM_THREADS="2")["env"] == "2"
