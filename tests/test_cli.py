import json
import os
import pickle
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from prodexp import checks, cli, hwmod, prodint
from prodexp.hwmod import GradedModule

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


def test_validation_errors_name_the_field(tmp_path, cache_dir, capsys):
    cases = [
        ({"name": "x", "checks": [], "tolerances": {"a": -1}},
         "tolerances.a"),
        ({"name": "x", "checks": [],
          "module": {"kind": "mystery"}}, "module.kind"),
        ({"name": 3, "checks": []}, "name"),
        ({"name": "x", "checks": [], "seed": "seven"}, "seed"),
        ({"name": "x", "checks": [], "seed": True}, "seed"),
        # a negative seed would fail every row that draws from the rng
        ({"name": "x", "checks": [], "seed": -1}, "seed: must be non-negative"),
        ({"name": "x", "checks": [], "output": 5}, "output"),
        ({"name": "x", "checks": [], "tolerances": {"vir-commutation": True}},
         "tolerances.vir-commutation"),
        ({"name": "x", "checks": [],
          "tolerances": {"vir-commutation": float("nan")}},
         "tolerances.vir-commutation"),
        ({"name": "x", "checks": [],
          "tolerances": {"vir-commutation": float("inf")}},
         "tolerances.vir-commutation"),
    ]
    # module integers must be JSON integers: no truncated floats, no
    # booleans, no strings and no overflowing floats
    vir = {"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 8}
    aff = {"kind": "affine_sl2", "ell": 1, "lam": 0, "N": 4}
    for module, field, bad in ((vir, "N", 8.5), (vir, "N", True),
                               (vir, "N", "8"), (vir, "N", 1e400),
                               (aff, "ell", 1.0), (aff, "lam", False),
                               (aff, "N", 4.7)):
        cases.append(({"name": "x", "checks": [],
                       "module": dict(module, **{field: bad})},
                      f"module.{field}"))
    # su(2) spins must be a JSON list of spins: a string is not read
    # character by character
    for spins in ("12", "3", "1/2", ["x"], ["1/3"], ["1/0"], [True], []):
        cases.append(({"name": "x", "checks": [],
                       "module": {"kind": "su2", "spins": spins}},
                      "module.spins"))
    # a field outside the descriptor's six, or outside the module kind's
    # own, is named rather than read as nothing
    cases += [
        ({"name": "typo", "chekcs": ["vir-commutation"]},
         "descriptor: unknown field 'chekcs'"),
        ({"name": "x", "checks": [], "module": dict(vir, M=8)},
         "module: unknown field 'M'"),
        ({"name": "x", "checks": [], "module": dict(aff, c="1/2")},
         "module: unknown field 'c'"),
        ({"name": "x", "checks": [],
          "module": {"kind": "su2", "spins": ["1"], "N": 4}},
         "module: unknown field 'N'"),
    ]
    for data, needle in cases:
        desc = write_descriptor(tmp_path, data)
        assert cli.main(["run", desc]) == 2
        assert needle in capsys.readouterr().err
    desc = write_descriptor(tmp_path, {"name": "x", "module": vir,
                                       "checks": ["vir-commutation"]})
    assert cli.main(["--cache-dir", cache_dir, "sweep", desc,
                     "--param", "module.N", "--values", "4.5"]) == 2
    assert "module.N" in capsys.readouterr().err


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


def test_overlong_argument_names_no_file(tmp_path, capsys):
    # a path component over 255 bytes makes the file system raise
    # ENAMETOOLONG; such an argument names no file, so build-module reads
    # it as JSON and run and sweep report a missing descriptor, exit 2
    long = "x" * 300
    spec = json.dumps({"kind": "affine_sl2", "ell": 1, "lam": 1, "N": 2,
                       long: 1})
    assert cli.main(["--cache-dir", str(tmp_path), "build-module",
                     spec]) == 2
    assert f"unknown field '{long}'" in capsys.readouterr().err
    for argv in (["run", long],
                 ["sweep", long, "--param", "module.N", "--values", "4"]):
        assert cli.main(argv) == 2
        assert "descriptor file not found" in capsys.readouterr().err


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


def test_output_naming_a_directory_is_refused_before_the_run(
        tmp_path, capsys, monkeypatch):
    # one error naming the flag (or descriptor field) and the path, exit 2,
    # and no check is run for a report that could not be written
    monkeypatch.setattr(cli, "execute", lambda *a, **k: pytest.fail("ran"))
    data = dict(FAST_DESCRIPTOR, checks=["vir-commutation"])
    desc = write_descriptor(tmp_path, data)
    for argv in (["run", desc, "--output", str(tmp_path)],
                 ["sweep", desc, "--param", "module.N", "--values", "6",
                  "--output", str(tmp_path)]):
        assert cli.main(argv) == 2
        assert f"--output: {tmp_path} is a directory" in capsys.readouterr().err
    desc = write_descriptor(tmp_path, dict(data, output=str(tmp_path)))
    assert cli.main(["run", desc]) == 2
    assert f"output: {tmp_path} is a directory" in capsys.readouterr().err


def test_cache_dir_naming_a_file_is_refused(tmp_path, capsys):
    # build-module would end in a FileExistsError traceback and run would
    # turn every row into an error; both fail once, naming the flag
    cache = tmp_path / "cache"
    cache.write_text("")
    desc = write_descriptor(tmp_path, FAST_DESCRIPTOR)
    spec = '{"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 3}'
    for argv in (["build-module", spec], ["run", desc]):
        assert cli.main(["--cache-dir", str(cache), *argv]) == 2
        assert f"--cache-dir: {cache} is a file" in capsys.readouterr().err


def test_cache_dir_variable_naming_a_file_is_refused(tmp_path, capsys,
                                                     monkeypatch):
    # the same refusal for $PRODEXP_CACHE_DIR, naming the variable; the
    # flag, when given, is the one read and checked
    cache = tmp_path / "cache"
    cache.write_text("")
    monkeypatch.setenv("PRODEXP_CACHE_DIR", str(cache))
    monkeypatch.setattr(cli, "execute", lambda *a, **k: pytest.fail("ran"))
    desc = write_descriptor(tmp_path, FAST_DESCRIPTOR)
    spec = '{"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 3}'
    for argv in (["build-module", spec], ["run", desc]):
        assert cli.main(argv) == 2
        assert (f"$PRODEXP_CACHE_DIR: {cache} is a file"
                in capsys.readouterr().err)
    # a directory under the file is refused too, naming both
    assert cli.main(["--cache-dir", str(cache / "sub"),
                     "build-module", spec]) == 2
    assert (f"--cache-dir: {cache / 'sub'}: {cache} is a file"
            in capsys.readouterr().err)
    assert cli.main(["--cache-dir", str(tmp_path / "fresh"),
                     "build-module", spec]) == 0
    assert json.loads(capsys.readouterr().out)["cached"] is False


def test_output_under_a_file_is_refused_before_the_run(tmp_path, capsys,
                                                       monkeypatch):
    # mkdir(parents=True) of the report's directory would fail after the
    # whole run; the flag (or descriptor field), the path and the file in
    # the way are named before any check runs
    monkeypatch.setattr(cli, "execute", lambda *a, **k: pytest.fail("ran"))
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: pytest.fail("ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    desc = write_descriptor(tmp_path, dict(FAST_DESCRIPTOR, checks=[]))
    for out in (blocker / "out.json", blocker / "sub" / "out.json"):
        for argv in (["run", desc, "--output", str(out)],
                     ["sweep", desc, "--param", "module.N", "--values", "6",
                      "--output", str(out)]):
            assert cli.main(argv) == 2
            assert (f"--output: {out}: {blocker} is a file"
                    in capsys.readouterr().err)
    out = blocker / "out.json"
    desc = write_descriptor(tmp_path, dict(FAST_DESCRIPTOR, output=str(out)))
    assert cli.main(["run", desc]) == 2
    assert f"output: {out}: {blocker} is a file" in capsys.readouterr().err


def test_interleaved_stores_of_one_spec_both_succeed(tmp_path, monkeypatch):
    # a second writer of the same spec that finishes while the first is
    # still dumping leaves the first writer its own temp file to replace
    cache = cli.ModuleCache(tmp_path)
    spec = hwmod.virasoro_spec(Fraction(1, 2), Fraction(1, 16), 3)
    dump = pickle.dump

    def interleaved(obj, f):
        if obj == "first":
            monkeypatch.setattr(cli.pickle, "dump", dump)
            cache.store(spec, "second")
        dump(obj, f)

    monkeypatch.setattr(cli.pickle, "dump", interleaved)
    cache.store(spec, "first")
    assert cache.load(spec) == "first"
    assert [p.suffix for p in tmp_path.iterdir()] == [".pkl"]


def test_failing_dump_leaves_no_file(tmp_path, monkeypatch):
    def fail(obj, f):
        raise pickle.PicklingError("no")

    monkeypatch.setattr(cli.pickle, "dump", fail)
    spec = hwmod.virasoro_spec(Fraction(1, 2), Fraction(1, 16), 3)
    with pytest.raises(pickle.PicklingError):
        cli.ModuleCache(tmp_path / "cache").store(spec, "module")
    assert list((tmp_path / "cache").iterdir()) == []


# artifact_hashes.rows of every check at seed 7 (numpy 2.4.6, one
# OpenBLAS thread): a change that keeps every report row bit for bit
# keeps these
PINNED_DIGESTS = {
    "virasoro": (
        {"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 8},
        "e3e86fea03e6584e6e99b62b166b9a8c3d89a462a37cebd54a2ad7094252dec7"),
    "affine": (
        {"kind": "affine_sl2", "ell": 1, "lam": 1, "N": 4},
        "6f72b3b19492308abfc6bd1f12e402fa9f36cec3464ff01f4d03dc65dce2730d"),
    "su2": (
        {"kind": "su2", "spins": ["1", "1/2"]},
        "a7b61fd632f36cb551dcf4f84dfb84d74039cd77e90a2a79e40c72c864d656c7"),
}


@pytest.mark.parametrize("kind", list(PINNED_DIGESTS))
def test_report_digests_are_pinned(kind, cache_dir):
    module, digest = PINNED_DIGESTS[kind]
    desc = cli.validate_descriptor(
        {"module": module, "seed": 7, "checks": list(checks.CATALOG)})
    report = cli.execute(desc, cache=cli.ModuleCache(cache_dir))
    assert len(report["rows"]) == 30
    assert cli.report_passed(report), [
        row for row in report["rows"] if row["verdict"] != "pass"]
    assert report["artifact_hashes"]["rows"] == digest


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
    # the row propagates no vector: its leakage field is empty
    assert all(l.split(",")[-1] == "" for l in body)


def test_sweep_csv_measured_values_are_plain_floats(tmp_path, cache_dir,
                                                   capsys):
    # refinement-bound measures a numpy float; the CSV carries its
    # plain repr, not "np.float64(...)"
    data = dict(FAST_DESCRIPTOR, checks=["refinement-bound"])
    desc = write_descriptor(tmp_path, data)
    assert cli.main(["--cache-dir", cache_dir, "sweep", desc, "--param",
                     "module.N", "--values", "6,8"]) == 0
    body = [l for l in capsys.readouterr().out.splitlines()[1:]
            if not l.startswith("#")]
    assert len(body) == 2
    for line in body:
        assert 0 < float(line.split(",")[3]) < 1, line


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


def test_check_exception_is_an_error_row(monkeypatch):
    def exploding(ctx):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(checks.CATALOG, "explode-test",
                        (exploding, 1e-9, "synthetic failure for testing"))
    ctx = checks.CheckContext(seed=1)
    row = checks.run_check("explode-test", ctx)
    assert row["verdict"] == "error"
    assert "RuntimeError" in row["params"]["error"]


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
    # at N=2 these checks ask for vectors on levels up to N-4, N-3, N-3,
    # N-3 and N-3
    desc = cli.validate_descriptor({
        "name": "n2", "seed": 7,
        "module": {"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 2},
        "checks": ["ode-norm-conservation", "gw-virasoro-estimate",
                   "inhomogeneous-residual", "ode-residual",
                   "gateaux-central-difference"]})
    report = cli.execute(desc, cache=cli.ModuleCache(cache_dir))
    for row in report["rows"]:
        assert row["verdict"] == "error", row
        assert row["leakage"] is None, row
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


# the rows that propagate a vector and report its leakage
LEAKAGE_ROWS = {"rotation-phase", "ode-norm-conservation", "ode-residual",
                "inhomogeneous-residual", "gateaux-central-difference"}


def test_leakage_is_null_where_nothing_is_measured(cache_dir):
    desc = cli.validate_descriptor({"seed": 7,
                                    "checks": list(checks.CATALOG)})
    report = cli.execute(desc, cache=cli.ModuleCache(cache_dir))
    for row in report["rows"]:
        if row["check"] in LEAKAGE_ROWS:
            # rotation-phase measures none: a rotation keeps each level
            assert 0 <= row["leakage"] < 1, row
        else:
            assert row["leakage"] is None, row


def test_solver_rows_draw_their_start_vector(cache_dir):
    # each seed propagates another vector, so it measures another value
    for cid in ("ode-residual", "gateaux-central-difference"):
        rows = [checks.run_check(cid, checks.CheckContext(
                    seed=seed, cache=cli.ModuleCache(cache_dir)))
                for seed in (0, 1)]
        assert all(row["verdict"] == "pass" for row in rows), rows
        assert rows[0]["measured"] != rows[1]["measured"], rows
        assert rows[0]["leakage"] != rows[1]["leakage"], rows


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
    matrix = GradedModule.generator_matrix

    def scaled(self, gen):
        return (1 + 1e-3 if gen[0] == "L" else 1) * matrix(self, gen)

    monkeypatch.setattr(GradedModule, "generator_matrix", scaled)
    ctx = checks.CheckContext(seed=7, cache=cli.ModuleCache(cache_dir))
    row = checks.run_check("sugawara-central-charge", ctx)
    assert row["verdict"] == "fail", row


def test_refinement_bound_fails_on_inflated_differences(monkeypatch,
                                                        cache_dir):
    # the row's path has an exponential factor of order 1, so its ratio
    # is about 0.08 and left-rule differences 20x too large exceed the
    # paper's estimate
    probe = prodint._probe_difference
    monkeypatch.setattr(prodint, "_probe_difference",
                        lambda *args: 20 * probe(*args))
    ctx = checks.CheckContext(seed=7, cache=cli.ModuleCache(cache_dir))
    row = checks.run_check("refinement-bound", ctx)
    assert row["verdict"] == "fail", row


def left_riemann(values, h):
    """The cumulative left Riemann sum of uniformly sampled values: a
    first-order `cumulative_simpson`."""
    out = np.zeros_like(values, dtype=complex)
    out[1:] = h * np.cumsum(values[:-1], axis=0)
    return out


EXPM = prodint.expm

# the standing defect table: (row, module, attribute, defective value).
# Each defect, patched in, fails its row on the default module, and the
# row passes without it
DEFECTS = [
    ("magnus4-order", prodint, "_MAGNUS_COMMUTATOR",
     -prodint._MAGNUS_COMMUTATOR),
    ("magnus4-order", prodint, "_MAGNUS_COMMUTATOR", 0.0),
    ("magnus4-order", prodint, "_GAUSS_OFFSET", 0.0),
    # e^{-A} for e^A: the constant exponential and the Dyson reference
    ("up-properties", prodint, "expm", lambda A: EXPM(-A)),
    ("dyson-order-scaling", prodint, "expm", lambda A: EXPM(-A)),
    ("dyson-order-scaling", prodint, "cumulative_simpson", left_riemann),
]


@pytest.mark.parametrize("cid, owner, name, value", DEFECTS, ids=[
    "magnus-commutator-negated", "magnus-commutator-dropped",
    "gauss-nodes-at-midpoint", "expm-inverted-up-properties",
    "expm-inverted-dyson", "dyson-left-riemann-sum"])
def test_rows_fail_on_their_defects(monkeypatch, cache_dir, cid, owner,
                                    name, value):
    ctx = checks.CheckContext(seed=7, cache=cli.ModuleCache(cache_dir))
    assert checks.run_check(cid, ctx)["verdict"] == "pass"
    monkeypatch.setattr(owner, name, value)
    row = checks.run_check(cid, ctx)
    assert row["verdict"] == "fail", row


def test_loop_projective_defect_fails_on_flipped_cocycle(monkeypatch,
                                                         cache_dir):
    # the Heisenberg pair commutes in the loop algebra, so the defect is
    # the central term alone: 4i ell against a predicted -4i ell
    cocycle = hwmod.loop_cocycle
    monkeypatch.setattr(hwmod, "loop_cocycle", lambda x, y: -cocycle(x, y))
    spec = cli.parse_module_spec(PINNED_DIGESTS["affine"][0])
    ctx = checks.CheckContext(seed=7, module_spec=spec,
                              cache=cli.ModuleCache(cache_dir))
    row = checks.run_check("loop-projective-defect", ctx)
    assert row["verdict"] == "fail", row
    assert row["measured"] == pytest.approx(8.0)


@pytest.mark.parametrize("cid, module, depth", [
    ("vir-commutation", {"kind": "virasoro", "c": "1/2", "h": "1/16",
                         "N": 3}, 4),
    ("projective-defect", {"kind": "virasoro", "c": "1/2", "h": "1/16",
                           "N": 3}, 4),
    ("sugawara-intertwining", {"kind": "affine_sl2", "ell": 1, "lam": 0,
                               "N": 2}, 3),
])
def test_empty_safe_window_is_named(cid, module, depth, cache_dir):
    # a depth above N leaves no level in the safe window: the error row
    # says which depth and which N
    ctx = checks.CheckContext(seed=7, module_spec=cli.parse_module_spec(
        module), cache=cli.ModuleCache(cache_dir))
    row = checks.run_check(cid, ctx)
    assert row["verdict"] == "error", row
    assert row["params"]["error"] == (
        f"ValueError: the safe window of depth {depth} is empty at "
        f"N={module['N']}")


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


# the rows that exponentiate a constant element or read a Dyson reference
EXPONENTIATING_ROWS = ["up-properties", "dyson-order-scaling", "exp-estimate",
                       "exp-difference-estimate", "extension-cocycle",
                       "local-cocycle-invariance"]

# Whether any scipy module is loaded after importing the CLI, building a
# module, inverting a circle diffeomorphism and running the descriptor
# argv[2]; argv[1] is the module cache.
_STARTUP_PROBE = r"""
import sys
def loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)
import prodexp.cli
seen = [loaded()]
prodexp.cli.main(["--cache-dir", sys.argv[1], "build-module",
                  '{"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 4}'])
seen.append(loaded())
from prodexp.grouprep import CirclePath, log_derivative
log_derivative(CirclePath(coeff=lambda t: {1: 0.1 * t, -1: 0.1 * t},
                          dcoeff=lambda t: {1: 0.1, -1: 0.1}))(0.5)
seen.append(loaded())
code = prodexp.cli.main(["--cache-dir", sys.argv[1], "run", sys.argv[2]])
seen.append(loaded())
print(code, seen)
"""


def test_startup_loads_no_scipy(tmp_path):
    # the package runs on numpy alone: importing the CLI, building a
    # module, inverting a circle diffeomorphism and running every row
    # that exponentiates load no scipy module (`scipy.linalg` was about
    # 0.2 s of start-up)
    desc = write_descriptor(tmp_path, {
        "module": PINNED_DIGESTS["virasoro"][0], "seed": 7,
        "checks": EXPONENTIATING_ROWS,
        "output": str(tmp_path / "report.json")})
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _STARTUP_PROBE,
                          str(tmp_path / "cache"), desc], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 [False, False, False, False]"


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
