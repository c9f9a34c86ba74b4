"""Experiment runner CLI.

Verbs
-----
* ``run <descriptor.json>``            execute the descriptor's checks and
  emit a versioned JSON report; exit 0 iff every verdict passes.
* ``sweep <descriptor.json> --param dotted.path --values v1,v2,...``
  rerun the checks once per value of the addressed descriptor field and
  emit plot-ready CSV with fit metadata (log-log slope, log-linear
  rate per unit of the value, monotone decrease).
* ``list-checks``                      print the static catalog.
* ``build-module <spec.json>``         build (and cache) a module.

The module cache directory is ``$PRODEXP_CACHE_DIR`` (default
``~/.cache/prodexp``); cached modules are the one documented binary
artifact (pickle keyed by the spec hash and a digest of the code that
built it, so pickles written by other code are not loaded).  All other
outputs are JSON or CSV.  A single descriptor seed controls every
randomized sample, so a rerun reproduces the report rows bit for bit
apart from wall times.

Exit codes: 0 success, 1 at least one check failed, 2 usage or
descriptor validation error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import hashlib
import importlib.resources
import io
import json
import os
import pickle
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import hwmod, liealg
from .checks import CATALOG, CheckContext, run_check
from .hwmod import (HighestWeightSpec, NotUnitarizable, affine_spec,
                    build_module, virasoro_spec)

REPORT_SCHEMA = "prodexp-report/1"
DEFAULT_SEED = 7


class DescriptorError(ValueError):
    """Descriptor failed validation; the message names the field."""


# ---------------------------------------------------------------------------
# module cache


@functools.cache
def _code_digest():
    """Short hash of the sources whose objects a cached module pickles."""
    d = hashlib.sha256()
    for mod in (hwmod, liealg):
        d.update(Path(mod.__file__).read_bytes())
    return d.hexdigest()[:12]


class ModuleCache:
    """Pickle cache of built GradedModules keyed by the spec hash and the
    code digest."""

    def __init__(self, root=None):
        if root is None:
            root = os.environ.get(
                "PRODEXP_CACHE_DIR",
                os.path.join(os.path.expanduser("~"), ".cache", "prodexp"))
        self.root = Path(root)

    def _path(self, spec):
        return self.root / f"module-{spec.key()}-{_code_digest()}.pkl"

    def load(self, spec):
        p = self._path(spec)
        if not p.exists():
            return None
        try:
            with open(p, "rb") as f:
                return pickle.load(f)
        except Exception:
            return None          # corrupt cache entry: rebuild

    def store(self, spec, module):
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self._path(spec).with_suffix(".tmp")
        with open(tmp, "wb") as f:
            pickle.dump(module, f)
        tmp.replace(self._path(spec))

    def load_or_build(self, spec):
        """(module, cached): the cached module, or a new build stored."""
        mod = self.load(spec)
        if mod is not None:
            return mod, True
        mod = build_module(spec)
        self.store(spec, mod)
        return mod, False


# ---------------------------------------------------------------------------
# descriptor parsing


def _integer(value, field):
    """`value` if it is a JSON integer (not a boolean, float or string)."""
    if type(value) is not int:
        raise DescriptorError(f"{field}: expected an integer, got {value!r}")
    return value


def _reject_unknown(data, known, where):
    """DescriptorError naming the fields of `data` outside `known`."""
    unknown = [repr(k) for k in data if k not in known]
    if unknown:
        raise DescriptorError(f"{where}: unknown field {', '.join(unknown)}; "
                              f"expected {', '.join(known)}")


def parse_module_spec(data):
    """HighestWeightSpec (or su(2) spin tuple) from descriptor JSON.

    ``{"kind": "virasoro", "c": "1/2", "h": "1/16", "N": 8}``,
    ``{"kind": "affine_sl2", "ell": 1, "lam": 0, "N": 4}`` or
    ``{"kind": "su2", "spins": ["1/2", "3/2"]}``, and no other field.
    """
    if not isinstance(data, dict):
        raise DescriptorError("module: expected an object")
    kind = data.get("kind")
    try:
        if kind == "virasoro":
            spec = virasoro_spec(Fraction(str(data["c"])),
                                 Fraction(str(data["h"])),
                                 _integer(data["N"], "module.N"))
        elif kind == "affine_sl2":
            spec = affine_spec(_integer(data["ell"], "module.ell"),
                               _integer(data["lam"], "module.lam"),
                               _integer(data["N"], "module.N"))
        elif kind == "su2":
            from .nelson import FinDimRep
            spins = data["spins"]
            if not isinstance(spins, list):
                raise DescriptorError(
                    f"module.spins: expected a list, got {spins!r}")
            try:
                spec = FinDimRep(tuple(Fraction(str(s)) for s in spins))
            except (ValueError, ZeroDivisionError) as exc:
                raise DescriptorError(f"module.spins: {exc}")
        else:
            raise DescriptorError(f"module.kind: unknown kind {kind!r}")
    except KeyError as exc:
        raise DescriptorError(f"module: missing field {exc.args[0]!r}")
    except DescriptorError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise DescriptorError(f"module: {exc}")
    _reject_unknown(data, spec.descriptor(), "module")
    return spec


def validate_descriptor(data):
    """Normalized descriptor dict, or DescriptorError naming the field."""
    if not isinstance(data, dict):
        raise DescriptorError("descriptor must be a JSON object")
    out = {"name": "unnamed", "seed": DEFAULT_SEED, "module": None,
           "checks": [], "tolerances": {}, "output": None}
    _reject_unknown(data, out, "descriptor")
    out.update(data)
    if not isinstance(out["name"], str):
        raise DescriptorError("name: expected a string")
    if not isinstance(out["output"], (str, type(None))):
        raise DescriptorError("output: expected a string")
    _integer(out["seed"], "seed")
    if not isinstance(out["checks"], list):
        raise DescriptorError("checks: expected a list of check ids")
    for cid in out["checks"]:
        if cid not in CATALOG:
            raise DescriptorError(f"checks: unknown check id {cid!r}")
    if not isinstance(out["tolerances"], dict):
        raise DescriptorError("tolerances: expected an object")
    for key, val in out["tolerances"].items():
        if key not in CATALOG:
            raise DescriptorError(f"tolerances.{key}: unknown check id")
        if type(val) not in (int, float) or not 0 < val < np.inf:
            raise DescriptorError(f"tolerances.{key}: must be finite and > 0")
    if out["module"] is not None:
        parse_module_spec(out["module"])      # validates; reparsed at run
    return out


def load_descriptor(path):
    p = Path(path)
    if not os.path.isfile(p):        # False, not OSError, on too long a name
        bundled = bundled_descriptor(path)
        if bundled is not None:
            return validate_descriptor(json.loads(bundled))
        raise DescriptorError(f"descriptor file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"descriptor is not valid JSON: {exc}")
    return validate_descriptor(data)


def bundled_descriptor(name):
    """Text of a descriptor shipped with the package, or None."""
    fname = name if name.endswith(".json") else name + ".json"
    res = importlib.resources.files("prodexp") / "descriptors" / fname
    try:
        return res.read_text()
    except OSError:                  # no such file, or too long a name
        return None


# ---------------------------------------------------------------------------
# report assembly


def _rows_digest(rows):
    """Hash of the report rows with wall times excluded."""
    stripped = [{k: v for k, v in row.items() if k != "wall_time"}
                for row in rows]
    blob = json.dumps(stripped, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def execute(descriptor, cache=None):
    """Run a validated descriptor; returns the report dict."""
    spec = (parse_module_spec(descriptor["module"])
            if descriptor.get("module") else None)
    ctx = CheckContext(seed=descriptor["seed"], module_spec=spec,
                       tolerances=descriptor["tolerances"],
                       cache=cache if cache is not None else ModuleCache())
    rows = [run_check(cid, ctx) for cid in descriptor["checks"]]
    return {
        "schema": REPORT_SCHEMA,
        "name": descriptor["name"],
        "seed": descriptor["seed"],
        "module": descriptor.get("module"),
        "rows": rows,
        "artifact_hashes": {"rows": _rows_digest(rows)},
    }


def report_passed(report):
    return all(row["verdict"] == "pass" for row in report["rows"])


# ---------------------------------------------------------------------------
# sweep


def _set_dotted(data, dotted, value):
    parts = dotted.split(".")
    node = data
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise DescriptorError(f"sweep parameter not addressable: {dotted}")
        node = node[p]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise DescriptorError(f"sweep parameter not addressable: {dotted}")
    node[parts[-1]] = value


def _parse_value(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def sweep(descriptor, param, values, cache=None):
    """One report per parameter value; returns (csv text, all passed)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["param", "value", "check", "measured", "bound", "verdict",
                "leakage"])
    per_check = {}
    ok = True
    for val in values:
        d = copy.deepcopy(descriptor)
        _set_dotted(d, param, val)
        d = validate_descriptor(d)
        report = execute(d, cache=cache)
        ok = ok and report_passed(report)
        for row in report["rows"]:
            m, leak = ("" if v is None else repr(float(v))
                       for v in (row["measured"], row["leakage"]))
            w.writerow([param, val, row["check"], m, repr(row["bound"]),
                        row["verdict"], leak])
            per_check.setdefault(row["check"], []).append(
                (val, row["measured"]))
    # fit metadata where value and measured are positive numbers: the
    # log-log slope (power-law decay), the log-linear rate exp(slope of
    # log(measured) against the value), i.e. the factor per unit of the
    # value (geometric decay), and a monotone-decrease flag
    for cid, pts in per_check.items():
        pts = [(v, m) for v, m in pts
               if isinstance(v, (int, float)) and v > 0
               and isinstance(m, (int, float)) and m > 0]
        ms = [m for _, m in pts]
        mono = all(b < a for a, b in zip(ms, ms[1:])) if len(ms) > 1 else False
        slope = rate = float("nan")
        if len(pts) >= 2:
            vs = [v for v, _ in pts]
            slope = float(np.polyfit(np.log(vs), np.log(ms), 1)[0])
            rate = float(np.exp(np.polyfit(vs, np.log(ms), 1)[0]))
        buf.write(f"# fit check={cid} n={len(pts)} loglog_slope={slope!r} "
                  f"loglin_rate={rate!r} monotone_decreasing={mono}\n")
    return buf.getvalue(), ok


# ---------------------------------------------------------------------------
# verbs


def _emit(text, output):
    if output:
        Path(output).parent.mkdir(parents=True, exist_ok=True)
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_run(args):
    descriptor = load_descriptor(args.descriptor)
    report = execute(descriptor, cache=ModuleCache(args.cache_dir))
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _emit(text, args.output or descriptor.get("output"))
    return 0 if report_passed(report) else 1


def cmd_sweep(args):
    descriptor = load_descriptor(args.descriptor)
    values = [_parse_value(v) for v in args.values.split(",") if v]
    if not values:
        raise DescriptorError("sweep: --values must list at least one value")
    text, ok = sweep(descriptor, args.param, values,
                     cache=ModuleCache(args.cache_dir))
    _emit(text, args.output or descriptor.get("output"))
    return 0 if ok else 1


def cmd_list_checks(args):
    for cid, (_, bound, anchor) in CATALOG.items():
        sys.stdout.write(f"{cid}\t{bound!r}\t{anchor}\n")
    return 0


def cmd_build_module(args):
    try:
        data = json.loads(Path(args.spec).read_text()
                          if os.path.isfile(args.spec) else args.spec)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"module spec is not valid JSON: {exc}")
    spec = parse_module_spec(data)
    if not isinstance(spec, HighestWeightSpec):
        raise DescriptorError("build-module: only virasoro/affine_sl2 "
                              "modules are cacheable")
    try:
        mod, cached = ModuleCache(args.cache_dir).load_or_build(spec)
    except NotUnitarizable as exc:
        sys.stderr.write(f"not unitarizable: {exc}\n")
        return 1
    sys.stdout.write(json.dumps({
        "key": spec.key(), "dim": mod.dim,
        "level_dims": list(map(int, mod.level_dims)),
        "h0": float(mod.h0), "cached": cached}, sort_keys=True) + "\n")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="prodexp",
        description="run verification suites on truncated highest-weight "
                    "modules")
    ap.add_argument("--cache-dir", default=None,
                    help="module cache directory (default: "
                         "$PRODEXP_CACHE_DIR or ~/.cache/prodexp)")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="execute a descriptor")
    p.add_argument("descriptor")
    p.add_argument("--output", default=None, help="report JSON path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="rerun checks over a parameter range")
    p.add_argument("descriptor")
    p.add_argument("--param", required=True,
                   help="dotted descriptor path, e.g. module.N")
    p.add_argument("--values", required=True,
                   help="comma-separated values")
    p.add_argument("--output", default=None, help="CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("list-checks", help="print the check catalog")
    p.set_defaults(func=cmd_list_checks)

    p = sub.add_parser("build-module", help="build and cache a module")
    p.add_argument("spec", help="spec JSON (inline or a file path)")
    p.set_defaults(func=cmd_build_module)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DescriptorError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
