"""Child process of the benchmark: fill a module cache, or run timed rounds.

    worker.py setup --workload W --cache-dir D [--quick]
    worker.py pass  --workload W --cache-dir D --seed S --seconds T
                    --trace 0|1 --out result.json --spans spans.jsonl [--quick]

``setup`` builds, through the CLI, the modules that the workload's pass
reads.  ``pass`` runs whole rounds of the workload through ``cli.main``
and checks every output; a round is one complete use of the workload.
With ``--trace 1`` every second round runs with spans around prodexp's
layers, so each traced round has an untraced neighbour to compare with.
The driver (run.py) starts this file with the BLAS pool pinned.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse                                            # noqa: E402
import contextlib                                          # noqa: E402
import csv                                                 # noqa: E402
import ctypes                                              # noqa: E402
import hashlib                                             # noqa: E402
import io                                                  # noqa: E402
import json                                                # noqa: E402
import os                                                  # noqa: E402
import platform                                            # noqa: E402
import resource                                            # noqa: E402
import shutil                                              # noqa: E402
import statistics                                          # noqa: E402
import sys                                                 # noqa: E402
import tempfile                                            # noqa: E402
from fractions import Fraction                             # noqa: E402
from pathlib import Path                                   # noqa: E402

import prodexp.cli as cli                                  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT

import numpy as np                                         # noqa: E402
import scipy                                               # noqa: E402

import oracles                                             # noqa: E402
import spans                                               # noqa: E402
from speed import reference_s, scaled                      # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

C, H = "1/2", "1/16"                       # Ising sigma: M(4, 3), h_{2,2}
ISING = (4, 3, 2, 2)


def vir(N, c=C, h=H):
    return {"kind": "virasoro", "c": c, "h": h, "N": N}


def aff(N):
    return {"kind": "affine_sl2", "ell": 1, "lam": 0, "N": N}


# The catalog as of this benchmark; a fixed list keeps the work of the
# workload the same when checks are added later.  inhomogeneous-residual
# is left out: its central-difference residual exceeds its 1e-4 bound on
# some seeds (7 of the first 95), so it cannot be kept as an operation
# that fails on every seed or on none.
CATALOG_IDS = [
    "vir-commutation", "projective-defect", "vir-gram-exact",
    "vir-unitarity-region", "rotation-phase", "holonomy-phase",
    "holonomy-mobius", "up-properties", "prodint-convergence-order",
    "refinement-bound", "dyson-order-scaling", "ode-norm-conservation",
    "ode-residual", "gateaux-central-difference",
    "gw-virasoro-estimate", "gw-loop-estimate", "exp-estimate",
    "exp-difference-estimate", "sugawara-central-charge",
    "sugawara-intertwining", "sugawara-lowest-weight", "nelson-axis-angle",
    "nelson-full-turn", "nelson-assumptions", "extension-cocycle",
    "local-cocycle-invariance",
]
# the four checks that take most of the catalog's time
HEAVY_CHECKS = ["gateaux-central-difference", "up-properties",
                "ode-norm-conservation", "prodint-convergence-order"]
SWEEP_VALUES = (8, 10, 12)


class Op:
    """One CLI call and the check of its output."""

    def __init__(self, name):
        self.name = name
        self.problems = []

    def cli(self, argv):
        """Stdout of cli.main(argv); a non-zero exit fails the operation."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return out.getvalue()

    def expect(self, cond, message):
        if not cond:
            self.problems.append(f"{self.name}: {message}")


class Round:
    """Counts operations and collects what is wrong with their outputs."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []          # why operations failed
        self.problems = []          # what is wrong in outputs of the rest
        self.fingerprint = None     # must repeat across rounds of one run
        self.row_times = {}
        self.cache_bytes = 0

    @contextlib.contextmanager
    def op(self, name):
        """An operation fails when its CLI call raises or exits non-zero."""
        op = Op(name)
        rec = self.tracer.open(f"op.{name}") if self.tracer else None
        self.attempted += 1
        try:
            yield op
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            self.problems.extend(op.problems)
        finally:
            if rec is not None:
                self.tracer.close(rec)


def _pickle_digest(cache_dir):
    h = hashlib.sha256()
    total = 0
    for p in sorted(Path(cache_dir).glob("*.pkl")):
        data = p.read_bytes()
        total += len(data)
        h.update(p.name.encode() + data)
    return h.hexdigest(), total


# ---------------------------------------------------------------------------
# workloads


class Catalog:
    """`prodexp run` of the catalog on Virasoro (1/2, 1/16) at N=8."""

    name = "catalog-n8"
    min_rounds = 2          # the row digest is compared across rounds

    def __init__(self, quick):
        self.checks = ([c for c in CATALOG_IDS if c not in HEAVY_CHECKS
                        and not c.startswith("holonomy")]
                       if quick else CATALOG_IDS)

    def setup_specs(self):
        # the catalog's descriptor module, the unitarity-region points
        # and the default affine module
        return [vir(8), vir(8, h="1/2"), vir(8, c="1", h="0"),
                vir(8, c="1", h="1"), aff(4)]

    def prepare(self, work, seed):
        self.desc = work / "catalog.json"
        self.desc.write_text(json.dumps({
            "name": self.name, "module": vir(8), "seed": seed,
            "checks": self.checks}))
        self.report = work / "catalog-report.json"

    def round(self, rnd, cache):
        with rnd.op("run") as op:
            op.cli(["--cache-dir", str(cache), "run", str(self.desc),
                    "--output", str(self.report)])
            report = json.loads(self.report.read_text())
            rows = report["rows"]
            op.expect([r["check"] for r in rows] == self.checks,
                      "rows do not match the requested checks")
            bad = [r["check"] for r in rows if r["verdict"] != "pass"]
            op.expect(not bad, f"checks not passing: {bad}")
            rnd.fingerprint = report["artifact_hashes"]["rows"]
            rnd.row_times = {r["check"]: r["wall_time"] for r in rows}
        rnd.cache_bytes = _pickle_digest(cache)[1]


class HolonomySweep:
    """`prodexp sweep --param module.N` of holonomy-phase."""

    name = "holonomy-sweep"
    min_rounds = 1
    # the mismatch falls by about 6x per two levels from N=8 to N=14
    # (0.0096, 0.0016, 2.7e-4, 4.0e-5); demand at least 3x per step and,
    # at the top N, a value that N=12 (or N=10 in quick mode) reaches
    MIN_RATIO = 3.0

    def __init__(self, quick):
        self.values, self.top_bound = (((8, 10), 5e-3) if quick
                                       else (SWEEP_VALUES, 1e-3))

    def setup_specs(self):
        return [vir(n) for n in self.values]

    def prepare(self, work, seed):
        self.desc = work / "holonomy.json"
        self.desc.write_text(json.dumps({
            "name": self.name, "module": vir(self.values[0]), "seed": seed,
            "checks": ["holonomy-phase"]}))
        self.csv = work / "holonomy.csv"

    def round(self, rnd, cache):
        with rnd.op("sweep") as op:
            op.cli(["--cache-dir", str(cache), "sweep", str(self.desc),
                    "--param", "module.N",
                    "--values", ",".join(map(str, self.values)),
                    "--output", str(self.csv)])
            text = self.csv.read_text()
            rows = list(csv.DictReader(
                l for l in text.splitlines() if not l.startswith("#")))
            op.expect([int(r["value"]) for r in rows] == list(self.values),
                      "sweep rows do not match the values")
            op.expect(all(r["verdict"] == "pass" for r in rows),
                      "a holonomy-phase row does not pass")
            mism = [float(r["measured"]) for r in rows]
            op.expect(all(a / b >= self.MIN_RATIO
                          for a, b in zip(mism, mism[1:])),
                      f"mismatch does not fall {self.MIN_RATIO}x per step: "
                      f"{mism}")
            op.expect(mism[-1] < self.top_bound,
                      f"mismatch {mism[-1]} at N={self.values[-1]}")
            op.expect("monotone_decreasing=True" in text,
                      "sweep fit does not report a monotone decrease")
            rnd.fingerprint = hashlib.sha256(text.encode()).hexdigest()
        rnd.cache_bytes = _pickle_digest(cache)[1]


class ExactBuild:
    """Cold `prodexp build-module` of a Virasoro and an affine module."""

    name = "exact-build"
    min_rounds = 1
    COMMUTATION_TOL = 1e-9

    def __init__(self, quick):
        self.vir_N, self.aff_N = (6, 4) if quick else (13, 6)

    def setup_specs(self):
        return []

    def prepare(self, work, seed):
        self.work = work

    def round(self, rnd, cache):
        # a fresh, empty cache directory for every round
        target = Path(tempfile.mkdtemp(prefix="round-", dir=self.work))
        vspec = vir(self.vir_N)
        with rnd.op("build-virasoro") as op:
            info = self._build(op, target, vspec)
            op.expect(info["level_dims"] == oracles.level_dims_minimal_model(
                *ISING, self.vir_N), f"level dims {info['level_dims']}")
            mod = cli.ModuleCache(target).load(cli.parse_module_spec(vspec))
            op.expect(mod is not None, "module not found in the cache")
            self._check_virasoro(op, mod)
        with rnd.op("build-affine") as op:
            info = self._build(op, target, aff(self.aff_N))
            op.expect(info["level_dims"]
                      == oracles.level_dims_affine_sl2_vacuum(self.aff_N),
                      f"level dims {info['level_dims']}")
        rnd.fingerprint, rnd.cache_bytes = _pickle_digest(target)

    def _build(self, op, target, spec):
        info = json.loads(op.cli(["--cache-dir", str(target), "build-module",
                                  json.dumps(spec)]))
        op.expect(info["cached"] is False, "the cold build hit a cache")
        op.expect(info["dim"] == sum(info["level_dims"]), "dim mismatch")
        return info

    def _check_virasoro(self, op, mod):
        """[L_m, L_n] on the safe window and the exact level-1/2 Gram."""
        c, h = Fraction(C), Fraction(H)
        L = {k: mod.generator_matrix(("L", k)) for k in range(-4, 5)}
        worst = 0.0
        for m in range(-2, 3):
            for n in range(-2, 3):
                M = L[m] @ L[n] - L[n] @ L[m] - (m - n) * L[m + n]
                if m + n == 0:
                    M = M - float(c * (m ** 3 - m) / 12) * np.eye(mod.dim)
                d = mod.safe_dim(abs(m) + abs(n))
                worst = max(worst, float(np.abs(M[:d, :d]).max(initial=0.0)))
        op.expect(worst <= self.COMMUTATION_TOL,
                  f"commutation residual {worst:.3e}")
        verma = mod.verma
        g1 = verma.gram(1)
        idx = verma.index[2]
        order = [idx[(2,)], idx[(1, 1)]]
        g2 = [[verma.gram(2)[i][j] for j in order] for i in order]
        exact = all(isinstance(x, Fraction) for row in g1 + g2 for x in row)
        op.expect(exact, "Gram entries are not exact rationals")
        op.expect(g1 == oracles.virasoro_gram_level1(c, h),
                  f"level-1 Gram {g1}")
        op.expect(g2 == oracles.virasoro_gram_level2(c, h),
                  f"level-2 Gram {g2}")


WORKLOADS = {w.name: w for w in (Catalog, HolonomySweep, ExactBuild)}


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    libs = sorted({l.split()[-1] for l in maps if "openblas" in l.lower()
                   and l.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(lib)] = fn()
                break
    return out


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root):
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + p.read_bytes())
    return h.hexdigest()


def environment():
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_effect": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(ROOT),
        "src_sha256": _src_digest(ROOT),
    }


# ---------------------------------------------------------------------------
# verbs


def cmd_setup(args):
    wl = WORKLOADS[args.workload](args.quick)
    Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
    for spec in wl.setup_specs():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["--cache-dir", args.cache_dir, "build-module",
                           json.dumps(spec)])
        if rc != 0:
            sys.stderr.write(f"setup: build-module {spec} exited {rc}\n")
            return 1
    return 0


def _cache_listing(cache):
    return sorted((p.name, p.stat().st_size) for p in Path(cache).iterdir())


def cmd_pass(args):
    wl = WORKLOADS[args.workload](args.quick)
    cache = Path(args.cache_dir)
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=cache.parent))
    wl.prepare(work, args.seed)
    warm = _cache_listing(cache)
    rounds, traced_spans, problems, failures = [], [], [], []
    t_begin = time.perf_counter()
    reference_s()               # the first call pays one-time costs
    ref_before = reference_s()
    while True:
        tracer = spans.Tracer() if args.trace and len(rounds) % 2 else None
        rnd = Round(tracer)
        if tracer:
            tracer.install()
            root = tracer.open("round")
        t0 = time.perf_counter()
        try:
            wl.round(rnd, cache)
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.close(root)
                tracer.uninstall()
                wall = tracer.ends[root] - tracer.starts[root]
        for p in work.glob("round-*"):
            shutil.rmtree(p)
        problems.extend(rnd.problems)
        failures.extend(rnd.failures)
        if _cache_listing(cache) != warm:
            problems.append("the pass wrote to its warm module cache")
        if rounds and rnd.fingerprint != rounds[0]["fingerprint"]:
            problems.append(f"round {len(rounds)} output differs from "
                            "round 0")
        ref_after = reference_s()
        rounds.append({"wall_s": wall,
                       "scaled_s": scaled(wall, ref_before, ref_after),
                       "reference_s": [ref_before, ref_after],
                       "traced": tracer is not None,
                       "attempted": rnd.attempted, "failed": rnd.failed,
                       "fingerprint": rnd.fingerprint,
                       "cache_bytes": rnd.cache_bytes,
                       "row_times": rnd.row_times})
        ref_before = ref_after
        if tracer:
            traced_spans.append(tracer.records())
        elapsed = time.perf_counter() - t_begin
        longest = max(r["wall_s"] for r in rounds)
        need = max(wl.min_rounds, 2 if args.trace else 1)
        if len(rounds) >= need and elapsed + longest > args.seconds:
            break
    shutil.rmtree(work)

    result = {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "problems": problems,
        "failures": failures,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "environment": environment(),
    }
    if args.trace:
        result["layers"] = _layers(rounds, traced_spans, problems)
        _write_spans(args.spans, traced_spans, t_begin)
    Path(args.out).write_text(json.dumps(result))
    return 0


def _layers(rounds, traced_spans, problems):
    """Per-layer metrics: medians over the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = []
    for r, sp in zip(traced, traced_spans):
        bad = spans.nesting_problems(sp)
        problems.extend(bad[:5])
        layer_self = spans.layer_self_total(sp)
        if layer_self > r["wall_s"]:
            problems.append(f"layer self time {layer_self} exceeds the "
                            f"traced wall time {r['wall_s']}")
        m = spans.layer_metrics(sp, SWEEP_VALUES)
        for cid in HEAVY_CHECKS:
            m[f"checks.{cid}_s"] = r["row_times"].get(cid, 0.0)
        m["cli.cache_bytes"] = r["cache_bytes"]
        m["trace.wall_s"] = r["wall_s"]
        m["trace.layer_self_s"] = layer_self
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round)
           for k in per_round[0]}
    out["cli.import_s"] = IMPORT_S
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"]
                                                   for r in plain))
    return out


def _write_spans(path, traced_spans, t0):
    """All traced rounds into one JSON-lines file, ids unique per file."""
    with open(path, "w") as f:
        offset = 0
        for sp in traced_spans:
            for i, (name, start, end, parent, attrs) in enumerate(sp):
                rec = {"id": offset + i, "name": name, "start": start - t0,
                       "end": end - t0,
                       "parent": None if parent is None else offset + parent}
                if attrs:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec) + "\n")
            offset += len(sp)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="worker.py")
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb in ("setup", "pass"):
        p = sub.add_parser(verb)
        p.add_argument("--workload", required=True, choices=list(WORKLOADS))
        p.add_argument("--cache-dir", required=True)
        p.add_argument("--quick", action="store_true")
        if verb == "pass":
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), required=True)
            p.add_argument("--out", required=True)
            p.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    return cmd_setup(args) if args.verb == "setup" else cmd_pass(args)


if __name__ == "__main__":
    sys.exit(main())
