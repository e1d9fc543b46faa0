"""The four benchmark workloads: their jobs and each job's correctness gate.

A workload is a seeded stream of *series*; a series is a fixed list of
jobs.  ``Job.run`` is the timed part and calls the library only through its
public functions, each wrapped in a span named ``<module>.<operation>``.
``Job.check`` is the gate; it runs after the timing stops and returns the
problems it found (empty when the job passed).  A job with ``defect`` set is
one of the known defects: its failure counts in ``failed`` like any other,
and ``defect(result)`` tells whether the failure is the documented one.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import inputs
from qrgraph.covering import VertexMap, branch_set, normal_radius_table
from qrgraph.dilatation import bdd_verify, bld_verify, lq_verify
from qrgraph.embedding import composition_bound_check, embed
from qrgraph.measures import (
    change_of_variables_check,
    condition_N_check,
    condition_N_inverse_check,
    jacobians,
)
from qrgraph.modulus import CurveFamily, ki_certificate, ko_certificate, modulus
from qrgraph.pullback import (
    bld_bdd_transfer_check,
    factorize,
    pullback_metric_bracket,
    pullback_metric_exact,
    verify_projection,
    zero_distance_pairs,
)
from qrgraph.spaces import space_from_json

ATOL = 1e-9
ANNULUS_REL_TOL = 0.05    # acceptance criterion 1
CERT_BOUND = 1.2          # acceptance criterion 6
EXACT_CAP = 256           # the CLI default; every map here is below it
ORACLE_MAX_N = 8          # brute-force simple-path oracle only up to here
CAP_DEFECT = ("iteration cap: the permuted 32-sector grid needs about 5.6e5 "
              "row updates against the default cap of 1e5")
INVERSE_QR_DEFECT = ("inverse-qr: H* is infinite because x is counted as a "
                     "boundary vertex of U(x, f, s) (ROADMAP item 5)")


@dataclass
class Job:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list[str]]
    defect: Callable[[Any], bool] | None = None
    defect_note: str = ""


class Workload:
    """A seeded stream of series; ``extra`` gives workload-specific results."""

    def series(self, index: int) -> list[Job]:
        raise NotImplementedError

    def extra(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# -- shared building blocks ---------------------------------------------------


def build_space(tr, rec: dict):
    with tr.span("spaces.build"):
        space = space_from_json(rec)
    tr.count("spaces.build.calls", 1)
    tr.count("spaces.dist_bytes", space.n * space.n * 8)
    return space


def build_map(tr, rec: dict) -> VertexMap:
    source = build_space(tr, rec["source"])
    target = build_space(tr, rec["target"])
    with tr.span("covering.vertexmap_build"):
        return VertexMap.build(source, target, rec["assignment"])


def bracket(tr, vm: VertexMap):
    with tr.span("pullback.bracket"):
        br = pullback_metric_bracket(vm)
    tr.count("pullback.pairs", vm.source.n * (vm.source.n - 1) // 2)
    return br


def exact(tr, vm: VertexMap) -> np.ndarray:
    with tr.span("pullback.exact"):
        ex = pullback_metric_exact(vm, cap=EXACT_CAP)
    tr.count("pullback.pairs", vm.source.n * (vm.source.n - 1) // 2)
    return ex


def metric_problems(lower: np.ndarray, ex: np.ndarray) -> list[str]:
    """lower <= exact <= 2 lower entrywise; both symmetric with zero diagonal."""
    out = []
    if np.any(lower > ex + ATOL):
        out.append("lower <= exact fails")
    if np.any(ex > 2.0 * lower + ATOL):
        out.append("exact <= 2 lower fails")
    for name, mat in (("lower", lower), ("exact", ex)):
        if not np.allclose(mat, mat.T, atol=ATOL):
            out.append(f"{name} not symmetric")
        if np.any(np.abs(np.diag(mat)) > ATOL):
            out.append(f"{name} diagonal not zero")
    return out


def path_oracle(vm: VertexMap, i: int, j: int) -> float:
    """Smallest image diameter over all simple source paths from i to j."""
    d_y = vm.target.dist
    best = math.inf
    stack = [((i,), frozenset({int(vm.f[i])}))]
    while stack:
        path, img = stack.pop()
        if path[-1] == j:
            best = min(best, max(d_y[a, b] for a in img for b in img))
            continue
        for w, _e in vm.source.adj[path[-1]]:
            if w not in path:
                stack.append((path + (w,), img | {int(vm.f[w])}))
    return best


def oracle_problems(vm: VertexMap, ex: np.ndarray) -> list[str]:
    n = vm.source.n
    if n > ORACLE_MAX_N:
        return []
    bad = [(i, j) for i in range(n) for j in range(i + 1, n)
           if abs(ex[i, j] - path_oracle(vm, i, j)) > ATOL]
    return [f"exact differs from the simple-path oracle on {len(bad)} pairs"] if bad else []


def embed_problems(res) -> list[str]:
    out = [] if res.injective else ["embedding not injective"]
    if not composition_bound_check(res).passed:
        out.append("composition bound check fails")
    return out


# -- annulus --------------------------------------------------------------------


def annulus_truth(p: float, r0: float = 1.0, r1: float = math.e) -> float:
    """Mod_p of the planar annulus {r0 < |z| < r1} (radial curves)."""
    if p == 2.0:
        return 2.0 * math.pi / math.log(r1 / r0)
    a = (p - 2.0) / (p - 1.0)
    return 2.0 * math.pi * a ** (p - 1.0) * abs(r1 ** a - r0 ** a) ** (1.0 - p)


def w2_families(tr, vm: VertexMap, levels: int, sectors: int) -> list[CurveFamily]:
    """Criterion 6's families on gen_winding(2, levels, sectors), chosen by
    vertex id: the annulus between ring 1 and ring levels-2, and the angular
    family across half the band."""
    src = vm.source

    def ids(rings, secs) -> list[str]:
        return [inputs.ring_id(i, j) for i in rings for j in secs]

    all_secs = range(2 * sectors)
    band = range(1, levels - 1)
    with tr.span("modulus.connecting"):
        annulus = CurveFamily.connecting(
            src, ["center", *ids((0, 1), all_secs)], ids((levels - 2, levels - 1), all_secs))
        angular = CurveFamily.connecting(
            src, ids(band, (0,)), ids(band, (sectors,)),
            [src.i(v) for v in ids(band, all_secs)])
    return [annulus, angular]


def annulus_job(name: str, rec: dict, sectors: int, p: float, observed: dict,
                defect: bool = False) -> Job:
    truth = annulus_truth(p)

    def run(tr):
        space = build_space(tr, rec)
        with tr.span("modulus.connecting"):
            fam = CurveFamily.connecting(space, [inputs.ring_id(0, j) for j in range(sectors)],
                                         [inputs.ring_id(sectors, j) for j in range(sectors)])
        with tr.span("modulus.modulus"):
            res = modulus(fam, p=p)
        tr.count("modulus.iterations", res.iterations)
        return res

    def check(res):
        out = []
        rel = abs(res.value - truth) / truth
        observed[name] = rel
        if rel > ANNULUS_REL_TOL:
            out.append(f"Mod_{p:g} = {res.value:.4f} is {rel:.1%} from {truth:.4f}")
        if not res.exact:
            out.append(f"not exact (gap {res.gap:.3g})")
        if res.flags:
            out.append(f"flags {list(res.flags)}")
        return out

    return Job(name, run, check,
               defect=(lambda res: "iteration cap" in res.flags) if defect else None,
               defect_note=CAP_DEFECT if defect else "")


def certificate_job(name: str, certificate, rec: dict, levels: int, sectors: int) -> Job:
    def run(tr):
        vm = build_map(tr, rec)
        fams = w2_families(tr, vm, levels, sectors)
        with tr.span("modulus.certificates"):
            return certificate(vm, fams)

    def check(cert):
        out = []
        if not (cert.passed and cert.constant <= CERT_BOUND):
            out.append(f"{cert.name} constant {cert.constant} (bound {CERT_BOUND})")
        if any(row["flags"] for row in cert.details["rows"]):
            out.append(f"{cert.name} solver flags")
        return out

    return Job(name, run, check)


class Annulus(Workload):
    """Mod_2 of {1 < |z| < e} at 32, 48 and 64 sectors, p = 3 at 32 sectors,
    the seeded vertex permutation of the 32-sector grid, and the K_O and K_I
    certificates of criterion 6 on gen_winding(2, 16, 24).

    Seven jobs of well-separated cost, an odd number, so that the median job
    time falls on one kind of job rather than between two."""

    def __init__(self, seed: int, smoke: bool = False, root: str = "."):
        self.sizes = (16,) if smoke else (32, 48, 64)
        self.p3 = 16 if smoke else 32
        self.cert = (4, 8) if smoke else (16, 24)
        self.grids = {s: inputs.annulus_records(s) for s in set(self.sizes) | {self.p3}}
        self.permuted = inputs.permuted(self.grids[self.p3], np.random.default_rng(seed))
        self.winding = inputs.winding_records(2, *self.cert)
        self.rel_err: dict[str, float] = {}

    def series(self, index: int) -> list[Job]:
        jobs = [annulus_job(f"mod2_s{s}", self.grids[s], s, 2.0, self.rel_err) for s in self.sizes]
        jobs.append(annulus_job(f"mod3_s{self.p3}", self.grids[self.p3], self.p3, 3.0, self.rel_err))
        jobs.append(annulus_job(f"mod2_s{self.p3}_permuted", self.permuted, self.p3, 2.0,
                                self.rel_err, defect=True))
        jobs.append(certificate_job("ko_w2", ko_certificate, self.winding, *self.cert))
        jobs.append(certificate_job("ki_w2", ki_certificate, self.winding, *self.cert))
        return jobs

    def extra(self) -> dict:
        """mod_rel_err: |Mod_2 - 2 pi| / 2 pi on the finest grid in natural order."""
        key = f"mod2_s{self.sizes[-1]}"
        return {"mod_rel_err": self.rel_err[key]} if key in self.rel_err else {}


# -- pullback -------------------------------------------------------------------


class Pullback(Workload):
    """Bracket and exact pullback metric on gen_winding(3, 6, 8), exact on a
    seeded random map with n = 60, the factorization battery on
    gen_winding(2, 4, 8), and embedding of that map and gen_cycle_cover(16, 2).
    Five jobs, an odd number, for the reason given under ``Annulus``."""

    def __init__(self, seed: int, smoke: bool = False, root: str = "."):
        self.seed = seed
        self.n_random = 12 if smoke else 60
        self.big = inputs.winding_records(*((2, 3, 6) if smoke else (3, 6, 8)))
        self.mid = inputs.winding_records(2, *((2, 6) if smoke else (4, 8)))
        self.cover = inputs.cycle_cover_records(*((6, 2) if smoke else (16, 2)))

    def series(self, index: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, index])
        # six source vertices per target vertex: at n = 60 the exact solver
        # then takes about as long on every seed, so the job stays below the
        # factorization job in cost and the median job does not jump
        rand = inputs.random_map_records(rng, self.n_random, self.n_random // 6)
        shared: dict[str, np.ndarray] = {}

        def run_bracket(tr):
            vm = build_map(tr, self.big)
            return vm, bracket(tr, vm)

        def check_bracket(out):
            vm, br = out
            shared["lower"] = br.lower
            problems = metric_problems(br.lower, br.lower)
            if not np.array_equal(br.upper, 2.0 * br.lower):
                problems.append("upper != 2 lower")
            return problems

        def run_exact(tr, rec):
            vm = build_map(tr, rec)
            return vm, exact(tr, vm)

        def check_exact(out, use_shared=False):
            vm, ex = out
            lower = shared.get("lower") if use_shared else None
            if lower is None:
                lower = pullback_metric_bracket(vm).lower
            return metric_problems(lower, ex) + oracle_problems(vm, ex)

        def run_battery(tr):
            vm = build_map(tr, self.mid)
            with tr.span("pullback.factorize"):
                fact = factorize(vm, metric="exact", cap=EXACT_CAP)
            tr.count("pullback.pairs", vm.source.n * (vm.source.n - 1) // 2)
            with tr.span("pullback.verify_projection"):
                proj = verify_projection(fact)
            with tr.span("pullback.transfer"):
                transfer = bld_bdd_transfer_check(fact, seed=self.seed)
            return fact, proj, transfer

        def check_battery(out):
            fact, proj, transfer = out
            problems = [] if fact.bracket.exact else ["factorization not exact"]
            problems += [f"{c.name} fails" for c in (proj, transfer) if not c.passed]
            return problems

        def run_embed(tr):
            results = []
            for rec in (self.mid, self.cover):
                vm = build_map(tr, rec)
                with tr.span("embedding.embed"):
                    results.append(embed(vm, cap=EXACT_CAP))
            return results

        return [
            Job("bracket_w3", run_bracket, check_bracket),
            Job("exact_w3", lambda tr: run_exact(tr, self.big),
                lambda out: check_exact(out, use_shared=True)),
            Job(f"exact_random{self.n_random}", lambda tr: run_exact(tr, rand), check_exact),
            Job("factorize_w2", run_battery, check_battery),
            Job("embed_w2_cover", run_embed, lambda out: [p for res in out for p in embed_problems(res)]),
        ]


# -- corpus ---------------------------------------------------------------------


def corpus_job(rec: dict, seed: int) -> Job:
    def run(tr):
        vm = build_map(tr, rec)
        br = bracket(tr, vm)
        ex = exact(tr, vm)
        with tr.span("pullback.zero_distance_pairs"):
            zp = zero_distance_pairs(vm)
        proj = None
        if not zp:
            with tr.span("pullback.factorize"):
                fact = factorize(vm, metric="exact", cap=EXACT_CAP)
            tr.count("pullback.pairs", vm.source.n * (vm.source.n - 1) // 2)
            with tr.span("pullback.verify_projection"):
                proj = verify_projection(fact)
        with tr.span("measures.checks"):
            rho = np.array(rec["rho"])
            nu = np.array(rec["nu"])
            measures = (change_of_variables_check(vm, rho, nu), jacobians(vm, nu=nu),
                        condition_N_check(vm), condition_N_inverse_check(vm))
        with tr.span("dilatation.bld"):
            bld = bld_verify(vm, seed=seed)
        with tr.span("dilatation.bdd"):
            bdd = bdd_verify(vm, seed=seed)
        with tr.span("dilatation.lq"):
            lq = lq_verify(vm)
        with tr.span("covering.normal_radius_table"):
            radii = normal_radius_table(vm)
        with tr.span("covering.branch_set"):
            branch = branch_set(vm)
        return vm, br, ex, zp, proj, measures, (bld, bdd, lq), radii, branch

    def check(out):
        vm, br, ex, zp, proj, (cov, jf, cond_n, cond_ni), (bld, bdd, lq), radii, branch = out
        n = vm.source.n
        problems = metric_problems(br.lower, ex) + oracle_problems(vm, ex)
        zero = {(vm.source.ids[i], vm.source.ids[j])
                for i in range(n) for j in range(i + 1, n) if ex[i, j] <= ATOL}
        if zero != set(zp):
            problems.append("zero_distance_pairs disagrees with the exact metric")
        if proj is not None and not proj.passed:
            problems.append("verify_projection fails")
        problems += [f"{c.name} fails" for c in (cov, cond_n, cond_ni) if not c.passed]
        finite = np.isfinite(jf.jac) & (jf.jac > 0)
        if np.any(np.abs(jf.jac[finite] * jf.jac_inv[finite] - 1.0) > 1e-12):
            problems.append("Jacobian reciprocity fails")
        if bld.constant < 1.0 or bdd.constant < 1.0 or lq.constant < 1.0:
            problems.append("a distortion constant is below 1")
        if set(radii.radius) != set(vm.target.ids) or min(radii.radius.values()) <= 0:
            problems.append("normal radius table incomplete or nonpositive")
        if not branch <= set(range(n)):
            problems.append("branch set outside the source")
        return problems

    return Job("map", run, check)


class Corpus(Workload):
    """A seeded stream of small random maps (criterion 2 sizes), each run
    through the whole battery."""

    def __init__(self, seed: int, smoke: bool = False, root: str = "."):
        self.seed = seed
        self.per_series = 20 if smoke else 1
        self.rng = np.random.default_rng(seed)

    def series(self, index: int) -> list[Job]:
        return [corpus_job(inputs.corpus_map_records(self.rng), self.seed)
                for _ in range(self.per_series)]


# -- cli ------------------------------------------------------------------------


class Cli(Workload):
    """``python -m qrgraph.cli`` subprocesses, one at a time, on the files
    written by ``gen --kind winding --k 2 --levels 4 --sectors 8``.  They
    inherit this process's environment, which ``run.py`` set up."""

    def __init__(self, seed: int, smoke: bool = False, root: str = "."):
        self.seed = seed
        self.work = os.path.join(root, ".bench_build", "perfbench", f"cli-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        gen = os.path.join(self.work, "gen")
        levels, sectors = (3, 8) if smoke else (4, 8)
        from qrgraph.cli import main as cli_main
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["gen", "--kind", "winding", "--k", "2", "--levels", str(levels),
                           "--sectors", str(sectors), "--out", gen])
        if rc != 0:
            raise RuntimeError(f"qrgraph gen exited {rc}")
        self.map = os.path.join(gen, "map.json")
        self.target = os.path.join(gen, "target.json")
        self.family = os.path.join(gen, "family.json")
        with open(self.family, "w") as fh:
            json.dump({"connect": {"E": [inputs.ring_id(0, j) for j in range(sectors)],
                                   "F": [inputs.ring_id(levels - 1, j) for j in range(sectors)]}}, fh)
        commands = {
            "validate": ["validate", self.map],
            "pullback_exact": ["pullback", "--map", self.map, "--metric", "exact"],
            "pullback_lower": ["pullback", "--map", self.map, "--metric", "lower"],
            "measure": ["measure", "--map", self.map],
            "verify_bld": ["verify", "--map", self.map, "--property", "bld"],
            "verify_metric_qr": ["verify", "--map", self.map, "--property", "metric-qr"],
            "verify_inverse_qr": ["verify", "--map", self.map, "--property", "inverse-qr"],
            "embed": ["embed", "--map", self.map],
            "modulus": ["modulus", "--space", self.target, "--family", self.family],
        }
        if smoke:
            commands = {k: commands[k] for k in ("validate", "verify_inverse_qr")}
        self.commands = commands

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def call(self, name: str) -> tuple[int, dict | None, str]:
        argv = self.commands[name]
        out = os.path.join(self.work, "out", name)
        report = os.path.join(out, "validate.json" if argv[0] == "validate" else "report.json")
        # a report left by the previous series must not pass for this call's
        with contextlib.suppress(FileNotFoundError):
            os.remove(report)
        proc = subprocess.run([sys.executable, "-m", "qrgraph.cli", *argv, "--out", out,
                               "--seed", str(self.seed)],
                              capture_output=True, text=True, timeout=120)
        try:
            with open(report) as fh:
                parsed = json.load(fh)
        except (OSError, ValueError):
            parsed = None
        return proc.returncode, parsed, proc.stderr[-500:]

    def probe(self, code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return time.perf_counter() - t0

    def series(self, index: int) -> list[Job]:
        return [self.job(name) for name in self.commands]

    def job(self, name: str) -> Job:
        sub = self.commands[name][0]

        def run(tr):
            with tr.span(f"cli.{name}"):
                return self.call(name)

        def check(out):
            rc, report, err = out
            problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()[-200:]}"]
            if report is None or report.get("command") != sub:
                problems.append("no parseable report naming the subcommand")
            return problems

        defect = None
        if name == "verify_inverse_qr":
            def defect(out):
                rc, report, _err = out
                return (rc == 2 and report is not None
                        and report["certificates"][0]["constant"] == math.inf)
        return Job(name, run, check, defect=defect,
                   defect_note=INVERSE_QR_DEFECT if defect else "")


WORKLOADS = {"annulus": Annulus, "pullback": Pullback, "corpus": Corpus, "cli": Cli}
