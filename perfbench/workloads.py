"""The three benchmark workloads: seeded inputs, how each job calls
spinchar, and how each answer is checked.

Input generation uses only the standard library and ``lie``; the library
receives nothing but the generated (type, weight, pivot) inputs. Every
seed gives the same jobs: anchors first, then the rank pools of spin
queries and the candidates, in an order the seed sets within each stratum
(rank for spin queries, type for candidates). Seeded subsets moved a job
list's cost and quantiles by up to 18% between seeds. The gradings are one
fixed list.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

import references as ref
from lie import lie

# ---------------------------------------------------------------------------
# spin-queries: `spinchar spin --type T --weight w --format json`

# In the order they are spread through the other queries; the three long
# ones (F4 V_w1, B4 V_2w1, C4 V_w2: ~24 s of a ~34 s pass) lie apart.
SPIN_ANCHORS = [("A1", (2,)), ("G2", (1, 0)), ("F4", (1, 0, 0, 0)), ("A1", (4,)),
                ("D4", (1, 0, 0, 0)), ("A1", (6,)), ("B4", (2, 0, 0, 0)), ("A1", (8,)),
                ("B4", (1, 0, 0, 0)), ("A1", (10,)), ("C4", (0, 1, 0, 0)), ("A1", (12,)),
                ("A1", (14,)), ("A1", (16,))]
assert {(t, lam) for t, lam in SPIN_ANCHORS if t == "A1"} == \
    {("A1", (n,)) for n in ref.SPIN_SERIES}

# Drawn types per rank, simple and product. A drawn module acts
# nontrivially on every simple factor and stays at or below the dimension
# cap of its rank, which keeps each query in the small-to-medium range
# (a 30-dimensional rank-3 module can take 7 s, as long as an anchor).
SPIN_TYPES = {
    1: ["A1"],
    2: ["A2", "B2", "C2", "G2", "A1xA1"],
    3: ["A3", "B3", "C3", "D3", "A1xB2", "A1xC2", "A1xA1xA1"],
    4: ["B4", "D4", "A1xC3", "B2xB2", "A1xA1xA1xA1"],
}
SPIN_DIM_CAP = {1: 41, 2: 20, 3: 16, 4: 16}
# How many times each rank's pool is queried. Every module of the pools is
# in every job list; the seed sets the order. Drawing 8 of the 12 rank-1
# modules and 34 rank-3 queries from a pool of 16 moved job_p50_s by up to
# 17% between seeds.
SPIN_COPIES = {1: 1, 2: 2, 3: 2, 4: 1}


def _factor_ranks(type_text):
    return [int(part[1:]) for part in type_text.split("x")]


def _spin_pool(type_text):
    """Orthogonal modules of one type under its rank's dimension cap.

    The dimension grows with every coefficient, so each coefficient is
    raised only while the weight with the later coefficients at zero still
    fits under the cap."""
    L = lie(type_text)
    cap = SPIN_DIM_CAP[L.rank]
    ranks = _factor_ranks(type_text)
    anchors = set(SPIN_ANCHORS)
    out = []

    def rec(prefix):
        if len(prefix) == L.rank:
            yield prefix
            return
        c = 0
        while L.dimension(prefix + (c,) + (0,) * (L.rank - len(prefix) - 1)) <= cap:
            yield from rec(prefix + (c,))
            c += 1

    for lam in rec(()):
        blocks, off = [], 0
        for r in ranks:
            blocks.append(lam[off:off + r])
            off += r
        if all(any(b) for b in blocks) and (type_text, lam) not in anchors \
                and L.is_orthogonal(lam):
            out.append(lam)
    return out


def spin_jobs(seed, max_rank=None):
    """The pooled queries in seeded order, with the anchors spread evenly
    among them. With the anchors first, the short queries were timed only
    in the last third of a pass, and job_p50_s spread 0.23 between runs."""
    rng = random.Random(seed)
    drawn = [(t, lam) for rank in sorted(SPIN_TYPES) for t in SPIN_TYPES[rank]
             for lam in _spin_pool(t) for _ in range(SPIN_COPIES[rank])]
    rng.shuffle(drawn)
    picks, n = [], len(SPIN_ANCHORS)
    for k, anchor in enumerate(SPIN_ANCHORS):
        picks += [anchor] + drawn[k * len(drawn) // n:(k + 1) * len(drawn) // n]
    jobs = []
    for t, lam in picks:
        if max_rank is not None and lie(t).rank > max_rank:
            continue
        jobs.append({"id": f"spin:{t}:{','.join(map(str, lam))}", "kind": "spin",
                     "type": t, "weight": lam})
    return jobs


def run_spin(job, sc, ctx):
    buf = io.StringIO()
    argv = ["spin", "--type", job["type"], "--weight",
            ",".join(map(str, job["weight"])), "--format", "json"]
    with contextlib.redirect_stdout(buf):
        code = sc.cli.main(argv)
    if code != 0:
        raise JobFailed(f"spinchar exited with code {code}")
    report = json.loads(buf.getvalue())["spin"][0]
    if report["orthogonality"] != "orthogonal":
        return {"orthogonality": report["orthogonality"]}
    return {
        "orthogonality": report["orthogonality"],
        "spin_scalar": report["spin_scalar"],
        "summands": sorted(
            [[int(Fraction(c)) for c in s["fw"]], s["multiplicity"], s["dimension"]]
            for s in report["spin0_decomposition"]),
        "heads": sorted(s["weight"] for s in report["spin0_decomposition"]),
        "extreme": sorted(report["extreme_weights"]),
    }


def check_spin(job, ans):
    if ans["orthogonality"] != "orthogonal":
        return f"orthogonality {ans['orthogonality']}, expected orthogonal"
    L = lie(job["type"])
    lam = job["weight"]
    n = L.dimension(lam)
    m0 = L.zero_weight_multiplicity(lam)
    total = sum(m * d for _, m, d in ans["summands"])
    if total != 2 ** ((n - m0) // 2):
        return f"Spin0 dimensions sum to {total}, expected 2^(({n}-{m0})/2)"
    if ans["spin_scalar"] != 2 ** (m0 // 2):
        return f"spin scalar {ans['spin_scalar']}, expected 2^({m0}//2)"
    for fw, _, d in ans["summands"]:
        if L.dimension(fw) != d:
            return f"summand {fw} reports dimension {d}"
    if not ans["extreme"] or not set(map(tuple, ans["extreme"])) <= set(map(tuple, ans["heads"])):
        return "extreme weights are not among the Spin0 heads"
    expected = ref.SPIN.get((job["type"], tuple(lam)))
    got = sorted((tuple(fw), m) for fw, m, _ in ans["summands"])
    if expected is not None and got != expected:
        return f"Spin0 heads {got}, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# symmetric-pairs: spin_g1 (both routes), casimir_check, verify_tau_identity

# spinchar's inner sweep types of rank <= 3, every grading, then the outer
# instances, then the anchor F4/B4. F4/B4 (~15 s) runs once per run; the
# jobs before it are what the later passes of a run repeat. The rank-4
# pivots of A4/B4/C4/D4 (~14 s), F4/C3xA1 and the outer E6/C4 (see
# references.OUTER) would leave no time for a second sample of any job.
SWEEP = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]
F4_B4 = ("F4", 1)


def _pivots(type_text):
    return [i for i, m in enumerate(lie(type_text).marks(), start=1) if m <= 2]


def pairs_jobs(seed, max_rank=None):
    """Every grading once, its three checks in a row, in a fixed order:
    the inner sweep, the outer instances, F4/B4 (marked ``once``). The list
    is the same for every seed: drawing pivots or shuffling the order moved
    job_p90_s and peak_rss_mb by up to 30% between seeds."""
    gradings = [("inner", (t, p)) for t in SWEEP for p in _pivots(t)]
    gradings += [("outer", key) for key in ref.OUTER]
    gradings.append(("inner", F4_B4))
    jobs = []
    for kind, key in gradings:
        rank = lie(key[0]).rank if kind == "inner" else ref.OUTER_RANK[key]
        if max_rank is not None and rank > max_rank:
            continue
        name = f"{key[0]}/alpha{key[1]}" if kind == "inner" else f"{key[0]}{key[1]}"
        for check in ("spin_g1", "casimir", "tau"):
            job = {"id": f"{check}:{name}", "kind": check, "grading": [kind, key]}
            if (kind, key) == ("inner", F4_B4):
                job["once"] = True
            jobs.append(job)
    return jobs


def _key(job):
    """(kind, key) of a grading job, hashable after a JSON round trip."""
    kind, (name, arg) = job["grading"]
    return kind, (name, tuple(arg) if isinstance(arg, list) else arg)


def run_pairs(job, sc, ctx):
    kind, key = _key(job)
    if job["kind"] == "spin_g1":
        if kind == "inner":
            grading = sc.gradings.inner_grading(sc.rootsys.build_root_system(key[0]), key[1])
        else:
            grading = sc.gradings.outer_grading(key[0], *key[1])
        sp = sc.gradings.spin_g1(grading)
        ctx[(kind, key)] = (grading, sp)
        g0 = grading.g0
        return {
            "count": len(sp),
            "dims": sorted(s.dimension for s in sp.summands),
            "fw": sorted([int(c) for c in g0.fw_coefficients(s.lam)] for s in sp.summands),
            "multiplicity_free": sp.is_multiplicity_free(),
        }
    if (kind, key) not in ctx:
        raise JobFailed("grading was not built by its spin_g1 job")
    grading, sp = ctx[(kind, key)]
    if job["kind"] == "casimir":
        return {"value": str(sc.gradings.casimir_check(grading, sp))}
    half = [w for w, _ in grading.delta1.canonical_half()]
    ok = sc.gradings.verify_tau_identity(grading.ambient, grading.sub, half,
                                         rho=grading.rho_effective)
    return {"identity": ok}


def _pair_facts(kind, key):
    """(summand count, Spin0 exponent, Casimir value) from benchmark data."""
    if kind == "inner":
        L = lie(key[0])
        odd = L.odd_positive_roots(key[1])
        count = L.weyl_order() // L.fixed_weyl_order(key[1])
        return count, odd, Fraction(L.dual_coxeter_number() * 2 * odd, 8)
    o = ref.OUTER[key]
    return (o["count"], (o["dim_p"] - o["m0"]) // 2,
            Fraction(o["dual_coxeter"] * o["dim_p"] * o["form_scale"], 8))


def check_pairs(job, ans):
    kind, key = _key(job)
    count, exponent, casimir = _pair_facts(kind, key)
    if job["kind"] == "spin_g1":
        if ans["count"] != count:
            return f"{ans['count']} summands, expected |W|/|W0| = {count}"
        if sum(ans["dims"]) != 2 ** exponent:
            return f"Spin0 dimensions sum to {sum(ans['dims'])}, expected 2^{exponent}"
        if not ans["multiplicity_free"]:
            return "Spin0 is not multiplicity free"
        expected = ref.INNER_DIMS.get(key) if kind == "inner" else ref.OUTER[key].get("dims")
        if expected is not None and ans["dims"] != expected:
            return f"dimensions {ans['dims']}, expected {expected}"
        return None
    if job["kind"] == "casimir":
        if Fraction(ans["value"]) != casimir:
            return f"Casimir value {ans['value']}, expected {casimir}"
        return None
    return None if ans["identity"] is True else "twisted denominator identity failed"


# ---------------------------------------------------------------------------
# classify-sweep: spinmod.classify_candidate over rank <= 3 candidates

CLASSIFY_TYPES = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3"]
CLASSIFY_HEIGHT = 8
LATER_FILTERS = {"highest-weight-off-root-line", "weights-off-root-lines",
                 "symplectic", "spin0-reducible", "coprimary"}


def classify_jobs(seed, max_rank=None):
    """Every candidate of height <= CLASSIFY_HEIGHT, type by type; the seed
    sets the order within each type. A seeded three-in-four sample moved
    a pass's cost by up to 8%, and job_p90_s by up to 18%, between seeds."""
    rng = random.Random(seed)
    jobs = []
    for t in CLASSIFY_TYPES:
        rank = lie(t).rank
        if max_rank is not None and rank > max_rank:
            continue
        candidates = [lam for h in range(1, CLASSIFY_HEIGHT + 1)
                      for lam in itertools.product(range(h + 1), repeat=rank) if sum(lam) == h]
        rng.shuffle(candidates)
        jobs += [{"id": f"candidate:{t}:{','.join(map(str, lam))}", "kind": "candidate",
                  "type": t, "weight": lam} for lam in candidates]
    return jobs


def run_classify(job, sc, ctx):
    rs = sc.rootsys.build_root_system(job["type"])
    record = sc.spinmod.classify_candidate(rs, rs.weight(*job["weight"]))
    spin0 = record["spin0"]
    return {
        "filter": record["filter"],
        "coprimary": record["coprimary"],
        "spin0": None if spin0 is None else sorted(
            [[int(Fraction(c)) for c in s["fw"]], s["multiplicity"], s["dimension"]]
            for s in spin0),
    }


def check_classify(job, ans):
    L = lie(job["type"])
    lam = job["weight"]
    f = ans["filter"]
    if not L.is_self_dual(lam):
        return None if f == "not-self-dual" else f"filter {f}, expected not-self-dual"
    if not L.in_root_lattice(lam):
        return None if f == "zero-weight" else f"filter {f}, expected zero-weight"
    if f not in LATER_FILTERS:
        return f"filter {f} on a self-dual root-lattice weight"
    if not L.is_orthogonal(lam) and f in ("spin0-reducible", "coprimary"):
        return f"symplectic module reached filter {f}"
    if f == "symplectic" and L.is_orthogonal(lam):
        return "orthogonal module filtered as symplectic"
    expected = (job["type"], tuple(lam)) in ref.COPRIMARY
    if ans["coprimary"] != expected:
        return f"coprimary {ans['coprimary']}, expected {expected}"
    if ans["spin0"] is not None:
        n, m0 = L.dimension(lam), L.zero_weight_multiplicity(lam)
        total = sum(m * d for _, m, d in ans["spin0"])
        if total != 2 ** ((n - m0) // 2):
            return f"Spin0 dimensions sum to {total}, expected 2^(({n}-{m0})/2)"
        if expected != (len(ans["spin0"]) == 1 and ans["spin0"][0][1] == 1):
            return f"Spin0 {ans['spin0']} disagrees with the co-primary verdict"
    elif f in ("spin0-reducible", "coprimary"):
        return f"filter {f} without a Spin0 decomposition"
    return None


# ---------------------------------------------------------------------------


class JobFailed(Exception):
    """A job whose library call returned but signalled failure."""


WORKLOADS = {
    "spin-queries": {"jobs": spin_jobs, "run": run_spin, "check": check_spin},
    "symmetric-pairs": {"jobs": pairs_jobs, "run": run_pairs, "check": check_pairs},
    "classify-sweep": {"jobs": classify_jobs, "run": run_classify, "check": check_classify},
}
