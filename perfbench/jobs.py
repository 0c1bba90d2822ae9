"""The job lists of the workloads and the correctness check of every job.

A job carries one input to its rendered report or verdict through the same
public calls the ``topos-lsc`` CLI makes.  ``run`` is the timed part;
``check`` runs afterwards, untimed and untraced, and returns the problems it
found.  Checks use oracles that do not share the route they check, and the
sha256 of every ``--format machine`` report whose input is fixed, or drawn
by the seed from a fixed set, is pinned in ``digests.json``.
"""

import hashlib
import itertools
import json
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from toposlsc import filters, io, lsc, reports, verify, words
from toposlsc.fincat import DEFAULT_BUDGET

from . import inputs

DIGESTS_FILE = Path(__file__).with_name("digests.json")

SUBGROUP_COUNTS = {"D4": 10, "Q8": 6, "S3": 6, "Z4": 3, "S4": 30, "Z24": 8, "E16": 67,
                   "Z2": 2, "Z3": 2, "Z5": 2, "Z6": 4}

# number of congruences of S4, all of which a small subgroup's filter reaches
S4_FULL_FILTER = 30


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest_key: Optional[str] = None  # set when the report bytes are pinned


def load_digests():
    return json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest_problems(job, text, digests):
    if job.digest_key is None:
        return []
    want = digests.get(job.digest_key)
    if want is None:
        return [f"no pinned digest for {job.digest_key!r}"]
    got = sha256(text)
    return [] if got == want else [f"report sha256 {got[:12]} differs from pinned {want[:12]}"]


def verdict_problems(report):
    return [f"FAIL {v['check']}" for v in report["verdicts"] if not v["pass"]]


# ---------------------------------------------------------------------------
# brute-force |Xi| for the tiny sites, straight from the category file
# ---------------------------------------------------------------------------

def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def brute_force_xi_sizes(path):
    """Per object c, the number of right-compatible partitions of the
    morphisms into c, one Bell partition per hom-set, checked against every
    composable morphism.  Reads the JSON file, not the loaded category."""
    data = json.loads(Path(path).read_text())
    src = {m["name"]: m["src"] for m in data["morphisms"]}
    dst = {m["name"]: m["dst"] for m in data["morphisms"]}
    after = {(e["g"], e["f"]): e["result"] for e in data["composition"]}
    sizes = {}
    for c in data["objects"]:
        homs = [[m for m in src if src[m] == a and dst[m] == c] for a in data["objects"]]
        count = 0
        for parts in itertools.product(*(list(set_partitions(h)) for h in homs)):
            label = {u: i for i, block in enumerate(b for p in parts for b in p) for u in block}
            count += all(label[after[(u, g)]] == label[after[(v, g)]]
                         for u in label for v in label if label[u] == label[v]
                         for g in src if dst[g] == src[u])
        sizes[c] = count
    return sizes


# ---------------------------------------------------------------------------
# job constructors
# ---------------------------------------------------------------------------

def render_machine(report):
    return report, reports.render(report, "machine")


def lsc_job(path, digests):
    def run():
        return render_machine(reports.lsc_report(lsc.build_lsc(io.load_category(path))))

    def check(out):
        report, text = out
        problems = verdict_problems(report) + digest_problems(job, text, digests)
        got = {c: len(xs) for c, xs in report["payload"]["xi"].items()}
        if got != brute_force_xi_sizes(path):
            problems.append(f"|Xi| {got} disagrees with the brute-force count")
        return problems

    job = Job(f"lsc {path.name}", run, check, f"lsc {path.name}")
    return job


def group_job(path, digests):
    def run():
        G = io.load_group(path)
        return render_machine(reports.group_report(G, lsc.build_lsc(G.site())))

    def check(out):
        report, text = out
        problems = verdict_problems(report) + digest_problems(job, text, digests)
        payload = report["payload"]
        if len(payload["subgroups"]) != SUBGROUP_COUNTS[payload["group"]]:
            problems.append(f"{len(payload['subgroups'])} subgroups, expected "
                            f"{SUBGROUP_COUNTS[payload['group']]}")
        return problems

    job = Job(f"group {path.name}", run, check, f"group {path.name}")
    return job


def filter_job(group_path, filter_path, digests):
    generators = json.loads(filter_path.read_text())

    def run():
        G = io.load_group(group_path)
        L = lsc.build_lsc(G.site())
        F = filters.filter_generated_by(L, io.load_filter_selection(L, filter_path))
        cert = filters.certify_quotient_classifier(F)
        payload = {"group": G.label, "generators": generators, "selection_size": F.size()}
        return render_machine(reports.make_report("filter", payload, [cert]))

    def check(out):
        report, text = out
        problems = verdict_problems(report) + digest_problems(job, text, digests)
        if report["payload"]["selection_size"] != S4_FULL_FILTER:
            problems.append(f"filter has {report['payload']['selection_size']} congruences")
        return problems

    name = f"filter {group_path.stem} {generators['*']}"
    job = Job(name, run, check, name)
    return job


def regex_job(path, digests):
    data = json.loads(path.read_text())
    regex, alphabet = data["regex"], data["alphabet"]
    ends = {inputs.ends_regex(k): 2 ** (k + 1) for k in inputs.ENDS_K}

    def run():
        d = words.regex_to_min_dfa(regex, alphabet)
        return render_machine(reports.words_report(
            d, source={"regex": regex, "alphabet": alphabet}))

    def check(out):
        report, text = out
        problems = verdict_problems(report) + digest_problems(job, text, digests)
        if regex in ends and report["payload"]["nerode_index"] != ends[regex]:
            problems.append(f"{report['payload']['nerode_index']} states, expected {ends[regex]}")
        return problems

    job = Job(f"words {path.name}", run, check, f"words {regex} {alphabet}")
    return job


def band_job(path, target, digests):
    def run():
        return render_machine(reports.words_report(io.load_dfa(path), source={"dfa": path.name}))

    def check(out):
        report, text = out
        problems = verdict_problems(report) + digest_problems(job, text, digests)
        order = report["payload"]["syntactic_monoid"]["order"]
        if abs(order - target) > 0.05 * target:
            problems.append(f"syntactic monoid order {order} is not within 5% of {target}")
        return problems

    # the pool is fixed, so every member's report is pinned by its DFA file
    job = Job(f"words {path.name}", run, check, f"words dfa {sha256(path.read_text())}")
    return job


def pipeline_job(path):
    def run():
        d = io.load_dfa(path)
        m = words.minimize(d)
        rc = words.nerode_congruence(m)
        return d, m, rc, words.words_normalization_operator(rc)

    def check(out):
        d, m, rc, normalized = out
        problems = []
        if words.residual_count_dfa(d) != m.n:
            problems.append(f"minimize gave {m.n} states, the residual oracle disagrees")
        if rc.index != m.n:
            problems.append(f"Nerode index {rc.index} != {m.n} minimal states")
        if not words.congruence_leq(rc, normalized):
            problems.append("normalization is not inflationary")
        return problems

    return Job(f"pipeline {path.name}", run, check)


def suite_job(name, fixtures_dir, digests, pinned):
    def run():
        cert = verify.run_suite(name, DEFAULT_BUDGET, str(fixtures_dir))
        report = reports.make_report(f"verify-{name}", {"checks": len(cert.checks)}, [cert])
        return render_machine(report)

    def check(out):
        report, text = out
        return verdict_problems(report) + digest_problems(job, text, digests)

    job = Job(f"verify --suite {name}", run, check, f"verify {name}" if pinned else None)
    return job


def workload_jobs(workload, folder, digests=None):
    """The fixed job list of one pass over ``workload``'s inputs in ``folder``."""
    folder = Path(folder)
    digests = load_digests() if digests is None else digests
    if workload == "sites":
        return ([lsc_job(p, digests) for p in sorted(folder.glob("*.cat"))]
                + [group_job(p, digests) for p in sorted(folder.glob("*.group"))]
                + [filter_job(folder / "S4.group", folder / "S4.filter", digests)])
    if workload == "automata":
        return ([regex_job(p, digests) for p in sorted(folder.glob("*.regex"))]
                + [band_job(folder / f"{name}.dfa", target, digests)
                   for name, target, _ in inputs.BANDS]
                + [pipeline_job(folder / f"random{n}.dfa") for n in inputs.PIPELINE_STATES])
    if workload == "verify":
        # only the words suite reads the seed-drawn .dfa and .regex fixtures
        return [suite_job(name, folder, digests, pinned=name != "words")
                for name in ("lsc", "normalize", "filters", "words")]
    raise ValueError(f"unknown workload {workload!r}")
