"""Workload definitions and seeded input generation.

Each workload is a meta-configuration the way a user would write it,
plus the files it points at: empty corpus files for every language pair
that has data (so task discovery probes a real directory), a line-count
file, and for grouped architectures a distance matrix with planted
language families.  Everything is drawn from the run's seed; the program
under test receives only these files.
"""
from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field

import yaml

SRC_TEMPLATE = "{lang_pair}.{src_lang}"
TGT_TEMPLATE = "{lang_pair}.{tgt_lang}"

ALLPAIRS_ENC = (("LANGUAGE", 2), ("FULL", 4))
ALLPAIRS_DEC = (("LANGUAGE", 4),)


@dataclass(frozen=True)
class Workload:
    name: str
    n_langs: int
    layout: str  # "allpairs": every ordered pair; "hub": one language paired both ways with all others
    enc: tuple[tuple[str, int], ...]
    dec: tuple[tuple[str, int], ...]
    n_nodes: int
    sim_steps: int
    accum_count: int
    n_gpus_per_node: int = 8
    n_slots_per_gpu: int = 8
    search_budget: int | None = None  # None: the planner's default budget
    n_families: int = 0  # > 0: write a distance matrix and ask for that many groups
    temperature: float = 2.0
    # (share of tasks delayed, start step): the smallest corpora wait until start step
    curriculum: tuple[float, int] | None = None
    adapters: tuple[dict, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        # Baseline row of the roadmap: local search is nearly all of the run;
        # 380 tasks on 384 slots, so most candidate moves are swaps.
        Workload(
            name="plan-allpairs",
            n_langs=20,
            layout="allpairs",
            enc=ALLPAIRS_ENC,
            dec=ALLPAIRS_DEC,
            n_nodes=6,
            sim_steps=60,
            accum_count=4,
        ),
        # Clustering and discovery (14,280 probed pairs) dominate; local search
        # runs on loose capacity with curriculum-cover constraints.  The two
        # adapters are listed out of name order on purpose.
        Workload(
            name="plan-hub",
            n_langs=120,
            layout="hub",
            enc=(("LANGUAGE", 2), ("GROUP", 2), ("FULL", 2)),
            dec=(("GROUP", 2), ("LANGUAGE", 2)),
            n_nodes=8,
            sim_steps=60,
            accum_count=4,
            search_budget=500,
            n_families=8,
            temperature=5.0,
            curriculum=(0.1, 5000),
            adapters=(
                {"name": "tgt_lang", "side": "decoder", "positions": [1], "pattern": "LANGUAGE"},
                {"name": "enc_group", "side": "encoder", "positions": [1], "pattern": "GROUP"},
            ),
        ),
        # The greedy warm start (no local search) on 200 devices; simulation
        # and the YAML hand-off of a large plan dominate.
        Workload(
            name="sim-wide",
            n_langs=40,
            layout="allpairs",
            enc=ALLPAIRS_ENC,
            dec=ALLPAIRS_DEC,
            n_nodes=25,
            sim_steps=120,
            accum_count=1,
            search_budget=0,
            curriculum=(0.2, 60),
        ),
    )
}


@dataclass
class Inputs:
    """What the benchmark laid out, kept to check the program's outputs."""

    workload: Workload
    seed: int
    meta_path: str
    langs: list[str]
    pairs: list[tuple[str, str]]
    line_counts: dict[str, int]
    curriculum: list[dict] = field(default_factory=list)
    # language -> expected group name, derived from the planted families
    groups: dict[str, str] | None = None


def _language_codes(rng: random.Random, n: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    codes: set[str] = set()
    while len(codes) < n:
        codes.add("".join(rng.choice(letters) for _ in range(3)))
    return sorted(codes)


def _pairs(w: Workload, langs: list[str], rng: random.Random) -> list[tuple[str, str]]:
    if w.layout == "allpairs":
        return [(s, t) for s in langs for t in langs if s != t]
    hub = rng.choice(langs)
    others = [l for l in langs if l != hub]
    return sorted([(hub, l) for l in others] + [(l, hub) for l in others])


def _families(rng: random.Random, langs: list[str], k: int) -> list[list[str]]:
    shuffled = list(langs)
    rng.shuffle(shuffled)
    return [sorted(shuffled[i::k]) for i in range(k)]


def _distance_rows(rng: random.Random, langs: list[str], families: list[list[str]]) -> str:
    """Within a family every distance is below every distance across
    families, so complete linkage down to len(families) groups must
    recover the families exactly."""
    family_of = {l: i for i, fam in enumerate(families) for l in fam}
    n = len(langs)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            same = family_of[langs[i]] == family_of[langs[j]]
            v = rng.uniform(0.1, 0.4) if same else rng.uniform(0.6, 1.0)
            d[i][j] = d[j][i] = v
    lines = [" ".join(langs)]
    lines.extend(" ".join(repr(v) for v in row) for row in d)
    return "\n".join(lines) + "\n"


def expected_group_names(families: list[list[str]]) -> dict[str, str]:
    """group0..group{k-1} in ascending order of each family's smallest
    member, as the planner's naming rule prescribes."""
    ordered = sorted(families, key=min)
    return {lang: f"group{i}" for i, fam in enumerate(ordered) for lang in fam}


def make_inputs(w: Workload, seed: int, workdir: str) -> Inputs:
    """Write the workload's input files under `workdir` (emptied first)."""
    rng = random.Random(f"{w.name}:{seed}")
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    corpus = os.path.join(workdir, "corpus")
    os.makedirs(corpus)

    langs = _language_codes(rng, w.n_langs)
    pairs = _pairs(w, langs, rng)
    for src, tgt in pairs:
        for lang in (src, tgt):
            with open(os.path.join(corpus, f"{src}-{tgt}.{lang}"), "w"):
                pass

    # A pair's corpus is bounded by its smaller language's resources, so
    # the smallest corpora cluster on the few low-resource languages.
    resources = {l: 10 ** rng.uniform(3.0, 7.0) for l in langs}
    line_counts = {
        f"train_{src}-{tgt}": int(min(resources[src], resources[tgt]) * rng.uniform(0.5, 1.5))
        for src, tgt in pairs
    }
    with open(os.path.join(workdir, "line_counts.yaml"), "w") as f:
        yaml.safe_dump(line_counts, f, sort_keys=True)

    meta = {
        "langs": langs,
        "src_path_template": SRC_TEMPLATE,
        "tgt_path_template": TGT_TEMPLATE,
        "corpus_mode": "directional",
        "corpus_root": "corpus",
        "enc_sharing": [{"pattern": p, "layers": n} for p, n in w.enc],
        "dec_sharing": [{"pattern": p, "layers": n} for p, n in w.dec],
        "n_nodes": w.n_nodes,
        "n_gpus_per_node": w.n_gpus_per_node,
        "n_slots_per_gpu": w.n_slots_per_gpu,
        "temperature": w.temperature,
        "line_counts": "line_counts.yaml",
        "seed": seed,
    }
    if w.search_budget is not None:
        meta["search_budget"] = w.search_budget

    curriculum: list[dict] = []
    if w.curriculum is not None:
        share, start = w.curriculum
        counts = sorted(line_counts.values())
        curriculum = [{"start_step": start, "below_lines": counts[int(share * len(counts))]}]
        meta["curriculum"] = curriculum

    groups = None
    if w.n_families:
        families = _families(rng, langs, w.n_families)
        with open(os.path.join(workdir, "distances.txt"), "w") as f:
            f.write(_distance_rows(rng, langs, families))
        meta["distance_matrix"] = "distances.txt"
        meta["n_groups"] = w.n_families
        groups = expected_group_names(families)
    if w.adapters:
        meta["adapters"] = [dict(a) for a in w.adapters]

    meta_path = os.path.join(workdir, "meta.yaml")
    with open(meta_path, "w") as f:
        yaml.safe_dump(meta, f, sort_keys=False)
    return Inputs(w, seed, meta_path, langs, pairs, line_counts, curriculum, groups)
