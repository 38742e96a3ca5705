"""Seeded Terraform inputs for the scan benchmark, with their references.

Every generator builds the files in memory together with the reference the
scan output is checked against; ``Corpus.write`` puts them on disk. The
references come from how the files were made, never from running tfsustain:

* the synthetic part plants exactly one smell per planted file (the same
  templates and default plan as ``tests/synth.py``, scaled five times), so its
  per-file smell sets must equal the plan under both engines;
* the fixture replicas are byte copies of ``perfbench/fixtures`` (a frozen
  copy of ``tests/fixtures``), so all replicas must yield the same findings;
* the monolith knows which resource references which peer in which region,
  so its cross-region (SS5) findings are known pair by pair.

The seed changes names, zones, references and the order of files, never the
amount of work, so runs with different seeds measure the same cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# The default 200-file plan of tests/synth.py, scaled by SYNTH_SCALE.
DEFAULT_PLAN = {"SS7": 19, "SS6": 8, "SS2": 6, "SS4": 4, "SS3": 3, "SS5": 2, "SS1": 2}
SYNTH_SCALE = 5
SYNTH_FILES = 200 * SYNTH_SCALE
FIXTURE_REPLICAS = 29

MONOLITH_RESOURCES = 3000

# name -> (corpus kind, engine, jobs). Each workload runs in its own process.
WORKLOADS = {
    "corpus-ast": ("tree", "ast", 1),
    "corpus-pattern": ("tree", "pattern", 1),
    "monolith-ast": ("monolith", "ast", 1),
    "corpus-ast-jobs2": ("tree", "ast", 2),
}
# Zones of three regions; SS5 compares the region part.
ZONES = {
    "us-west1": ("us-west1-a", "us-west1-b", "us-west1-c"),
    "europe-west1": ("europe-west1-b", "europe-west1-c", "europe-west1-d"),
    "asia-east1": ("asia-east1-a", "asia-east1-b", "asia-east1-c"),
}

_WORDS = (
    "alpha", "bravo", "cedar", "delta", "ember", "fjord", "gale", "harbor",
    "iris", "juniper", "kelp", "lumen", "maple", "nimbus", "onyx", "pine",
)

_BACKEND = 'terraform {{\n  backend "gcs" {{\n    bucket = "state-{tag}"\n  }}\n}}\n'
_FILLER = 'resource "google_compute_network" "net_{tag}" {{\n  name = "net-{tag}"\n}}\n'

_SYNTH_BODIES = {
    "SS1": 'resource "azurerm_virtual_machine" "big_{tag}" {{\n'
    '  name     = "big-{tag}"\n  vm_size  = "Standard_D16s_v3"\n}}\n',
    "SS2": 'resource "aws_instance" "farm_{tag}" {{\n  count         = 5\n'
    '  ami           = "ami-{tag}"\n  instance_type = "t3.small"\n}}\n',
    "SS3": 'resource "azurerm_managed_disk" "disk_{tag}" {{\n'
    '  name                 = "disk-{tag}"\n'
    '  storage_account_type = "Standard_LRS"\n}}\n',
    "SS4": 'resource "aws_cloudwatch_log_group" "logs_{tag}" {{\n'
    '  name              = "logs-{tag}"\n  retention_in_days = 365\n}}\n',
    "SS5": 'resource "google_compute_instance" "near_{tag}" {{\n'
    '  name = "near-{tag}"\n  zone = "us-west1-a"\n}}\n\n'
    'resource "google_compute_instance" "far_{tag}" {{\n'
    '  name = "far-{tag}"\n  zone = "europe-west1-b"\n'
    "  peer = google_compute_instance.near_{tag}.id\n}}\n",
}


def _synth_text(smell: str | None, tag: str) -> str:
    if smell == "SS6":
        return 'terraform {\n  required_version = ">= 1.0"\n}\n\n' + _FILLER.format(tag=tag)
    if smell == "SS7":
        body = "\n".join(
            f'resource "google_compute_address" "addr_{tag}_{n}" {{\n'
            f'  name = "addr-{tag}-{n}"\n}}\n'
            for n in range(12)
        )
    elif smell is None:
        body = _FILLER.format(tag=tag)
    else:
        body = _SYNTH_BODIES[smell].format(tag=tag)
    return _BACKEND.format(tag=tag) + "\n" + body


@dataclass
class Corpus:
    """Generated files and what their scan must report."""

    # relative POSIX path -> file content
    files: dict[str, bytes] = field(default_factory=dict)
    # directory the files were written to, once they were
    root: Path | None = None
    # synthetic file path -> the one planted smell name, or None for filler
    synth_plan: dict[str, str | None] = field(default_factory=dict)
    # replica prefix ("fixtures/r007/") of every fixture copy
    replica_prefixes: list[str] = field(default_factory=list)
    # monolith path -> {(start_line, evidence)} of every expected SS5 finding
    ss5_expected: dict[str, set[tuple[int, str]]] = field(default_factory=dict)

    @property
    def bytes(self) -> int:
        return sum(len(data) for data in self.files.values())

    def write(self, root: Path) -> None:
        for rel, data in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        self.root = root


def build_tree_corpus(seed: int) -> Corpus:
    """Many small files: the scaled synthetic plan plus fixture replicas."""
    rng = random.Random(seed)
    corpus = Corpus()
    smells: list[str | None] = [
        smell for smell, n in DEFAULT_PLAN.items() for _ in range(n * SYNTH_SCALE)
    ]
    smells += [None] * (SYNTH_FILES - len(smells))
    rng.shuffle(smells)
    for idx, smell in enumerate(smells):
        rel = f"synth/d{idx:04d}/main.tf"
        tag = f"{rng.choice(_WORDS)}{idx:04d}"
        corpus.files[rel] = _synth_text(smell, tag).encode("utf-8")
        corpus.synth_plan[rel] = smell

    fixtures = sorted(p for p in FIXTURES.rglob("*.tf") if p.is_file())
    if not fixtures:
        raise FileNotFoundError(f"no fixture files under {FIXTURES}")
    blobs = [(p.relative_to(FIXTURES).as_posix(), p.read_bytes()) for p in fixtures]
    for replica in range(FIXTURE_REPLICAS):
        prefix = f"fixtures/r{replica:03d}/"
        corpus.replica_prefixes.append(prefix)
        for rel, data in blobs:
            corpus.files[prefix + rel] = data
    return corpus


def monolith_text(resources: int, seed: int) -> tuple[str, set[tuple[int, str]]]:
    """One main.tf with ``resources`` resources and its expected SS5 findings.

    2.5 % of the resources are networks; of the rest, 40 % are zoned compute
    instances and the others addresses and firewalls, half each, without a
    region. 30 % of the instances name another instance as their peer in a
    ``peer`` attribute; the counts are fixed, so the seed moves only names,
    zones, order and which instances pair up. When the two
    sit in different regions the AST engine must report exactly one SS5
    finding for the pair, on the first referencing attribute of the earlier
    resource, else on the later one's. Networks carry no zone, so the
    instances' nested references to them never form a pair.
    """
    rng = random.Random(seed)
    regions = list(ZONES)
    networks = max(1, resources // 40)
    others = resources - networks
    n_instances = others * 2 // 5
    n_addresses = (others - n_instances) // 2
    kinds = (["instance"] * n_instances + ["address"] * n_addresses
             + ["firewall"] * (others - n_instances - n_addresses))
    rng.shuffle(kinds)
    instances = [i for i, kind in enumerate(kinds) if kind == "instance"]
    region_of = {i: rng.choice(regions) for i in instances}
    peer_of = {}
    for i in rng.sample(instances, len(instances) * 3 // 10):
        j = i
        while j == i:
            j = rng.choice(instances)
        peer_of[i] = j

    lines = [
        "terraform {",
        '  backend "gcs" {',
        f'    bucket = "state-monolith-{seed}"',
        "  }",
        "}",
        "",
    ]
    for n in range(networks):
        lines += [f'resource "google_compute_network" "net_{n}" {{', f'  name = "net-{n}"', "}", ""]
    peer_line: dict[int, int] = {}
    for i, kind in enumerate(kinds):
        if i % 10 == 0:
            old = rng.choice(regions)
            lines.append(f'# group {i // 10}: moved from zone = "{ZONES[old][0]}"')
        name = f"{rng.choice(_WORDS)}-{i}"
        if kind == "address":
            lines += [f'resource "google_compute_address" "ip_{i}" {{', f'  name = "{name}"']
        elif kind == "firewall":
            lines += [
                f'resource "google_compute_firewall" "fw_{i}" {{',
                f'  name    = "{name}"',
                f"  network = google_compute_network.net_{i % networks}.id",
                "  allow {",
                '    protocol = "tcp"',
                "  }",
            ]
        else:
            lines += [
                f'resource "google_compute_instance" "vm_{i}" {{',
                f'  name = "{name}"',
                f'  zone = "{rng.choice(ZONES[region_of[i]])}"',
            ]
            if i in peer_of:
                lines.append(f"  peer = google_compute_instance.vm_{peer_of[i]}.id")
                peer_line[i] = len(lines)
            lines += [
                "  network_interface {",
                f"    network = google_compute_network.net_{i % networks}.id",
                "  }",
            ]
        lines += ["}", ""]

    # Pair (a, b) with a before b in the file; the link is a's attribute
    # referencing b when there is one, otherwise b's referencing a.
    expected: dict[tuple[int, int], int] = {}
    for i, j in peer_of.items():
        if region_of[i] == region_of[j]:
            continue
        pair = (min(i, j), max(i, j))
        if i == pair[0] or pair not in expected:
            expected[pair] = peer_line[i]
    findings = {
        (line, f"{region_of[a]} != {region_of[b]}")
        for (a, b), line in expected.items()
    }
    return "\n".join(lines), findings


def build_monolith_corpus(seed: int, resources: int = MONOLITH_RESOURCES) -> Corpus:
    """A single large root module: one file, one directory."""
    corpus = Corpus()
    text, findings = monolith_text(resources, seed)
    corpus.files["main.tf"] = text.encode("utf-8")
    corpus.ss5_expected["main.tf"] = findings
    return corpus


def build_corpus(kind: str, seed: int) -> Corpus:
    if kind == "tree":
        return build_tree_corpus(seed)
    return build_monolith_corpus(seed)
