"""Synthetic corpus generator with a known smell planting plan.

Each file lives in its own directory so the directory-scoped remote-state
check stays under the plan's control: every directory gets a remote backend
except those where SS6 is planted. Planted files trigger exactly one smell
under both engines; filler files trigger none.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from tfsustain.catalog import SmellId

# files per smell in the default 200-file corpus (9.50%, 4.00%, ...)
DEFAULT_PLAN: dict[SmellId, int] = {
    SmellId.SS7: 19,
    SmellId.SS6: 8,
    SmellId.SS2: 6,
    SmellId.SS4: 4,
    SmellId.SS3: 3,
    SmellId.SS5: 2,
    SmellId.SS1: 2,
}

_BACKEND = """terraform {{
  backend "gcs" {{
    bucket = "state-{idx}"
  }}
}}
"""

_FILLER = """resource "google_compute_network" "net_{idx}" {{
  name = "net-{idx}"
}}
"""


def _ss1(idx: int) -> str:
    return (
        _BACKEND.format(idx=idx)
        + """
resource "azurerm_virtual_machine" "big_{idx}" {{
  name     = "big-{idx}"
  vm_size  = "Standard_D16s_v3"
}}
""".format(idx=idx)
    )


def _ss2(idx: int) -> str:
    return (
        _BACKEND.format(idx=idx)
        + """
resource "aws_instance" "farm_{idx}" {{
  count         = 5
  ami           = "ami-000000{idx}"
  instance_type = "t3.small"
}}
""".format(idx=idx)
    )


def _ss3(idx: int) -> str:
    return (
        _BACKEND.format(idx=idx)
        + """
resource "azurerm_managed_disk" "disk_{idx}" {{
  name                 = "disk-{idx}"
  storage_account_type = "Standard_LRS"
}}
""".format(idx=idx)
    )


def _ss4(idx: int) -> str:
    return (
        _BACKEND.format(idx=idx)
        + """
resource "aws_cloudwatch_log_group" "logs_{idx}" {{
  name              = "logs-{idx}"
  retention_in_days = 365
}}
""".format(idx=idx)
    )


def _ss5(idx: int) -> str:
    return (
        _BACKEND.format(idx=idx)
        + """
resource "google_compute_instance" "near_{idx}" {{
  name = "near-{idx}"
  zone = "us-west1-a"
}}

resource "google_compute_instance" "far_{idx}" {{
  name = "far-{idx}"
  zone = "europe-west1-b"
  peer = google_compute_instance.near_{idx}.id
}}
""".format(idx=idx)
    )


def _ss6(idx: int) -> str:
    return """terraform {{
  required_version = ">= 1.0"
}}

""".format() + _FILLER.format(idx=idx)


def _ss7(idx: int) -> str:
    resources = "\n".join(
        f'resource "google_compute_address" "addr_{idx}_{n}" {{\n'
        f'  name = "addr-{idx}-{n}"\n'
        f"}}\n"
        for n in range(12)
    )
    return _BACKEND.format(idx=idx) + "\n" + resources


def _clean(idx: int) -> str:
    return _BACKEND.format(idx=idx) + "\n" + _FILLER.format(idx=idx)


_WRITERS = {
    SmellId.SS1: _ss1,
    SmellId.SS2: _ss2,
    SmellId.SS3: _ss3,
    SmellId.SS4: _ss4,
    SmellId.SS5: _ss5,
    SmellId.SS6: _ss6,
    SmellId.SS7: _ss7,
}


def build_corpus(
    root: Path,
    plan: dict[SmellId, int] | None = None,
    total: int = 200,
) -> dict[SmellId, set[str]]:
    """Write the corpus under root; returns planted file paths per smell."""
    if plan is None:
        plan = DEFAULT_PLAN
    if sum(plan.values()) > total:
        raise ValueError("plan exceeds corpus size")
    planted: dict[SmellId, set[str]] = {smell: set() for smell in SmellId}
    idx = 0
    for smell in sorted(plan, key=int):
        for _ in range(plan[smell]):
            rel = f"d{idx:03d}/main.tf"
            path = root / rel
            path.parent.mkdir(parents=True)
            path.write_text(_WRITERS[smell](idx), encoding="utf-8")
            planted[smell].add(rel)
            idx += 1
    while idx < total:
        rel = f"d{idx:03d}/main.tf"
        path = root / rel
        path.parent.mkdir(parents=True)
        path.write_text(_clean(idx), encoding="utf-8")
        idx += 1
    return planted


def load_perfbench_corpus():
    """``perfbench/corpus.py``, loaded read-only for its monolith generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module
