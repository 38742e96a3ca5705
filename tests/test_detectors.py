from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfsustain.catalog import SmellId
from tfsustain.detectors import (
    ConfigError,
    DetectorConfig,
    ast_engine,
    config_from_dict,
    detect_all,
    pattern_engine,
    unit_for,
)
from tfsustain.detectors.ast_engine import (
    detect_ss1_overprovisioning,
    detect_ss2_no_autoscaling,
    detect_ss3_no_lifecycle,
    detect_ss4_excessive_logging,
    detect_ss5_cross_region_transfer,
    detect_ss6_local_state,
    detect_ss7_monolithic,
    normalize_region,
    prepare,
)
from tfsustain.detectors.findings import SmellFinding
from tfsustain.hcl import parse, span_text

from conftest import FIXTURES, fixture_corpus_files

CFG = DetectorConfig()


def load_unit(rel: str):
    path = FIXTURES / rel
    return unit_for(rel, path.read_text())


def load_dir(rel: str):
    return [
        unit_for(f"{rel}/{p.name}", p.read_text())
        for p in sorted((FIXTURES / rel).glob("*.tf"))
    ]


def view(unit, cfg=CFG):
    return prepare(unit.file, cfg)


def smell_names(findings):
    return [f.smell.name for f in findings]


# -- SS1 ---------------------------------------------------------------


def test_ss1_sample_fixture_fires_once():
    unit = load_unit("samples/ss1.tf")
    findings = detect_ss1_overprovisioning(view(unit), CFG)
    assert len(findings) == 1
    assert findings[0].evidence == "Standard_D16s_v3"
    assert findings[0].smell is SmellId.SS1


def test_ss1_empty_file():
    assert detect_ss1_overprovisioning(prepare(parse(""), CFG), CFG) == []


def test_ss1_suppressed_by_scale_set_in_same_file():
    text = (FIXTURES / "samples" / "ss1.tf").read_text() + (
        '\nresource "azurerm_virtual_machine_scale_set" "scaler" {\n'
        '  name = "scaler"\n'
        "}\n"
    )
    unit = unit_for("x.tf", text)
    assert detect_ss1_overprovisioning(view(unit), CFG) == []


def test_ss1_gcp_machine_type_self_link_matches_tail():
    text = (
        'resource "google_compute_instance" "big" {\n'
        '  machine_type = "zones/us-central1-a/machineTypes/n1-standard-16"\n'
        "}\n"
    )
    findings = detect_ss1_overprovisioning(view(unit_for("x.tf", text)), CFG)
    assert len(findings) == 1


# -- SS2 ---------------------------------------------------------------


def test_ss2_sample_fixture_fires_once():
    unit = load_unit("samples/ss2.tf")
    findings = detect_ss2_no_autoscaling(view(unit), CFG)
    assert len(findings) == 1
    assert findings[0].evidence == "count=5"


def test_ss2_count_one_is_clean():
    text = 'resource "aws_instance" "one" {\n  count = 1\n}\n'
    assert detect_ss2_no_autoscaling(view(unit_for("x.tf", text)), CFG) == []


def test_ss2_suppressed_by_autoscaling_group():
    text = (FIXTURES / "samples" / "ss2.tf").read_text() + (
        '\nresource "aws_autoscaling_group" "asg" {\n  max_size = 10\n}\n'
    )
    assert detect_ss2_no_autoscaling(view(unit_for("x.tf", text)), CFG) == []


def test_ss2_ignores_non_literal_count():
    text = 'resource "aws_instance" "v" {\n  count = var.n\n}\n'
    assert detect_ss2_no_autoscaling(view(unit_for("x.tf", text)), CFG) == []


# -- SS3 ---------------------------------------------------------------


def test_ss3_compliant_sample_is_clean():
    unit = load_unit("samples/ss3.tf")
    assert detect_ss3_no_lifecycle(view(unit), CFG) == []


def test_ss3_mutant_without_lifecycle_fires():
    unit = load_unit("mutants/ss3_no_lifecycle/main.tf")
    findings = detect_ss3_no_lifecycle(view(unit), CFG)
    assert smell_names(findings) == ["SS3"]
    assert findings[0].evidence == "azurerm_managed_disk"


def test_ss3_type_outside_required_set_is_clean():
    text = 'resource "aws_sns_topic" "t" {\n  name = "t"\n}\n'
    assert detect_ss3_no_lifecycle(view(unit_for("x.tf", text)), CFG) == []


# -- SS4 ---------------------------------------------------------------


def test_ss4_sample_fixture_fires_once():
    unit = load_unit("samples/ss4.tf")
    findings = detect_ss4_excessive_logging(view(unit), CFG)
    assert len(findings) == 1 and findings[0].evidence == "365"


def test_ss4_short_retention_is_clean():
    text = 'resource "aws_cloudwatch_log_group" "g" {\n  retention_in_days = 30\n}\n'
    assert detect_ss4_excessive_logging(view(unit_for("x.tf", text)), CFG) == []


def test_ss4_missing_retention_fires_with_unset_evidence():
    text = 'resource "aws_cloudwatch_log_group" "g" {\n  name = "g"\n}\n'
    findings = detect_ss4_excessive_logging(view(unit_for("x.tf", text)), CFG)
    assert len(findings) == 1 and findings[0].evidence == "unset"


def test_ss4_missing_retention_flag_can_be_disabled():
    cfg = DetectorConfig(ss4_flag_missing_retention=False)
    text = 'resource "aws_cloudwatch_log_group" "g" {\n  name = "g"\n}\n'
    assert detect_ss4_excessive_logging(view(unit_for("x.tf", text), cfg), cfg) == []


# -- SS5 ---------------------------------------------------------------

SS5_PAIR = """resource "google_compute_instance" "a" {
  name = "a"
  zone = "us-west1-a"
}

resource "google_compute_instance" "b" {
  name = "b"
  zone = "europe-west1-b"
  peer = google_compute_instance.a.id
}
"""


def test_ss5_cross_region_pair_fires_once():
    findings = detect_ss5_cross_region_transfer(view(unit_for("x.tf", SS5_PAIR)), CFG)
    assert len(findings) == 1
    assert findings[0].evidence == "us-west1 != europe-west1"


def test_ss5_same_region_zones_are_clean():
    text = SS5_PAIR.replace("europe-west1-b", "us-west1-b")
    assert detect_ss5_cross_region_transfer(view(unit_for("x.tf", text)), CFG) == []


def test_ss5_sample_fixture_invisible_to_ast_engine():
    unit = load_unit("samples/ss5.tf")
    assert detect_ss5_cross_region_transfer(view(unit), CFG) == []


def test_ss5_no_reference_means_no_finding():
    text = SS5_PAIR.replace("  peer = google_compute_instance.a.id\n", "")
    assert detect_ss5_cross_region_transfer(view(unit_for("x.tf", text)), CFG) == []


def test_ss5_reference_inside_template_counts():
    text = SS5_PAIR.replace(
        "google_compute_instance.a.id", ""
    ).replace("peer = ", 'peer = "${google_compute_instance.a.id}"')
    findings = detect_ss5_cross_region_transfer(view(unit_for("x.tf", text)), CFG)
    assert len(findings) == 1


def test_region_normalization():
    assert normalize_region("zone", "us-west1-a") == "us-west1"
    assert normalize_region("availability_zone", "us-west-2a") == "us-west-2"
    assert normalize_region("location", "East US") == "eastus"
    assert normalize_region("region", "europe-west1") == "europe-west1"


# Frozen copy of the former pair loop: the reference the indexed SS5 check
# must repeat finding for finding.
def reference_ss5_pair_loop(view, cfg):
    resources = view.resources
    regions = {id(b): ast_engine.region_class(b, cfg) for b in resources}
    refs = {id(b): ast_engine._block_references(b) for b in resources}
    addresses = {
        id(b): (ast_engine.resource_type(b), ast_engine.resource_name(b))
        for b in resources
    }

    findings = []
    for i, a in enumerate(resources):
        for b in resources[i + 1 :]:
            ra, rb = regions[id(a)], regions[id(b)]
            if ra is None or rb is None or ra == rb:
                continue
            link = reference_cross_reference(a, b, refs, addresses)
            if link is None:
                link = reference_cross_reference(b, a, refs, addresses)
            if link is None:
                continue
            addr_a = ".".join(addresses[id(a)])
            addr_b = ".".join(addresses[id(b)])
            findings.append(
                SmellFinding(
                    SmellId.SS5,
                    view.file.path,
                    link.span,
                    f"{ra} != {rb}",
                    "ast",
                    f"{addr_a} ({ra}) and {addr_b} ({rb}) reference each other "
                    "across regions",
                )
            )
    return findings


def reference_cross_reference(src, dst, refs, addresses):
    dst_type, dst_name = addresses[id(dst)]
    for attr, ref in refs[id(src)]:
        segments = ref.segments
        if segments[:1] == ("data",):
            segments = segments[1:]
        if len(segments) >= 2 and segments[0] == dst_type and segments[1] == dst_name:
            return attr
    return None


# Few types and names, so addresses repeat and references often hit.
SS5_TYPES = ("aws_instance", "google_compute_instance")
SS5_NAMES = ("a", "b", "c")
# None is a resource without any region attribute; the two us-west1 zones
# and the two East US spellings normalize to one region each.
SS5_PLACEMENTS = (
    None,
    'region = "us-east-1"',
    'availability_zone = "us-east-1a"',
    'zone = "us-west1-a"',
    'zone = "us-west1-b"',
    'location = "East US"',
    'location = "eastus"',
    "region = var.region",
)
# A plain reference, and references nested in a list, a map, a template and
# nested blocks.
SS5_SHAPES = (
    "ref{n} = {ref}",
    'ref{n} = ["x", [{ref}]]',
    "ref{n} = {{ k = {{ inner = {ref} }} }}",
    'ref{n} = "pre-${{{ref}}}-post"',
    "nested {{\n    deeper {{\n      ref{n} = {ref}\n    }}\n  }}",
)
# Resource address, "data." address, and a "data." path too short to match.
SS5_PREFIXES = ("", "data.")


def ss5_reference(target) -> str:
    rtype, name, prefix, short = target
    if short:
        return f"data.{rtype}"
    return f"{prefix}{rtype}.{name}.id"


def ss5_text(specs) -> str:
    """Render resource specs (type, name, placement, references) as HCL."""
    blocks = []
    for rtype, name, placement, refs in specs:
        lines = [f'resource "{rtype}" "{name}" {{']
        if placement is not None:
            lines.append(f"  {placement}")
        for n, (shape, target) in enumerate(refs):
            lines.append("  " + shape.format(n=n, ref=ss5_reference(target)))
        lines.append("}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


ss5_targets = st.tuples(
    st.sampled_from(SS5_TYPES),
    st.sampled_from(SS5_NAMES),
    st.sampled_from(SS5_PREFIXES),
    st.booleans(),
)
ss5_specs = st.lists(
    st.tuples(
        st.sampled_from(SS5_TYPES),
        st.sampled_from(SS5_NAMES),
        st.sampled_from(SS5_PLACEMENTS),
        st.lists(
            st.tuples(st.sampled_from(SS5_SHAPES), ss5_targets), max_size=3
        ),
    ),
    max_size=30,
)

A, B = ("aws_instance", "a"), ("aws_instance", "b")
SS5_MUTUAL = [
    (*A, 'region = "us-east-1"', [(SS5_SHAPES[1], (*B, "", False))]),
    (*B, 'zone = "us-west1-a"', [(SS5_SHAPES[0], (*A, "data.", False))]),
]
# a refers to itself and so to its duplicate address in another region.
SS5_SELF_AND_DUPLICATE = [
    (*A, 'zone = "us-west1-a"', [(SS5_SHAPES[4], (*A, "", False))]),
    (*B, None, [(SS5_SHAPES[0], (*A, "", False))]),
    (*A, 'zone = "us-west1-b"', [(SS5_SHAPES[3], (*B, "", False))]),
    (*A, 'region = "us-east-1"', []),
]


@given(ss5_specs)
@example(SS5_MUTUAL)
@example(SS5_MUTUAL[::-1])
@example(SS5_SELF_AND_DUPLICATE)
@settings(max_examples=200, deadline=None)
def test_ss5_index_matches_pair_loop(specs):
    file_view = view(unit_for("x.tf", ss5_text(specs)))
    got = detect_ss5_cross_region_transfer(file_view, CFG)
    assert got == reference_ss5_pair_loop(file_view, CFG)


def test_ss5_examples_reach_every_case():
    mutual = detect_ss5_cross_region_transfer(
        view(unit_for("x.tf", ss5_text(SS5_MUTUAL))), CFG
    )
    # Reported once, at the earlier resource's attribute.
    assert [(f.span.start_line, f.evidence) for f in mutual] == [
        (3, "us-east-1 != us-west1")
    ]
    duplicates = detect_ss5_cross_region_transfer(
        view(unit_for("x.tf", ss5_text(SS5_SELF_AND_DUPLICATE))), CFG
    )
    # The first a pairs with the last one only: the middle a shares its
    # region, and b has none.
    assert [f.evidence for f in duplicates] == ["us-west1 != us-east-1"]


def count_python_calls(fn, *args) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def ss5_ring(n: int) -> str:
    """n zoned instances over three regions, each referring to the next."""
    zones = ("us-east-1a", "us-west-2b", "eu-west-1c")
    return "".join(
        f'resource "aws_instance" "i{k}" {{\n'
        f'  availability_zone = "{zones[k % 3]}"\n'
        f"  peer = aws_instance.i{(k + 1) % n}.id\n"
        "}\n"
        for k in range(n)
    )


def test_ss5_work_is_linear_in_resources():
    calls = {}
    for n in (200, 400):
        file_view = view(unit_for("x.tf", ss5_ring(n)))
        calls[n] = count_python_calls(detect_ss5_cross_region_transfer, file_view, CFG)
    assert calls[400] / calls[200] <= 2.2, calls


# -- SS6 ---------------------------------------------------------------


def test_ss6_remote_backend_directory_is_clean():
    assert detect_ss6_local_state([view(load_unit("samples/ss6.tf"))], CFG) == []


def test_ss6_terraform_without_backend_fires():
    unit = load_unit("mutants/ss6_no_backend/main.tf")
    findings = detect_ss6_local_state([view(unit)], CFG)
    assert smell_names(findings) == ["SS6"]
    assert findings[0].evidence == "unset"


def test_ss6_explicit_local_backend_fires():
    unit = load_unit("mutants/ss6_local_backend/main.tf")
    findings = detect_ss6_local_state([view(unit)], CFG)
    assert len(findings) == 1 and findings[0].evidence == "local"


def test_ss6_no_terraform_block_flags_first_file_only():
    files = [
        view(unit_for("dir/b.tf", 'resource "aws_sns_topic" "t" {\n  name = "t"\n}\n')),
        view(unit_for("dir/a.tf", 'resource "aws_sqs_queue" "q" {\n  name = "q"\n}\n')),
    ]
    findings = detect_ss6_local_state(files, CFG)
    assert len(findings) == 1 and findings[0].path == "dir/a.tf"


def test_ss6_one_remote_backend_covers_whole_directory():
    files = [
        view(load_unit("samples/ss6.tf")),
        view(load_unit("mutants/ss6_no_backend/main.tf")),
    ]
    assert detect_ss6_local_state(files, CFG) == []


# -- SS7 ---------------------------------------------------------------


def test_ss7_twelve_resources_fire_with_count_evidence():
    unit = load_unit("mutants/ss7_extended/main.tf")
    findings = detect_ss7_monolithic(view(unit), CFG)
    assert len(findings) == 1 and findings[0].evidence == "12"


def test_ss7_single_resource_is_clean():
    text = 'resource "aws_sns_topic" "t" {\n  name = "t"\n}\n'
    assert detect_ss7_monolithic(view(unit_for("x.tf", text)), CFG) == []


def test_ss7_monotone_in_appended_resources():
    base = (FIXTURES / "mutants" / "ss7_extended" / "main.tf").read_text()
    grown = base + '\nresource "aws_sns_topic" "extra" {\n  name = "x"\n}\n'
    before = detect_ss7_monolithic(view(unit_for("x.tf", base)), CFG)
    after = detect_ss7_monolithic(view(unit_for("x.tf", grown)), CFG)
    assert int(after[0].evidence) == int(before[0].evidence) + 1


def test_ss7_threshold_config_sensitivity():
    text = "\n".join(
        f'resource "aws_sns_topic" "t{i}" {{\n  name = "t{i}"\n}}\n' for i in range(6)
    )
    unit = unit_for("x.tf", text)
    assert detect_ss7_monolithic(view(unit), DetectorConfig()) == []
    low = DetectorConfig(ss7_max_resources_per_file=5)
    assert len(detect_ss7_monolithic(view(unit), low)) == 1
    # raising the threshold never adds findings
    high = DetectorConfig(ss7_max_resources_per_file=50)
    assert detect_ss7_monolithic(view(unit), high) == []


# -- detect_all --------------------------------------------------------


def test_detect_all_empty():
    assert detect_all({}, CFG, "ast") == []


def test_detect_all_on_extended_samples_directory():
    units = load_dir("samples_extended")
    findings = detect_all({"samples_extended": units}, CFG, "ast")
    by_smell = {(Path(f.path).name, f.smell.name) for f in findings}
    assert by_smell == {
        ("ss1.tf", "SS1"),
        ("ss2.tf", "SS2"),
        ("ss4.tf", "SS4"),
        ("ss7.tf", "SS7"),
    }


def test_detect_all_is_sorted_and_deterministic():
    units = load_dir("samples_extended") + load_dir("smelly")
    grouped = {"samples_extended": units[:-1], "smelly": units[-1:]}
    first = detect_all(grouped, CFG, "ast")
    second = detect_all(grouped, CFG, "ast")
    assert first == second
    keys = [f.sort_key() for f in first]
    assert keys == sorted(keys)


def test_detect_all_rejects_unknown_engine():
    with pytest.raises(ValueError):
        detect_all({}, CFG, "regexes")


@pytest.mark.parametrize(
    "engine, module, name",
    [("ast", ast_engine, "resource_blocks"), ("pattern", pattern_engine, "mask_comments")],
    ids=["ast", "pattern"],
)
def test_detect_all_prepares_each_file_once(monkeypatch, engine, module, name):
    by_dir: dict[str, list] = {}
    for p in fixture_corpus_files():
        rel = p.relative_to(FIXTURES).as_posix()
        by_dir.setdefault(str(Path(rel).parent), []).append(unit_for(rel, p.read_text()))
    calls = []
    original = getattr(module, name)

    def counting(arg):
        calls.append(arg)
        return original(arg)

    monkeypatch.setattr(module, name, counting)
    assert detect_all(by_dir, CFG, engine)
    assert len(calls) == sum(len(units) for units in by_dir.values())


def test_locality_adding_unrelated_file_keeps_other_findings():
    smelly = load_unit("smelly/main.tf")
    alone = detect_all({"smelly": [smelly]}, CFG, "ast")
    unrelated = unit_for(
        "smelly/other.tf", 'resource "aws_sns_topic" "t" {\n  name = "t"\n}\n'
    )
    together = detect_all({"smelly": [smelly, unrelated]}, CFG, "ast")
    per_file = [f for f in together if f.smell is not SmellId.SS6]
    assert per_file == [f for f in alone if f.smell is not SmellId.SS6]


def test_span_validity_on_fixture_findings():
    sources = {}
    units = []
    for rel in ["samples_extended", "smelly", "mutants/ss6_local_backend"]:
        for p in sorted((FIXTURES / rel).glob("*.tf")):
            path = f"{rel}/{p.name}"
            text = p.read_text()
            sources[path] = text
            units.append(unit_for(path, text))
    findings = detect_all({"all": units}, CFG, "ast")
    assert findings
    sentinel = {"unset"}
    for f in findings:
        covered = span_text(sources[f.path], f.span)
        if f.evidence in sentinel or f.smell in (SmellId.SS5, SmellId.SS7):
            # sentinel evidence (counts, region pairs, "unset") has no
            # verbatim source form; the span must still be in range
            assert covered or f.span.start_line == 1
        else:
            squeezed = covered.replace(" ", "")
            assert f.evidence.replace(" ", "") in squeezed, (f.evidence, covered)


# -- DetectorConfig ----------------------------------------------------


def test_config_defaults_from_empty_dict():
    assert config_from_dict({}) == DetectorConfig()


def test_config_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="ss9_foo"):
        config_from_dict({"ss9_foo": 1})


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(ss7_max_resources_per_file=0)
    with pytest.raises(ConfigError):
        DetectorConfig(ss2_compute_types=frozenset())
    with pytest.raises(ConfigError):
        config_from_dict({"ss2_fixed_count_min": "two"})


def test_config_digest_stable_and_sensitive():
    assert DetectorConfig().digest() == DetectorConfig().digest()
    changed = DetectorConfig(ss7_max_resources_per_file=11)
    assert changed.digest() != DetectorConfig().digest()
