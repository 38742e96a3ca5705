from __future__ import annotations

import gc
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfsustain import hcl
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
from tfsustain.detectors.config import REGION_ATTR_ORDER
from tfsustain.detectors.findings import SmellFinding

from conftest import FIXTURES, count_python_calls, fixture_corpus_files, span_text
from synth import load_perfbench_corpus

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
    return prepare(unit, cfg)


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
    assert detect_ss1_overprovisioning(view(unit_for("x.tf", "")), CFG) == []


def test_ss1_suppressed_by_scale_set_in_same_file():
    text = (FIXTURES / "samples" / "ss1.tf").read_text() + (
        '\nresource "azurerm_virtual_machine_scale_set" "scaler" {\n'
        '  name = "scaler"\n'
        "}\n"
    )
    unit = unit_for("x.tf", text)
    assert detect_ss1_overprovisioning(view(unit), CFG) == []
    assert pattern_engine.pattern_ss1(pattern_engine.prepare(unit, CFG), CFG) == []


def test_ss1_ignores_a_size_that_is_not_a_string_literal():
    text = (FIXTURES / "samples" / "ss1.tf").read_text()
    assert '"Standard_D16s_v3"' in text
    unit = unit_for("x.tf", text.replace('"Standard_D16s_v3"', "var.size"))
    assert detect_ss1_overprovisioning(view(unit), CFG) == []
    assert pattern_engine.pattern_ss1(pattern_engine.prepare(unit, CFG), CFG) == []


def test_ss1_gcp_machine_type_self_link_matches_tail():
    text = (
        'resource "google_compute_instance" "big" {\n'
        '  machine_type = "zones/us-central1-a/machineTypes/n1-standard-16"\n'
        "}\n"
    )
    findings = detect_ss1_overprovisioning(view(unit_for("x.tf", text)), CFG)
    assert len(findings) == 1


def test_ss1_first_matching_prefix_picks_the_catalog():
    cfg = config_from_dict({"ss1_large_sizes": {"aws_": ["big"], "aws_x": ["huge"]}})
    text = "".join(
        f'resource "{rtype}" "r{i}" {{\n  instance_type = "{size}"\n}}\n'
        for i, (rtype, size) in enumerate(
            [("aws_xl", "big"), ("aws_xl", "huge"), ("gcp_vm", "big"), ("aws", "big")]
        )
    )
    findings = detect_ss1_overprovisioning(view(unit_for("x.tf", text), cfg), cfg)
    assert [(f.span.start_line, f.evidence) for f in findings] == [(2, "big")]


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
    unit = unit_for("x.tf", text)
    assert detect_ss2_no_autoscaling(view(unit), CFG) == []
    assert pattern_engine.pattern_ss2(pattern_engine.prepare(unit, CFG), CFG) == []


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


def test_ss3_lifecycle_nested_in_a_dynamic_block_counts():
    text = (
        'resource "aws_ebs_volume" "v" {\n'
        '  dynamic "x" {\n'
        "    content {\n"
        "      lifecycle {\n"
        "        prevent_destroy = true\n"
        "      }\n"
        "    }\n"
        "  }\n"
        "}\n"
    )
    assert detect_ss3_no_lifecycle(view(unit_for("x.tf", text)), CFG) == []
    without = text.replace("lifecycle", "other")
    assert smell_names(detect_ss3_no_lifecycle(view(unit_for("x.tf", without)), CFG)) == ["SS3"]


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


# -- an attribute assigned twice ---------------------------------------

# One resource assigns the attribute a detector reads twice, on lines 2 and 3.
# Each case is (detector, template, clean value, smelly value, the finding as
# (line, evidence) when the smelly value comes last). SS5 reports at the
# referring attribute on line 7, with the region of a's last zone.
LAST_ASSIGNMENT_CASES = {
    "ss1": (
        detect_ss1_overprovisioning,
        'resource "aws_instance" "i" {\n  instance_type = "{}"\n  instance_type = "{}"\n}\n',
        "t3.micro",
        "m5.4xlarge",
        (3, "m5.4xlarge"),
    ),
    "ss2": (
        detect_ss2_no_autoscaling,
        'resource "aws_instance" "i" {\n  count = {}\n  count = {}\n}\n',
        "1",
        "4",
        (3, "count=4"),
    ),
    "ss4": (
        detect_ss4_excessive_logging,
        'resource "aws_cloudwatch_log_group" "g" {\n'
        "  retention_in_days = {}\n  retention_in_days = {}\n}\n",
        "30",
        "3650",
        (3, "3650"),
    ),
    "ss5": (
        detect_ss5_cross_region_transfer,
        'resource "aws_instance" "a" {\n'
        '  availability_zone = "{}"\n  availability_zone = "{}"\n}\n'
        'resource "aws_instance" "b" {\n'
        '  availability_zone = "us-east-1b"\n  peer = aws_instance.a.id\n}\n',
        "us-east-1a",
        "eu-west-1a",
        (7, "eu-west-1 != us-east-1"),
    ),
}


@pytest.mark.parametrize("case", LAST_ASSIGNMENT_CASES)
def test_the_last_of_two_assignments_decides(case):
    detector, template, clean, smelly, finding = LAST_ASSIGNMENT_CASES[case]

    def found(first, last):
        text = template.replace("{}", first, 1).replace("{}", last, 1)
        return [(f.span.start_line, f.evidence) for f in detector(view(unit_for("x.tf", text)), CFG)]

    assert found(clean, smelly) == [finding]
    assert found(smelly, clean) == []


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


def reference_region(block, cfg):
    """The normalized region of a parsed resource block, read off the tree."""
    attrs = hcl.attributes(block)
    for name in REGION_ATTR_ORDER:
        node = attrs.get(name)
        if name in cfg.ss5_region_attrs and node is not None and isinstance(node.value, hcl.StringLit):
            return normalize_region(name, node.value.value)
    return None


# Frozen copy of the former pair loop: the reference the indexed SS5 check
# must repeat finding for finding. It reads the tree that ``hcl.parse``
# returns, not a view, so it shares no summary with the detector.
def reference_ss5_pair_loop(unit, cfg):
    tree = hcl.parse(unit.text, unit.path)
    resources = [b for b in hcl.find_blocks(tree, "resource") if b.labels]
    regions = {id(b): reference_region(b, cfg) for b in resources}
    refs = {id(b): ast_engine._block_references(b) for b in resources}
    addresses = {id(b): (b.labels[0], b.labels[1] if len(b.labels) > 1 else "") for b in resources}

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
                    unit.path,
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
    unit = unit_for("x.tf", ss5_text(specs))
    got = detect_ss5_cross_region_transfer(view(unit), CFG)
    assert got == reference_ss5_pair_loop(unit, CFG)


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


def test_ss5_asks_no_region_of_a_lone_resource(monkeypatch):
    def region_class(resource, cfg):
        raise AssertionError("one resource forms no pair")

    monkeypatch.setattr(ast_engine, "region_class", region_class)
    lone = view(unit_for("x.tf", ss5_text(SS5_MUTUAL[:1])))
    assert detect_ss5_cross_region_transfer(lone, CFG) == []


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


def test_a_prepared_view_holds_a_small_multiple_of_its_text():
    # Memory, not time: no clock in Tier-1. The view keeps per-resource
    # summaries, not the tree, which is garbage once prepare returns; a view
    # that kept the tree and every resource block held 11.2 times the text.
    view(unit_for("x.tf", ss5_ring(4)))  # warms the regex and enum caches
    unit = unit_for("x.tf", ss5_ring(3000))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        file_view = view(unit)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(file_view.resources) == 3000
    assert held <= 7 * len(unit.text), held / len(unit.text)


def test_prepare_peak_memory_is_a_small_multiple_of_the_text():
    # Each resource block is reduced as soon as it is parsed, so the peak is
    # the token columns and the summaries, not a tree: building the whole tree
    # first peaked at 11.3 times the text of this 3,000-resource monolith.
    text, _ = load_perfbench_corpus().monolith_text(3000, 1)
    unit = unit_for("main.tf", text)
    view(unit_for("x.tf", ss5_ring(4)))  # warms the regex and enum caches
    tracemalloc.start()
    try:
        file_view = view(unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(file_view.resources) == 3000
    assert peak <= 7 * len(text), peak / len(text)


def reachable(root) -> list:
    """Every object reachable from ``root``, not through classes or modules."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(obj, (type, types.ModuleType)):
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_a_view_reaches_no_tree_and_no_resource_block():
    text = (
        ss5_ring(3)
        + 'resource "aws_ebs_volume" "v" {\n  lifecycle {\n    prevent_destroy = true\n  }\n}\n'
        + 'resource "aws_cloudwatch_log_group" "l" {\n  retention_in_days = 400\n}\n'
        + 'terraform {\n  backend "local" {\n    path = "x"\n  }\n}\n'
    )
    objects = reachable(view(unit_for("x.tf", text)))
    assert sum(isinstance(o, ast_engine.Resource) for o in objects) == 5
    assert any(isinstance(o, hcl.Attribute) and o.name == "peer" for o in objects)
    assert not any(isinstance(o, hcl.ConfigFile) for o in objects)
    blocks = [o for o in objects if isinstance(o, hcl.Block)]
    assert sorted(b.block_type for b in blocks) == ["backend", "terraform"]


def test_the_nodes_a_view_keeps_share_the_units_source_text():
    unit = unit_for("x.tf", 'resource "aws_instance" "a" {\n  instance_type = "m5.24xlarge"\n}\n')
    assert prepare(unit, CFG).resources[0].attributes["instance_type"].source is unit


# Files whose detection work could grow faster than their size: one text per n.
LINEAR_FAMILIES = {
    "ss5_ring": ss5_ring,
    "distinct_attributes": lambda n: 'resource "aws_instance" "i" {\n'
    + "".join(f"  a{k} = {k}\n" for k in range(n))
    + "}\n",
    "one_attribute_assigned_n_times": lambda n: 'resource "aws_instance" "i" {\n'
    + '  instance_type = "m5.4xlarge"\n' * n
    + "}\n",
    "dynamic_blocks_without_lifecycle": lambda n: 'resource "aws_ebs_volume" "v" {\n'
    + '  dynamic "x" {\n    content {\n      size = 1\n    }\n  }\n' * n
    + "}\n",
    "terraform_blocks_with_local_backends": lambda n: (
        'terraform {\n  backend "local" {}\n}\n' * n
    ),
    # The lexer's and the parser's worst shapes: unclosed strings, heredocs,
    # block comments and brackets, `/*/` soups and deep nesting.
    "unclosed_strings": lambda n: 'x = "open\n' * n,
    "unclosed_heredoc": lambda n: "x = <<EOT\n" + "line\n" * n,
    "unclosed_block_comment": lambda n: "/*\n" + "x = 1\n" * n,
    "star_slash_soup": lambda n: "/*/ x = 1\n" * n,
    # An unclosed list swallows the rest of the file as Opaque; this pins its
    # cost, not its output.
    "unclosed_list": lambda n: "x = [1,\n" + "y = 2\n" * n,
    "unclosed_blocks": lambda n: 'resource "a" "b" {\n' * n,
    "deep_list_opener": lambda n: "x = " + "[" * n + "\n",
    "one_label_resources": lambda n: 'resource "aws_instance" {\n}\n' * n,
    # Quoted templates: many interpolations and directives in one string,
    # "${"${… chains and $${ runs. The lexer scans each template once and the
    # parser reads its interpolations from the lexer.
    "interpolations_in_one_string": lambda n: 'x = "' + "${a.b}-%{ c }" * n + '"\n',
    "nested_template_chain": lambda n: 'x = "' + '${"' * n + "a" + '"}' * n + '"\n',
    "escaped_marker_runs": lambda n: 'x = "' + "$${" * n + '"\n',
}


@pytest.mark.parametrize("family", LINEAR_FAMILIES)
@pytest.mark.parametrize("engine", ["ast", "pattern"])
def test_detection_work_is_linear(engine, family):
    # Python-level calls, not time: no clock in Tier-1. Regexes run in C, so
    # call counts cannot see a regex backtracking. The first call warms up
    # the engine's caches, which would otherwise count in the first n.
    detect_all([unit_for("d/x.tf", LINEAR_FAMILIES[family](2))], CFG, engine, set())
    calls = {}
    for n in (200, 400):
        units = [unit_for("d/x.tf", LINEAR_FAMILIES[family](n))]
        calls[n] = count_python_calls(detect_all, units, CFG, engine, set())
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


# Each engine's SS6 messages, as (no terraform block in the directory, explicit
# "local" backend, terraform block without a backend); they are report bytes.
SS6_MESSAGES = {
    "ast": (
        "no remote state backend is configured in this directory",
        'state is kept in an explicit "local" backend',
        "terraform block configures no remote state backend",
    ),
    "pattern": (
        "no remote state backend token found in this directory",
        'state is kept in an explicit "local" backend',
        "terraform block with no remote state backend token",
    ),
}
NO_TERRAFORM, LOCAL, NO_BACKEND = range(3)

# One directory's files, and the findings as (path, start line, evidence,
# message) that both engines must give for it.
SS6_CASES = {
    "remote_backend_is_clean": (["samples/ss6.tf"], []),
    "terraform_without_backend": (
        ["mutants/ss6_no_backend/main.tf"],
        [("mutants/ss6_no_backend/main.tf", 1, "unset", NO_BACKEND)],
    ),
    "explicit_local_backend": (
        ["mutants/ss6_local_backend/main.tf"],
        [("mutants/ss6_local_backend/main.tf", 2, "local", LOCAL)],
    ),
    "no_terraform_block_flags_first_file_only": (
        [
            ("dir/b.tf", 'resource "aws_sns_topic" "t" {\n  name = "t"\n}\n'),
            ("dir/a.tf", 'resource "aws_sqs_queue" "q" {\n  name = "q"\n}\n'),
        ],
        [("dir/a.tf", 1, "unset", NO_TERRAFORM)],
    ),
    "one_remote_backend_covers_directory": (
        ["samples/ss6.tf", "mutants/ss6_no_backend/main.tf"],
        [],
    ),
    "unlabelled_backend_is_neither_remote_nor_local": (
        [("dir/main.tf", 'resource "aws_sqs_queue" "q" {}\nterraform {\n  backend {}\n}\n')],
        [("dir/main.tf", 2, "unset", NO_BACKEND)],
    ),
    "remote_backend_in_a_later_file_covers_earlier_ones": (
        [
            ("dir/a.tf", "terraform {}\n"),
            ("dir/b.tf", 'terraform {\n  backend "s3" {}\n}\n'),
        ],
        [],
    ),
}


def ss6_findings(engine, units):
    """One engine's SS6 findings over the units of one directory."""
    if engine == "ast":
        return detect_ss6_local_state([view(u) for u in units], CFG)
    views = [pattern_engine.prepare(u, CFG) for u in units]
    return pattern_engine.pattern_ss6(views, CFG)


@pytest.mark.parametrize("case", SS6_CASES)
@pytest.mark.parametrize("engine", SS6_MESSAGES)
def test_ss6_rule_is_the_same_under_both_engines(engine, case):
    files, expected = SS6_CASES[case]
    units = [load_unit(f) if isinstance(f, str) else unit_for(*f) for f in files]
    findings = ss6_findings(engine, units)
    assert all(f.smell is SmellId.SS6 and f.engine == engine for f in findings)
    messages = SS6_MESSAGES[engine]
    assert [(f.path, f.span.start_line, f.evidence, f.message) for f in findings] == [
        (path, line, evidence, messages[m]) for path, line, evidence, m in expected
    ]


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
    assert detect_all([], CFG, "ast", set()) == []


def test_detect_all_on_extended_samples_directory():
    units = load_dir("samples_extended")
    findings = detect_all(units, CFG, "ast", set())
    by_smell = {(Path(f.path).name, f.smell.name) for f in findings}
    assert by_smell == {
        ("ss1.tf", "SS1"),
        ("ss2.tf", "SS2"),
        ("ss4.tf", "SS4"),
        ("ss7.tf", "SS7"),
    }


def test_detect_all_is_deterministic():
    # Order within a directory is left to the engine; `scan` sorts findings.
    for rel in ("samples_extended", "smelly"):
        units = load_dir(rel)
        first = detect_all(units, CFG, "ast", set())
        assert first and first == detect_all(units, CFG, "ast", set())


@pytest.mark.parametrize(
    "engine, module, name, parses_per_file",
    [
        ("ast", ast_engine, "resource_blocks", 1),
        ("pattern", pattern_engine, "mask_comments", 0),
    ],
    ids=["ast", "pattern"],
)
def test_detect_all_prepares_each_file_once(monkeypatch, engine, module, name, parses_per_file):
    # Building the units must not parse either: the AST engine parses once
    # per file, through the module attribute, and the pattern engine never.
    parses = []
    original_parse = hcl.parse

    def counting_parse(text, path="<input>", keep=None):
        parses.append(text)
        return original_parse(text, path, keep)

    monkeypatch.setattr(hcl, "parse", counting_parse)
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
    assert [f for units in by_dir.values() for f in detect_all(units, CFG, engine, set())]
    files = sum(len(units) for units in by_dir.values())
    assert len(calls) == files
    assert len(parses) == parses_per_file * files


def test_locality_adding_unrelated_file_keeps_other_findings():
    smelly = load_unit("smelly/main.tf")
    alone = detect_all([smelly], CFG, "ast", set())
    unrelated = unit_for(
        "smelly/other.tf", 'resource "aws_sns_topic" "t" {\n  name = "t"\n}\n'
    )
    together = detect_all([smelly, unrelated], CFG, "ast", set())
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
    findings = detect_all(units, CFG, "ast", set())
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


@pytest.mark.parametrize(
    "evidence, engine, message",
    [("", "ast", "evidence must be non-empty"), ("x", "regex", "unknown engine 'regex'")],
)
def test_a_finding_needs_evidence_and_a_known_engine(evidence, engine, message):
    span = hcl.SourceSpan("x.tf", 1, 1, 1, 2)
    SmellFinding(SmellId.SS1, "x.tf", span, "x", "pattern", "m")
    with pytest.raises(ValueError, match=message):
        SmellFinding(SmellId.SS1, "x.tf", span, evidence, engine, "m")


# -- DetectorConfig ----------------------------------------------------


def test_config_defaults_from_empty_dict():
    assert config_from_dict({}) == DetectorConfig()


def test_config_unknown_key_rejected_with_name():
    with pytest.raises(ConfigError, match="ss9_foo"):
        config_from_dict({"ss9_foo": 1})


def test_config_accepts_boolean_keys():
    data = {"ss4_flag_missing_retention": False, "ss5_pattern_scan_comments": True}
    assert config_from_dict(data) == DetectorConfig(**data)


def test_config_validation():
    with pytest.raises(ConfigError):
        DetectorConfig(ss7_max_resources_per_file=0)
    with pytest.raises(ConfigError):
        DetectorConfig(ss2_compute_types=frozenset())
    with pytest.raises(ConfigError):
        config_from_dict({"ss2_fixed_count_min": "two"})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"ss2_fixed_count_min": True}, "ss2_fixed_count_min must be an integer"),
        ({"ss4_flag_missing_retention": 1}, "ss4_flag_missing_retention must be a boolean"),
        ({"ss5_region_attrs": "region"}, "ss5_region_attrs must be a list of strings"),
        ({"ss1_large_sizes": []}, "ss1_large_sizes must map provider prefixes to size lists"),
        ({"ss1_large_sizes": {"aws_": [1]}}, "ss1_large_sizes['aws_'] must be a list of strings"),
        ({"ss1_large_sizes": {"aws_": []}}, "ss1_large_sizes must list at least one size"),
        ({"ss2_fixed_count_min": 0}, "ss2_fixed_count_min must be >= 1"),
        ({"ss4_retention_max_days": 0}, "ss4_retention_max_days must be >= 1"),
        ({"ss7_max_resources_per_file": 0}, "ss7_max_resources_per_file must be >= 1"),
        # Two broken rules: the first field, in declaration order, is reported.
        (
            {"ss4_retention_max_days": 0, "ss3_lifecycle_required_types": []},
            "ss3_lifecycle_required_types must not be empty",
        ),
        ({"ss3_lifecycle_required_types": []}, "ss3_lifecycle_required_types must not be empty"),
        ({"ss5_region_attrs": []}, "ss5_region_attrs must not be empty"),
        (
            {"ss5_region_attrs": ["region", "datacenter", "dc"]},
            "ss5_region_attrs names unknown attribute(s): datacenter, dc",
        ),
        (["ss2_fixed_count_min"], "config must be a JSON object"),
    ],
)
def test_config_error_messages(data, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert str(err.value) == message


def test_config_json_form_and_digest_are_pinned():
    cfg = DetectorConfig()
    doc = cfg.to_json_dict()
    assert list(doc) == [
        "ss1_large_sizes",
        "ss2_fixed_count_min",
        "ss2_compute_types",
        "ss2_autoscaler_types",
        "ss3_lifecycle_required_types",
        "ss4_retention_max_days",
        "ss4_flag_missing_retention",
        "ss5_region_attrs",
        "ss5_pattern_scan_comments",
        "ss7_max_resources_per_file",
    ]
    assert doc["ss5_region_attrs"] == ["availability_zone", "location", "region", "zone"]
    assert doc["ss1_large_sizes"]["aws_"][:2] == ["c4.4xlarge", "c4.8xlarge"]
    assert cfg.digest() == "cc91565b61589881801e414e71adb6b3d582d82bded736618c01cd438e63f3b5"


def test_config_digest_stable_and_sensitive():
    assert DetectorConfig().digest() == DetectorConfig().digest()
    changed = DetectorConfig(ss7_max_resources_per_file=11)
    assert changed.digest() != DetectorConfig().digest()
