"""Expected divergences between the AST and pattern engines.

Each case is one small directory on which the engines disagree by design;
the test pins what each engine reports there, as (path, smell, evidence).
Every directory declares a remote backend, so SS6 stays quiet in both.
"""

from __future__ import annotations

import pytest

from tfsustain.detectors import DetectorConfig
from tfsustain.scanner import scan

_BACKEND = 'terraform {\n  backend "s3" {}\n}\n'

_CASES = [
    pytest.param(
        # The AST engine reads sizes from resources only; the pattern engine
        # matches the attribute wherever it is written.
        'variable "sizes" {\n  default = {\n    instance_type = "m5.24xlarge"\n  }\n}\n',
        {},
        set(),
        {("SS1", "m5.24xlarge")},
        id="size-in-variable-default",
    ),
    pytest.param(
        # The AST engine checks count on compute resources only; the pattern
        # engine takes any count in a file that declares compute.
        'resource "aws_instance" "web" {\n  instance_type = "t3.micro"\n}\n\n'
        'resource "aws_s3_bucket" "logs" {\n  count = 5\n}\n',
        {},
        set(),
        {("SS2", "count=5")},
        id="count-on-non-compute-resource",
    ),
    pytest.param(
        # The pattern engine lets a lifecycle block anywhere in the file cover
        # every resource; the AST engine looks inside each resource.
        'resource "aws_ebs_volume" "data" {\n  size = 100\n}\n\n'
        'resource "aws_instance" "web" {\n  instance_type = "t3.micro"\n'
        "  lifecycle {\n    create_before_destroy = true\n  }\n}\n",
        {},
        {("SS3", "aws_ebs_volume")},
        set(),
        id="lifecycle-in-sibling-resource",
    ),
    pytest.param(
        # With comment scanning on, the pattern engine counts a commented-out
        # region; the AST engine never sees comments.
        'provider "aws" {\n  region = "us-east-1"\n  # region = "eu-west-1"\n}\n',
        {"ss5_pattern_scan_comments": True},
        set(),
        {("SS5", "us-east-1 != eu-west-1")},
        id="region-in-comment",
    ),
    pytest.param(
        # "/*/" only opens a block comment in HCL; the pattern engine's
        # masking closes it at its own "*/" and sees the commented-out count.
        'resource "aws_instance" "web" {\n  instance_type = "t3.micro"\n'
        "  /*/ old\n  count = 9\n  */\n}\n",
        {},
        set(),
        {("SS2", "count=9")},
        id="star-slash-comment",
    ),
]


@pytest.mark.parametrize("text, options, ast_expected, pattern_expected", _CASES)
def test_engines_diverge_as_recorded(tmp_path, text, options, ast_expected, pattern_expected):
    (tmp_path / "main.tf").write_text(text)
    (tmp_path / "backend.tf").write_text(_BACKEND)
    cfg = DetectorConfig(**options)
    for engine, expected in (("ast", ast_expected), ("pattern", pattern_expected)):
        report = scan(tmp_path, cfg, engine)
        assert report.parse_failures == 0
        got = {(f.path, f.smell.name, f.evidence) for f in report.findings}
        assert got == {("main.tf", smell, evidence) for smell, evidence in expected}, engine
