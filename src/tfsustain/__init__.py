"""tfsustain: sustainability smell analysis for Terraform configurations."""

import json
from pathlib import Path

__version__ = "0.1.0"


def read_json(path: str | Path) -> object:
    """The JSON value in the UTF-8 file at ``path``.

    A file that is not UTF-8, not JSON, or JSON nested deeper than the
    interpreter's recursion limit is a ValueError whose message starts with
    the path.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: {err}") from err
