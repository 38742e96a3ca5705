"""tfsustain: sustainability smell analysis for Terraform configurations."""

import json
from pathlib import Path

__version__ = "0.1.0"


def read_json(path: str | Path) -> object:
    """The JSON value in the UTF-8 file at ``path``.

    A file that is not UTF-8, not JSON, JSON nested deeper than the
    interpreter's recursion limit, or a string holding a lone surrogate (an
    unpaired ``\\ud800``-``\\udfff`` escape, which no UTF-8 output can
    carry) is a ValueError whose message starts with the path.
    """
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
        text = json.dumps(value, ensure_ascii=False)
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: {err}") from err
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as err:
        surrogate = f"\\u{ord(err.object[err.start]):04x}"
        raise ValueError(f"{path}: a string holds the lone surrogate {surrogate}") from None
    return value
