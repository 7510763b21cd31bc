"""The package's public names are exactly what the README documents."""

import re
from pathlib import Path

import matchcert

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_match_readme_library_section():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in matchcert.__all__
               if not re.search(rf"\b{name}\b", section)]
    assert not missing, f"in __all__ but not in the README's Library section: {missing}"
    block = re.search(r"from matchcert import \(([^)]*)\)", section).group(1)
    imported = {name.strip() for name in block.split(",")}
    assert imported <= set(matchcert.__all__)
