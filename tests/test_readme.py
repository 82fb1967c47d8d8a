"""The README's library table names only what its modules define."""
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_rows():
    # (module, names) per row of the table under "## Library layout": the
    # backticked names of the contents cell outside parentheses, each cut
    # at its first non-identifier character, so `corpus(name)` is corpus
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`sposet."):
            continue
        depth, names = 0, []
        for token in re.findall(r"`[^`]*`|[()]", cells[1]):
            if token in "()":
                depth += 1 if token == "(" else -1
            elif depth == 0:
                names.append(re.match(r"\w*", token[1:]).group())
        rows.append((cells[0].strip("`"), names))
    return rows


def test_table_lists_every_module():
    assert [module for module, _ in library_rows()] == [
        "sposet.poset", "sposet.homology", "sposet.facevec", "sposet.classify",
        "sposet.charfn", "sposet.spectral", "sposet.corpus", "sposet.io",
    ]


def test_table_names_are_defined():
    for module, names in library_rows():
        mod = importlib.import_module(module)
        for name in names:
            assert name and hasattr(mod, name), (module, name)
