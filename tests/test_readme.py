"""The README's library table names only what its modules define, its
flags are options of the CLI, and its examples print what it says they
print."""
import importlib
import re
import shlex
from pathlib import Path

from sposet.cli import cli, main

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


def fenced(lang):
    # the bodies of the README's ```lang blocks, in order
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)


def test_python_examples_print_their_comments(capsys):
    blocks = fenced("python")
    assert blocks
    for block in blocks:
        # every print line ends in a comment giving what it prints
        prints = [line for line in block.splitlines() if line.startswith("print(")]
        assert prints and all("  # " in line for line in prints)
        exec(block, {})
        printed = capsys.readouterr().out.splitlines()
        assert printed == [line.rsplit("  # ", 1)[1] for line in prints]


def test_text_examples_are_the_cli_output(capsys):
    blocks = [b for b in fenced("text") if b.startswith("$ sposet ")]
    assert blocks
    for block in blocks:
        command, *lines = block.splitlines()
        assert main(shlex.split(command)[2:]) == 0
        assert capsys.readouterr().out.splitlines() == lines


def cli_options(command):
    # every option and secondary option of a command and its subcommands
    names = {o for p in command.params for o in (*p.opts, *p.secondary_opts)}
    for sub in getattr(command, "commands", {}).values():
        names |= cli_options(sub)
    return names


def test_flags_are_cli_options():
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", README.read_text(encoding="utf-8")))
    unknown = flags - cli_options(cli)
    assert flags and not unknown, sorted(unknown)
