"""The README's examples stay true: its CLI lines parse, its library
example runs and agrees with the reference miner, and the variant list
it shows is the miner's."""

import re
import shlex
from pathlib import Path

import pytest

import husrm
from husrm import cli
from husrm.miner import VARIANTS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def husrm_lines() -> list[list[str]]:
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["husrm"]:
                commands.append(words[1:])
    return commands


def test_readme_shows_every_command():
    assert {argv[0] for argv in husrm_lines()} == {"mine", "oracle", "verify", "gen", "stats", "bench"}


@pytest.mark.parametrize("argv", husrm_lines(), ids=" ".join)
def test_readme_cli_lines_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_library_example_matches_the_reference():
    (block,) = re.findall(r"^## Library use\n.*?^```python\n(.*?)^```", README, flags=re.M | re.S)
    namespace: dict = {}
    exec(block, namespace)
    rules, reference = namespace["rules"], namespace["reference"]
    assert rules
    assert sorted(r.key() for r in rules) == sorted(r.key() for r in reference)


def test_readme_bench_variants_are_the_miners():
    (argv,) = [argv for argv in husrm_lines() if argv[0] == "bench"]
    args = cli.build_parser().parse_args(argv)
    assert args.variants.split(",") == list(VARIANTS)


def test_readme_lists_exactly_the_root_exports():
    (listing,) = re.findall(
        r"^The package root exports .*?\n\n(.*?)\n\n", README, flags=re.M | re.S
    )
    assert set(re.findall(r"`(\w+)`", listing)) == set(husrm.__all__)
