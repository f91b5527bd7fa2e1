"""The README's examples run as written: the Library block, and every
`toric-linsys ...` line of the Command line block through `cli.main`; its
list of exported names is the package's."""

import json
import re
import shlex
from pathlib import Path
from types import ModuleType

import toric_linsys
from toric_linsys.catalog import box_polytope
from toric_linsys.cli import main
from toric_linsys.lattice import polytope_to_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section_blocks(heading, lang):
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def test_readme_library_block():
    (block,) = _section_blocks("Library", "python")
    exec(compile(block, "README.md", "exec"), {})


def test_readme_lists_the_exported_names():
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for module, names in re.findall(r"^- `(\w+)`: (.*?)(?=^\S|\Z)", section,
                                    re.M | re.S):
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, name
            listed[name] = f"toric_linsys.{module}"
    exported = {name: value.__module__
                for name, value in vars(toric_linsys).items()
                if not name.startswith("_")
                and not isinstance(value, ModuleType)}
    assert listed == exported


def test_readme_command_lines(tmp_path, capsys):
    (block,) = _section_blocks("Command line", "sh")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "tasks": [{"polytope": polytope_to_json(box_polytope((2, 1))),
                   "multiplicities": [2]}],
        "cfg": {"trials": 2, "seed": 0}}))
    files = {name: str(tmp_path / name)
             for name in ("cert.json", "job.json", "records.jsonl")}
    lines = [line for line in block.splitlines()
             if line.startswith("toric-linsys ")]
    assert len(lines) == 12
    for line in lines:
        argv = [files.get(a, a)
                for a in shlex.split(line, comments=True)[1:]]
        code = main(argv)
        out, _ = capsys.readouterr()
        assert code == 0, line
        assert len(out.splitlines()) == 1, line
        json.loads(out)
