import doctest
import json
import re
from pathlib import Path

from simcores.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    # every fenced python block of the README runs as a doctest, so a stale
    # example fails the suite
    text = README.read_text()
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    attempted = 0
    for block in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        line = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block[1], {}, f"README.md:{line + 1}",
                                  str(README), line)
        report = []
        failed, tried = runner.run(test, out=report.append)
        assert failed == 0, "".join(report)
        attempted += tried
    assert attempted >= 3


# a small input for each subcommand whose JSON the README describes
SCHEMA_JOBS = {
    "cores": ["cores", "--a", "3", "--b", "7"],
    "poset": ["poset", "--a", "3", "--b", "7"],
    "stats": ["stats", "--m", "2", "--max-n", "2"],
    "recursions": ["recursions", "--m", "2", "--max-n", "2"],
    "series-verify": ["series-verify", "--m", "2", "--order", "4"],
    "cross-check": ["cross-check", "--m", "2", "--max-n", "2"],
}


def test_readme_json_schemas_match_output(capsys):
    # each "`name`:" entry of the "JSON schemas" section lists, in its first
    # {...}, the keys of that subcommand's object (of each row for a report)
    text = README.read_text()
    section = text[text.index("### JSON schemas"):]
    section = section[:section.index("\n## ")]
    documented = {name: re.findall(r'"(\w+)":', obj) for name, obj in
                  re.findall(r"^`([\w-]+)`:.*?(\{.*?\})", section, re.M | re.S)}
    assert documented.keys() == SCHEMA_JOBS.keys()
    for name, argv in SCHEMA_JOBS.items():
        assert main([*argv, "--format", "json"]) == 0
        value = json.loads(capsys.readouterr().out)
        if isinstance(value, list):
            value = value[0]
        assert list(value) == documented[name], name
