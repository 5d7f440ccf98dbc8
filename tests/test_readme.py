import doctest
import re
from pathlib import Path

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
