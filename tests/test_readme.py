"""README's code blocks run: the quick tour executes and prints what its
comment promises, and the sample problem file loads and differentiates."""
import re
from pathlib import Path

from symflow import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(section: str, lang: str) -> str:
    """The first ``lang`` code block after the heading ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL).group(1)


def test_quick_tour_runs(capsys):
    exec(readme_block("Library quick tour", "python"), {})
    assert "(2, 1, 1, 0)" in capsys.readouterr().out.splitlines()


def test_problem_file_example_grads(tmp_path, capsys):
    spec = tmp_path / "problem.json"
    spec.write_text(readme_block("Problem files", "json"))
    assert cli.main(["grad", str(spec), "--kind", "covariant"]) == 0
    assert '"projected"' in capsys.readouterr().out
