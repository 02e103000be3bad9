"""README's code blocks run: the quick tour executes and prints what its
comment promises, and the sample problem file loads and differentiates and
is the built-in ``entangling`` demo."""
import re
from pathlib import Path

import numpy as np

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


def test_problem_file_is_the_builtin_demo(tmp_path):
    """README's problem file and ``entangling`` load to the same problem and
    write the same optimize CSV bytes."""
    spec = tmp_path / "problem.json"
    spec.write_text(readme_block("Problem files", "json"))
    ours, builtin = cli.load_problem(str(spec)), cli.load_problem("entangling")
    assert ours.circuit == builtin.circuit
    assert ours.initial_state_spec == builtin.initial_state_spec
    assert np.array_equal(ours.symmetry.generators.rows, builtin.symmetry.generators.rows)
    assert ours.symmetry.action == builtin.symmetry.action
    assert ours.cost == builtin.cost
    assert ours.optimizer == builtin.optimizer
    outs = [tmp_path / "readme.csv", tmp_path / "builtin.csv"]
    for path, out in zip((str(spec), "entangling"), outs):
        assert cli.main(["optimize", path, "--seed", "0", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
