"""README's library example, run as written, and the command-line lines it quotes, so neither can drift."""

import contextlib
import io
import json
import re
from pathlib import Path

from probchan import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_and_prints_what_it_says():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    deviation, verdict = out.getvalue().splitlines()
    assert float(deviation) < 1e-9
    assert verdict == "True"


def quoted(pattern):
    """The one group of pattern in README, with each space in pattern matching any run of white space there."""
    found = re.findall(pattern.replace(" ", r"\s+"), README.read_text())
    assert len(found) == 1, pattern
    return found[0]


def run(argv):
    """(exit code, stdout, stderr) of the command line argv, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def document(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_command_line_prints_what_readme_quotes(tmp_path):
    h = document(tmp_path, "h.json", {"dim": 2, "entries": [[[0, 0], [100, 0]], [[100, 0], [0, 0]]]})  # 100 sigma_x
    evolve = ["evolve", "--hamiltonian", h, "--t-max", "1", "--oracle", "--dt"]

    # the accuracy paragraph: a stable step that is far from accurate
    last = quoted(r"`--t-max 1 --dt 0\.0141 --oracle` exits 0 and ends with `(# max_dev=[^`]+)`")
    code, out, err = run([*evolve, "0.0141"])
    assert (code, err, out.splitlines()[-1]) == (0, "", last)

    # the stability limit: 0.0141 runs, 0.0142 is refused with one line
    quoted(r"(`--dt 0\.0142` is refused and `--dt 0\.0141` runs)")
    code, out, err = run([*evolve, "0.0142"])
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: dt \* \(l_max - l_min\) = \S+ exceeds 2 sqrt\(2\): the RK4 steps would diverge\n", err)

    # a document whose 'dim' is not the one the command needs
    line = quoted(r"one line such as `(error: Choi matrix document needs 'dim': 4)`")
    choi = document(tmp_path, "choi.json", {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
    assert run(["channel", "check", choi]) == (1, "", line + "\n")

    # a cell that is not a number
    line = quoted(r"```\n(error: state cell \(0,1\) real part [^\n]*, got list)\n```")
    rho = document(tmp_path, "rho.json", {"dim": 2, "entries": [[[0.5, 0], [[0], 0]], [[0, 0], [0.5, 0]]]})
    assert run(["state", "to-probs", "--dim", "2", rho]) == (1, "", line + "\n")


def test_channel_from_probs_prints_the_positivity_line_readme_quotes(tmp_path):
    """README's stderr line for fifteen probabilities that meet the three constraints but give no CP map."""
    values = quoted(r"the probabilities `\(([^`]*)\)` meet all three constraints, and `channel check` calls")
    line = quoted(r"```\n(constraint residuals: [^\n]*\(not CP\))\n```")
    probs = document(tmp_path, "probs.json", {"probs": [float(v) for v in values.split(",")]})
    code, out, err = run(["channel", "from-probs", probs])
    assert (code, err) == (0, line + "\n")
    report = json.loads(run(["channel", "check", document(tmp_path, "choi.json", json.loads(out))])[1])
    assert report["verdict"] == "TP-not-CP"
