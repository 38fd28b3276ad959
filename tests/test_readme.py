import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_gives_its_commented_values(capsys):
    block = _library_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    analytic, params, est = namespace["analytic"], namespace["params"], namespace["est"]
    # each value as the block's comments print it
    shown = {
        "0.2008": f"{analytic.p_network_ud(params):.4f}",
        "0.9915": f"{analytic.p_sl_ud_mth(params, 1):.4f}",
        "8.459": f"{analytic.avg_node_degree(params):.3f}",
        "0.493": f"{est.estimate:.3f}",
    }
    for comment, value in shown.items():
        assert f"# {comment}" in block
        assert value == comment
    model, m, metric, value = namespace["rows"][1]
    assert f"# ({model!r}, {m}, {metric!r}, {value:.4f}...)" in block
    sweep = " / ".join(capsys.readouterr().out.splitlines())
    commented = "100 unit_disc 0.0 / 100 rayleigh 0.0 / 190 unit_disc 0.215 / 190 rayleigh 0.515"
    assert f"# {commented} / ..." in block
    assert sweep.startswith(commented + " / ")
