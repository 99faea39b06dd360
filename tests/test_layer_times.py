import importlib.util
import json
import os
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_times.py"
BLOCKS = [
    "opening", "pulled_back", "challenge", "run_interaction", "canonicalize_prover", "canonical_run",
]


def load_tool():
    spec = importlib.util.spec_from_file_location("layer_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_times_prints_one_json_line_per_block_at_its_smallest_size(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "SHAPES", tool.SHAPES[:1])
    start = time.perf_counter()
    assert tool.main() == 0
    assert time.perf_counter() - start < 2.0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["block"] for line in lines] == BLOCKS
    w_dim, s_dim = tool.SHAPES[0]
    d_pm = w_dim * s_dim * tool.M_DIM
    for line in lines:
        assert set(line) == {"block", "w", "s", "m", "v", "d_pm", "d", "best_s", "repeats", "cpu_count"}
        assert (line["w"], line["s"], line["m"], line["v"]) == (w_dim, s_dim, tool.M_DIM, tool.V_DIM)
        assert (line["d_pm"], line["d"]) == (d_pm, d_pm * tool.V_DIM)
        assert 0 < line["best_s"] < 2.0
        assert line["repeats"] == tool.REPEATS
        assert line["cpu_count"] == os.cpu_count()
