"""The package names and result shapes that the benchmark's traced run uses.

``perfbench/spans.py`` wraps functions of ``ocycles`` modules by name and its
hooks read fields of what they return, so a rename or a changed result shape
in the package would break ``perfbench/run.py --trace 1``.  The file is loaded
from its path and only read; nothing under ``perfbench/`` is imported as a
package or changed.
"""

import importlib
import importlib.util
from pathlib import Path

import ocycles
import ocycles.cli
import ocycles.connect

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    spans = load_spans()
    missing = [
        (module, attr)
        for module, attr, _ in spans.CLI_CALLS + spans.WALKER_CALLS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_hooks_read_the_result_shapes(tmp_path, capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    argv = ["--n", "4", "--k", "3", "--s", "1"]
    out, out_list = tmp_path / "cycle.txt", tmp_path / "list.txt"
    try:
        for module, attr, name in spans.CLI_CALLS + spans.WALKER_CALLS:
            tracer.install(importlib.import_module(module), attr, name)
        assert ocycles.cli.main(["gen", *argv, "--format", "list", "--out", str(out_list)]) == 0
        assert ocycles.cli.main(["gen", *argv, "--out", str(out)]) == 0
        assert ocycles.cli.main(["verify", str(out), *argv]) == 0
        assert ocycles.cli.main(["gen", "--n", "4", "--k", "4", "--s", "2"]) == 4
        assert ocycles.cli.main(["oracle", "--n", "3", "--k", "2", "--s", "1"]) == 0
        p = ocycles.validate_params(n=5, k=4, s=2)
        cert = ocycles.connect.find_path((3, 4), p)
        assert ocycles.connect.replay_certificate(cert, p).ok
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = tracer.counts
    assert counts["euler.euler_tour.edges"] == 24 + 24 + 8
    assert counts["euler.tour_incomplete.count"] == 1
    assert counts["graph.build_graph.edges"] == 24 + 24 + 24
    assert counts["verify.verify_cycle_string.objects"] == 24
    assert counts["cli.parse_text.symbols"] == 48
    assert counts["cli.doc_bytes"] == len(out.read_bytes()) + len(out_list.read_bytes())
    assert counts["verify.hamilton_oracle.decided"] == 1
    assert counts["connect.steps"] == len(cert.steps) > 0
    # the walker loop reads each step's word and direction
    assert all(st.direction.value in ("forward", "backward") for st in cert.steps)
    assert all(len(st.edge.word) == p.k for st in cert.steps)
