"""The benchmark's tracer binds volcur names by attribute lookup; each must exist.

perfbench/tracer.py is loaded read-only (no bytecode is written next to it)
and installed over an imported volcur.cli, so a library name it traces that
is deleted or renamed fails here, not only in a traced benchmark run.  Its
sampler hook reads the sampler's first argument (.vectors, .eigenvalues)
when an op ends, so a sample run checks that too.
"""
import importlib.util
import sys
from pathlib import Path

import volcur.cli

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("volcur_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_uninstalls_over_the_cli(monkeypatch, capsys):
    main = volcur.cli.main
    tracer = load_tracer(monkeypatch)
    tracer.install()
    try:
        assert volcur.cli.main is not main
        assert volcur.cli.main(["ratio", "--spectrum", "geom:q=0.5,n=3", "--k", "1"]) == 0
    finally:
        tracer.uninstall()
    assert volcur.cli.main is main
    assert capsys.readouterr().out.startswith("k,ratio\n")
    assert {"cli.main", "spectra.parse_generator_spec", "esp._esp_coeffs"} <= {
        span["name"] for span in tracer.dump()}


def test_sampler_hook_counts_draws_and_checks_their_volume(monkeypatch, tmp_path, capsys):
    p = tmp_path / "m.txt"
    p.write_text("4 1 0\n1 3 1\n0 1 2\n")
    tracer = load_tracer(monkeypatch)
    tracer.install()
    try:
        code = volcur.cli.main(["sample", "--input", str(p), "--k", "2", "--draws", "7"])
    finally:
        tracer.uninstall()
    assert code == 0 and len(capsys.readouterr().out.splitlines()) == 7
    tracer.end_op()
    assert tracer.counts["sampling.draws"] == 7
    assert tracer.counts["sampling.bad_subsets"] == 0
    assert tracer.layer_metrics(1)["psd.eigensolves"] == 1
