"""The benchmark's tracer binds volcur names by attribute lookup; each must exist.

perfbench/tracer.py is loaded read-only (no bytecode is written next to it)
and installed over an imported volcur.cli, so a library name it traces that
is deleted or renamed fails here, not only in a traced benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

import volcur.cli

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls_over_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("volcur_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    main = volcur.cli.main
    tracer = module.Tracer()
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
