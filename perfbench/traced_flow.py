"""Run one ``repro`` CLI command with every layer's entry point traced.

Usage::

    PYTHONPATH=src python perfbench/traced_flow.py SPANS_JSON -- place in.bl --routability --out out.bl

The command after ``--`` goes to :func:`repro.cli.main` unchanged, so
the traced flow runs the same public functions in the same order as the
untraced CLI (``repro.service.runner.run_place_job`` /
``run_eco_job``); its output file must be byte-identical to theirs.
The spans and the probe counts are written to ``SPANS_JSON`` when the
command returns; the exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import sys

import probes
import spans as sp


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = sp.Tracer()
    with tracer.span("startup.import"):
        for name in probes.FLOW_MODULES:
            importlib.import_module(name)
    probes.install(tracer)
    code = sys.modules["repro.cli"].main(cli_argv)
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
