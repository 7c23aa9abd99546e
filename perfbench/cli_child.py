"""Timing child for the traced ``cli`` run: one CLI invocation, stage by stage.

    python perfbench/cli_child.py SPANS_PATH ARG...

Times ``import folcalc.cli``, then ``build_parser().parse_args(argv)``, then
the handler that parse selected (with library spans beneath it), then
``main(argv)``, which writes the real stdout, stderr and exit status. Library
tracing is off during ``main`` so each job counts its library calls once;
inside ``main`` only the renderer (``_render_json`` or ``_render_table``) is
timed, as ``cli.render``. The spans go to SPANS_PATH as JSON.
"""

import sys
from time import perf_counter_ns


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter_ns()
    import folcalc.cli as cli

    imported = perf_counter_ns()
    import json

    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append((tracer.new_id(), None, "cli.import", start, imported, None, tracing.OK))
    tracer.install()
    args = None
    opened = tracer.begin("cli.parse")
    try:
        args = cli.build_parser().parse_args(argv)
        tracer.end(opened)
    except cli.FolcalcError:
        tracer.end(opened, tracing.DOMAIN)
    if args is not None:
        opened = tracer.begin("cli.compute")
        try:
            args.handler(args)
            tracer.end(opened)
        except cli.FolcalcError:
            tracer.end(opened, tracing.DOMAIN)
    tracer.uninstall()
    for name in ("_render_json", "_render_table"):
        setattr(cli, name, tracer.wrap("cli.render", getattr(cli, name)))
    opened = tracer.begin("cli.main")
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.end(opened)
    with open(spans_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
