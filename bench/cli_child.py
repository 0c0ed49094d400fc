"""Run one twistq command under the benchmark's tracer.

Usage: python3 bench/cli_child.py TRACE_OUT ARG...

Behaves like `python -m twistq.cli ARG...` (same stdout, stderr and exit
code) and writes the spans and counts it recorded to TRACE_OUT.
"""

import contextlib
import io
import sys
import traceback

import spans


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    start = spans.clock()
    import twistq.cli
    tracer.add_span("cli.import", start, spans.clock())
    tracer.install()
    report = io.StringIO()
    code = 1
    try:
        with contextlib.redirect_stdout(report):
            code = twistq.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    except Exception:  # what the interpreter does with an uncaught error
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
        text = report.getvalue()
        sys.stdout.write(text)
        tracer.count("cli.report_bytes", len(text.encode()))
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
