"""One vanetconn CLI invocation in a fresh interpreter, timed from the inside.

    python child.py REPORT MODE TRACE_DIR TRACE_ID [CLI ARGS...]

MODE is ``run`` (run the CLI) or ``setup`` (stop once the arguments are
parsed).  TRACE_DIR is ``-`` for an untraced run; otherwise the spans of the
run are written there under TRACE_ID.  REPORT receives a JSON object with the
monotonic time at which ``import vanetconn`` and argument parsing were done,
the time the CLI returned, its exit code and the peak resident memory of this
process and of its largest pool worker.  The parent stamps the launch time on
the same system-wide monotonic clock.
"""

import argparse
import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    report_path, mode, trace_dir, trace_id, *cli_argv = sys.argv[1:]
    marks = {}
    parse_args = argparse.ArgumentParser.parse_args

    def stamped(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        marks.setdefault("setup_end", time.monotonic())
        if mode == "setup":
            raise _SetupDone
        return namespace

    argparse.ArgumentParser.parse_args = stamped
    code = 1
    try:
        from vanetconn import cli

        tracer = None
        if trace_dir != "-":
            import spans

            tracer = spans.install(trace_dir, trace_id)
        try:
            code = cli.main(cli_argv)
        except _SetupDone:
            code = 0
        marks["end"] = time.monotonic()
        if tracer is not None:
            tracer.flush()
    finally:
        import json
        import resource

        marks["exit_code"] = code
        marks["maxrss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        marks["maxrss_children_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        with open(report_path, "w") as handle:
            json.dump(marks, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
