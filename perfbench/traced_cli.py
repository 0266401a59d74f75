"""Run one rsadyn command with the layer tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- rsadyn-argv...

Each traced command gets its own fresh interpreter, so caches such as the
`lru_cache` of `salem.cyclotomic` start cold, as they do for users. The
spans and work counts are written to SPANS_JSON when the command ends; the
exit code is the command's own.
"""

import sys

import tracer


def main(argv):
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- ARGV...")
    from rsadyn import cli
    tr = tracer.Tracer()
    tr.install("rsadyn")
    rc = 2
    try:
        with tr.span(tracer.CLI_SPAN):
            rc = cli.main(cli_argv)
    except SystemExit as exc:          # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        tr.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
