"""Run one ``mergekit`` command with the layer wrappers installed.

    python bench/traced_cli.py SUMMARY_JSON SPANS_JSONL -- ARGV...

Times a fresh-process ``import mergekit.cli``, wraps every layer, calls
``mergekit.cli.run(ARGV)`` inside a ``cli.run`` span, writes the spans and
their per-layer summary, and exits with the command's exit code.  The
command's report on stdout is left untouched.
"""

import json
import sys
import time


def main():
    summary_path, spans_path, sep = sys.argv[1:4]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY SPANS -- ARGV...")
    t0 = time.perf_counter()
    import mergekit.cli
    import_s = time.perf_counter() - t0
    import spans
    rec = spans.Recorder()
    spans.install(rec)
    idx = rec.open("cli.run")
    try:
        code = mergekit.cli.run(sys.argv[4:])
    finally:
        rec.close(idx)
    agg, root_s = spans.summarize(rec.spans)
    rec.write(spans_path)
    with open(summary_path, "w") as f:
        json.dump({"import_s": import_s, "agg": agg, "root_s": root_s,
                   "counts": rec.counts}, f)
    sys.exit(code)


if __name__ == "__main__":
    main()
