"""Write the golden reports the benchmark compares against.

    python3 perfbench/make_golden.py

Run once, at the commit whose reports are the reference; existing golden
files are never overwritten.  For every (workload, model) pair it writes
``golden/<workload>/<model>.json`` and ``.txt``: the bytes of
``report.to_json()`` and ``report.to_text()`` after ``parse_model`` and
``cli.run("all", ...)``, and checks the summary against the expected one.
"""

import sys

from run import (EXPECTED_SUMMARY, ROOT, SRC, WORKLOADS, golden_path)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from bimodconn import cli, parse_model
    for workload, wl in WORKLOADS.items():
        for model in wl.models:
            paths = [golden_path(workload, model, ext) for ext in ("json", "txt")]
            if any(p.exists() for p in paths):
                print(f"{workload}/{model}: exists, kept")
                continue
            report = cli.run("all", parse_model(
                str(ROOT / "models" / f"{model}.model"), truncation=wl.truncation))
            if report.summary != EXPECTED_SUMMARY[model]:
                print(f"{workload}/{model}: summary {report.summary}, expected "
                      f"{EXPECTED_SUMMARY[model]}", file=sys.stderr)
                return 1
            paths[0].parent.mkdir(parents=True, exist_ok=True)
            for path, text in zip(paths, (report.to_json(), report.to_text())):
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            print(f"{workload}/{model}: written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
