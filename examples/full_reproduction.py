#!/usr/bin/env python3
"""Generate the complete reproduction report in one call.

Runs every table and figure of the paper's evaluation on the scaled-down
report machine and writes the markdown report to ``out.md`` (default
``reproduction_report.md`` in the working directory).  The sections are
the ones ``python -m repro paper run`` prints for the report
experiments.

Run:  python examples/full_reproduction.py [out.md]
"""

import sys

from repro.analysis import generate_report
from repro.analysis.report import default_params


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "reproduction_report.md"
    params = default_params()
    print("Machine:")
    print(params.describe())
    print()
    print("Running the full evaluation ...")
    text = generate_report(params=params)
    with open(out, "w") as handle:
        handle.write(text)
    print(f"Wrote {out}: {len(text.splitlines())} lines, "
          f"{sum(1 for l in text.splitlines() if l.startswith('##'))} sections")


if __name__ == "__main__":
    main()
