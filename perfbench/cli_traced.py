"""Run one hkgeom CLI command with the benchmark's spans installed.

    python3 perfbench/cli_traced.py lattice signature -i fixtures/k3_lattice.json

Used for the traced passes of the cli-golden workload: stdout is the CLI's
own, and the spans follow on stderr as one line starting with
tracing.SPAN_MARK.
The job id comes from the PERFBENCH_JOB environment variable.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hkgeom.cli  # noqa: E402
from tracing import SPAN_MARK, Recorder  # noqa: E402


def main() -> int:
    rec = Recorder()
    rec.job_id = int(os.environ.get("PERFBENCH_JOB", "-1"))
    rec.install(with_cli=True)
    code = hkgeom.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(SPAN_MARK + json.dumps(rec.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
