"""The analysis umbrella CLI: ``python -m repro.analysis <tool> [...]``.

One front door over the two analyzers, with shared exit-code semantics —
0 clean, 1 findings, 2 usage error:

* ``verify``      — IR verifier over every compilation phase
                    (:mod:`repro.analysis.verify`)
* ``concurrency`` — lock-discipline / deadlock-order / thread-affinity lint
                    (:mod:`repro.analysis.concurrency`)

Each tool keeps its dedicated ``python -m repro.analysis.<tool>`` entry
point; this module only dispatches.
"""
from __future__ import annotations

import sys
from typing import List, Optional

_USAGE = """\
usage: python -m repro.analysis <tool> [options]

tools:
  verify       IR verifier (scope/type/effect checks per compilation phase)
  concurrency  lock-discipline, deadlock-order and thread-affinity lint

exit codes (all tools): 0 clean, 1 findings, 2 usage error
"""


def main(argv: Optional[List[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if not arguments or arguments[0] in ("-h", "--help"):
        stream = sys.stderr if not arguments else sys.stdout
        print(_USAGE, file=stream, end="")
        return 0 if arguments else 2
    tool, rest = arguments[0], arguments[1:]
    if tool == "verify":
        from .verify import main as verify_main
        return verify_main(rest)
    if tool == "concurrency":
        from .concurrency.__main__ import main as concurrency_main
        return concurrency_main(rest)
    print(f"unknown analysis tool: {tool!r}\n\n{_USAGE}",
          file=sys.stderr, end="")
    return 2


if __name__ == "__main__":
    sys.exit(main())
