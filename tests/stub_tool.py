"""Scripted stand-in for a build toolchain.

Usage: stub_tool.py <behavior.json> <compile|run> [<TestClassName>]

behavior.json maps test class names to one of: pass, compile-fail,
run-fail, hang. Unlisted classes pass. A compile without a class name
(a project-wide compile) is decided by the "*" entry. Every call appends
"<phase> <TestClassName>" (the name empty when absent) as one line to the
log file next to behavior.json, named as it is with the suffix .log.
"""

import json
import pathlib
import sys
import time


def main() -> int:
    behavior_file, phase, *rest = sys.argv[1:]
    test_class = rest[0] if rest else "*"
    behavior = pathlib.Path(behavior_file)
    with behavior.with_suffix(".log").open("a") as log:
        log.write(f"{phase} {''.join(rest)}\n")
    spec = json.loads(behavior.read_text()).get(test_class, "pass")
    if phase == "compile":
        if spec == "compile-fail":
            print("compile failure output")
            return 1
        return 0
    if spec == "run-fail":
        print("test failure output")
        return 1
    if spec == "hang":
        time.sleep(30)
    return 0


if __name__ == "__main__":
    sys.exit(main())
