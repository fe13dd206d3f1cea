"""unchecked-status: the Status/Result discipline, statically enforced.

The Status and Result class templates themselves carry a class-level
[[nodiscard]] (src/common/status.h, src/common/result.h). With the
build's -Wall -Werror, the compiler then rejects every discarded
by-value return (-Werror=unused-result), whether or not the function
declaration repeats the attribute, and .clang-tidy's
bugprone-unused-return-value covers the same case. This checker pins
the one thing the compiler cannot: that the class-level attribute stays.
"""

import re

from ..framework import Finding, checker


@checker("unchecked-status",
         "Status/Result carry a class-level [[nodiscard]], so the compiler "
         "rejects every discarded return")
def unchecked_status(repo):
    for rel, cls in (("src/common/status.h", "Status"),
                     ("src/common/result.h", "Result")):
        sf = repo.get(rel)
        if sf is None:
            continue
        decl = re.search(r"class\s+(\[\[nodiscard\]\]\s+)?" + cls + r"\b",
                         sf.pure)
        if decl is not None and not decl.group(1):
            line = sf.pure.count("\n", 0, decl.start()) + 1
            yield Finding(
                "unchecked-status", rel, line,
                f"class {cls} must be declared [[nodiscard]] so every "
                f"discarded by-value return is a compile error")
