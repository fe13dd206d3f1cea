"""failpoint-drift: fault-injection sites, sweeps, and docs stay in sync.

Four artifacts describe the same set of failpoint sites:

  1. the instrumented code: PCDB_FAILPOINT("x") / Failpoints .Hit("x")
     / .IsActive("x") call sites in src/;
  2. the canonical table in Failpoints::AllSites()
     (src/common/failpoint.cc) that tests iterate to cover the matrix;
  3. the `sites=` sweep list in tools/ci.sh's faults stage;
  4. the site catalogue in docs/ROBUSTNESS.md.

Any of these drifting silently means a fault path that exists but is
never exercised, or a sweep/doc entry for a site that no longer fires.
The checker cross-checks all pairs, in both directions. A deliberate
omission (ci.sh leaves out pool.dispatch because a dispatch fault on
the server's eval pool skips a query job, which then never answers)
carries an inline suppression with that justification. Artifacts absent under --root (fixture trees)
skip their comparisons.
"""

import re

from ..framework import Finding, checker

FAILPOINT_CC = "src/common/failpoint.cc"
CI_SH = "tools/ci.sh"
ROBUSTNESS_MD = "docs/ROBUSTNESS.md"

SITE_USE_RE = re.compile(
    r'(?:PCDB_FAILPOINT\s*\(\s*|\.\s*(?:Hit|IsActive)\s*\(\s*)"([^"]+)"')
ALLSITES_RE = re.compile(
    r"AllSites\s*\(\)\s*\{(.*?)\breturn\b", re.DOTALL)
SITES_ASSIGN_RE = re.compile(r'\bsites="([^"]*)"', re.DOTALL)
BACKTICK_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")
FILE_SUFFIXES = (".sh", ".py", ".md", ".cc", ".h", ".json", ".txt",
                 ".cmake", ".sarif")


def _code_sites(repo):
    """site -> (rel, line) of first instrumented use in src/."""
    sites = {}
    for sf in repo.src_cpp_files():
        if sf.rel == FAILPOINT_CC:
            continue  # the registry implementation, not a site
        for m in SITE_USE_RE.finditer(sf.code):
            line = sf.code.count("\n", 0, m.start()) + 1
            sites.setdefault(m.group(1), (sf.rel, line))
    return sites


def _canonical_sites(sf):
    """site -> line from the AllSites() table in failpoint.cc."""
    m = ALLSITES_RE.search(sf.code)
    if m is None:
        return None
    out = {}
    for sm in re.finditer(r'"([^"]+)"', m.group(1)):
        line = sf.code.count("\n", 0, m.start(1) + sm.start()) + 1
        out.setdefault(sm.group(1), line)
    return out


def _ci_sites(sf):
    """site -> line from the faults-stage sites= list in ci.sh."""
    m = SITES_ASSIGN_RE.search(sf.code)
    if m is None:
        return None, None
    assign_line = sf.code.count("\n", 0, m.start()) + 1
    out = {}
    for tok in m.group(1).replace("\\", " ").split():
        out.setdefault(tok, assign_line)
    return out, assign_line


def _doc_sites(sf):
    """site-shaped backticked tokens -> line from ROBUSTNESS.md."""
    out = {}
    for lineno, line in enumerate(sf.lines, start=1):
        for m in BACKTICK_RE.finditer(line):
            tok = m.group(1)
            if tok.endswith(FILE_SUFFIXES) or "/" in tok:
                continue
            out.setdefault(tok, lineno)
    return out


@checker("failpoint-drift",
         "failpoint sites, the AllSites table, the ci.sh fault sweep, "
         "and docs/ROBUSTNESS.md agree in both directions")
def failpoint_drift(repo):
    code = _code_sites(repo)

    fp_cc = repo.get(FAILPOINT_CC)
    if fp_cc is not None:
        canonical = _canonical_sites(fp_cc)
        if canonical is None:
            yield Finding("failpoint-drift", FAILPOINT_CC, 1,
                          "no Failpoints::AllSites() table found")
        else:
            for site, (rel, line) in sorted(code.items()):
                if site not in canonical:
                    yield Finding(
                        "failpoint-drift", rel, line,
                        f"failpoint site '{site}' is instrumented here "
                        f"but missing from Failpoints::AllSites(); tests "
                        f"iterating the table will never arm it")
            for site, line in sorted(canonical.items()):
                if site not in code:
                    yield Finding(
                        "failpoint-drift", FAILPOINT_CC, line,
                        f"AllSites() lists '{site}' but no src/ code "
                        f"instruments it; delete the stale entry")

    ci = repo.get(CI_SH)
    if ci is not None:
        swept, assign_line = _ci_sites(ci)
        if swept is None:
            yield Finding("failpoint-drift", CI_SH, 1,
                          "no faults-stage sites=\"...\" list found")
        else:
            for site in sorted(code):
                if site not in swept:
                    yield Finding(
                        "failpoint-drift", CI_SH, assign_line,
                        f"failpoint site '{site}' is not in the faults "
                        f"sweep; every site must be exercised or carry "
                        f"a justified suppression")
            for site, line in sorted(swept.items()):
                if site not in code:
                    yield Finding(
                        "failpoint-drift", CI_SH, line,
                        f"faults sweep arms '{site}' but no src/ code "
                        f"instruments it; delete the stale entry")

    docs = repo.get(ROBUSTNESS_MD)
    if docs is not None:
        documented = _doc_sites(docs)
        for site, (rel, line) in sorted(code.items()):
            if site not in documented:
                yield Finding(
                    "failpoint-drift", rel, line,
                    f"failpoint site '{site}' is undocumented; add it "
                    f"to the catalogue in {ROBUSTNESS_MD}")
        for site, line in sorted(documented.items()):
            if site not in code:
                yield Finding(
                    "failpoint-drift", ROBUSTNESS_MD, line,
                    f"documents failpoint '{site}' which no src/ code "
                    f"instruments; delete the stale entry")
