/**
 * @file
 * gstat driver: run the analyzer over a tree, or run the seeded-defect
 * corpus with --self-test (--self-test-flow for just the gflow cases).
 *
 * --passes=a,b,c restricts the run (may-park, lock-order, ordering,
 * ownership, taint; the token rules run with ordering) and must name
 * at least one pass; --json emits machine-readable findings for the
 * baseline-diff gate (scripts/gstat_diff.py).
 *
 * Exit codes: 0 clean, 1 findings (or corpus failures), 2 usage / IO
 * error.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: gstat [--self-test | --self-test-flow] [--json]\n"
        "             [--passes=may-park,lock-order,ordering,"
        "ownership,taint]\n"
        "             [root ...]\n"
        "  Analyzes every .hh/.cc under each root (default: src).\n");
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else
                out += c;
        }
    }
    return out;
}

/// False on an unknown pass name or an empty selection.
bool
parsePasses(const std::string &csv, genesys::analysis::PassSet &ps)
{
    ps.mayPark = ps.lockOrder = ps.ordering = ps.ownership =
        ps.taint = false;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string item = csv.substr(pos, comma - pos);
        if (item == "may-park")
            ps.mayPark = true;
        else if (item == "lock-order")
            ps.lockOrder = true;
        else if (item == "ordering")
            ps.ordering = true;
        else if (item == "ownership")
            ps.ownership = true;
        else if (item == "taint")
            ps.taint = true;
        else if (!item.empty())
            return false;
        pos = comma + 1;
    }
    return ps.mayPark || ps.lockOrder || ps.ordering || ps.ownership ||
           ps.taint;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace genesys::analysis;

    std::vector<std::string> roots;
    bool json = false;
    PassSet passes;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--self-test") == 0)
            return runSelfTest();
        if (std::strcmp(argv[i], "--self-test-flow") == 0)
            return runSelfTest(true);
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
            continue;
        }
        if (std::strncmp(argv[i], "--passes=", 9) == 0) {
            if (!parsePasses(argv[i] + 9, passes)) {
                usage();
                return 2;
            }
            continue;
        }
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            usage();
            return 0;
        }
        if (argv[i][0] == '-') {
            usage();
            return 2;
        }
        roots.push_back(argv[i]);
    }
    if (roots.empty())
        roots.push_back("src");

    std::vector<SourceFile> sources;
    for (const std::string &root : roots) {
        std::string err;
        if (!loadTree(root, sources, err)) {
            std::fprintf(stderr, "gstat: %s\n", err.c_str());
            return 2;
        }
    }

    const AnalysisResult result = analyzeSources(sources, passes);
    if (json) {
        std::printf("{\n  \"findings\": [");
        bool first = true;
        for (const Finding &f : result.findings) {
            std::printf("%s\n    {\"path\": \"%s\", \"line\": %d, "
                        "\"rule\": \"%s\", \"message\": \"%s\"}",
                        first ? "" : ",",
                        jsonEscape(f.path).c_str(), f.line,
                        jsonEscape(f.rule).c_str(),
                        jsonEscape(f.message).c_str());
            first = false;
        }
        std::printf("%s],\n", first ? "" : "\n  ");
        std::printf("  \"suppressed\": %d,\n", result.suppressed);
        std::printf("  \"functions\": %zu,\n", result.functionCount);
        std::printf("  \"files\": %zu\n}\n", result.fileCount);
    } else {
        for (const Finding &f : result.findings)
            std::printf("%s\n", f.render().c_str());
        std::printf("gstat: %zu finding(s), %d suppressed, "
                    "%zu functions in %zu files\n",
                    result.findings.size(), result.suppressed,
                    result.functionCount, result.fileCount);
    }
    return result.findings.empty() ? 0 : 1;
}
