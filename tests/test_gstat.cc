/**
 * @file
 * Unit tests for the gstat static analyzer (src/analysis/).
 *
 * The seeded-defect corpus (`gstat --self-test`, also run here) is the
 * broad regression net; these tests pin the analyzer's contract at the
 * API level: witness chains, the suppression window, and the
 * resolution-hygiene mechanisms (noreturn terminators, explicit
 * qualifiers, opaque API-boundary classes, arity-refined resolution,
 * sign-context pruning) that keep the real tree free of false park
 * chains.
 */

#include "analysis/analyzer.hh"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace
{

using genesys::analysis::AnalysisResult;
using genesys::analysis::Finding;
using genesys::analysis::SourceFile;
using genesys::analysis::analyzeSources;
using genesys::analysis::loadTree;
using genesys::analysis::runSelfTest;

AnalysisResult
analyze(const std::string &text)
{
    return analyzeSources({{"t/x.cc", text}});
}

std::vector<std::string>
rulesOf(const AnalysisResult &r)
{
    std::vector<std::string> rules;
    for (const Finding &f : r.findings)
        rules.push_back(f.rule);
    return rules;
}

// A handler table where `ioctl` is classified non-blocking.
const char *kTablePrologue = R"src(
namespace osk { namespace sysno {
inline constexpr int ioctl = 16;
} }
bool mayBlockIndefinitely(int n) { return false; }
void buildTable() { install(sysno::ioctl, "ioctl", sysIoctl); }
)src";

TEST(Gstat, CleanSnippetHasNoFindings)
{
    const AnalysisResult r = analyze(R"src(
int add(int a, int b) { return a + b; }
int twice(int a) { return add(a, a); }
)src");
    EXPECT_TRUE(r.findings.empty());
    EXPECT_EQ(r.suppressed, 0);
    EXPECT_EQ(r.functionCount, 2u);
}

TEST(Gstat, TransitiveParkCarriesWitnessChain)
{
    const AnalysisResult r = analyze(std::string(kTablePrologue) + R"src(
long helper(WaitQueue &wq) { return wq.wait(); }
long sysIoctl(WaitQueue &wq) { return helper(wq); }
)src");
    ASSERT_EQ(rulesOf(r),
              std::vector<std::string>{"nonblocking-handler-parks"});
    const Finding &f = r.findings[0];
    // The witness walks handler -> helper -> the parking call site.
    ASSERT_GE(f.witness.size(), 2u);
    EXPECT_NE(f.witness[0].find("helper"), std::string::npos);
    EXPECT_NE(f.witness.back().find("wait"), std::string::npos);
    EXPECT_NE(f.witness.back().find("t/x.cc:"), std::string::npos);
}

TEST(Gstat, SuppressionWindowIsThreeLines)
{
    // allow() two lines above the finding line: suppressed.
    const AnalysisResult near = analyze(std::string(kTablePrologue) +
                                        R"src(
// gstat: allow(nonblocking-handler-parks)
long
sysIoctl(WaitQueue &wq) { return wq.wait(); }
)src");
    EXPECT_TRUE(near.findings.empty());
    EXPECT_EQ(near.suppressed, 1);

    // allow() five lines above: out of the window, finding survives.
    const AnalysisResult far = analyze(std::string(kTablePrologue) +
                                       R"src(
// gstat: allow(nonblocking-handler-parks)
//
//
//
long
sysIoctl(WaitQueue &wq) { return wq.wait(); }
)src");
    ASSERT_EQ(rulesOf(far),
              std::vector<std::string>{"nonblocking-handler-parks"});
    EXPECT_EQ(far.suppressed, 0);
}

TEST(Gstat, OnlyGstatSpellingSuppressesTokenRules)
{
    const AnalysisResult allowed =
        analyze("// gstat: allow(raw-rand)\nint r = rand();\n");
    EXPECT_TRUE(allowed.findings.empty());
    EXPECT_EQ(allowed.suppressed, 1);

    // The retired Python linter's spelling suppresses nothing.
    const AnalysisResult retired =
        analyze("// glint: allow(raw-rand)\nint r = rand();\n");
    ASSERT_EQ(rulesOf(retired), std::vector<std::string>{"raw-rand"});
    EXPECT_EQ(retired.suppressed, 0);
}

TEST(Gstat, OpaqueClassBlocksUnqualifiedResolution)
{
    const char *wrapper = R"src(
class Wrapper
{
  public:
    long request(WaitQueue &wq) { return wq.wait(); }
};
long sysIoctl(int fd) { return request(fd); }
)src";
    // Without the annotation, `request(fd)` resolves into the class
    // and the handler appears to park.
    const AnalysisResult plain =
        analyze(std::string(kTablePrologue) + wrapper);
    EXPECT_EQ(rulesOf(plain),
              std::vector<std::string>{"nonblocking-handler-parks"});

    const AnalysisResult opaque =
        analyze(std::string(kTablePrologue) +
                "// gstat: opaque(Wrapper)\n" + wrapper);
    EXPECT_TRUE(opaque.findings.empty());
}

TEST(Gstat, QualifiedCallDoesNotResolveByShortName)
{
    // `ext::request` must not resolve to the in-tree parking
    // `Wrapper::request` — the qualifier does not match.
    const AnalysisResult r = analyze(std::string(kTablePrologue) + R"src(
class Wrapper
{
  public:
    long request(WaitQueue &wq) { return wq.wait(); }
};
long sysIoctl(int fd) { return ext::request(fd); }
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gstat, NoreturnTerminatorCutsParkPropagation)
{
    // panic() happens to reach a park (its I/O path), but a call TO
    // panic never returns, so the handler cannot park through it.
    const AnalysisResult r = analyze(std::string(kTablePrologue) + R"src(
void panic(WaitQueue &wq) { wq.wait(); }
long sysIoctl(WaitQueue &wq) { panic(wq); return 0; }
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gstat, SignGuardFlowPrunesDeadPark)
{
    // The pread-style flow: caller rejects off < 0, callee's park is
    // dead behind an off >= 0 early return. Guarded: clean.
    const char *callee = R"src(
long helper(WaitQueue &wq, long pos)
{
    if (pos >= 0)
        return -29;
    return wq.wait();
}
)src";
    const AnalysisResult guarded =
        analyze(std::string(kTablePrologue) + callee + R"src(
long sysIoctl(WaitQueue &wq, long off)
{
    if (off < 0)
        return -22;
    return helper(wq, off);
}
)src");
    EXPECT_TRUE(guarded.findings.empty());

    // Without the caller guard a negative offset reaches the park.
    const AnalysisResult unguarded =
        analyze(std::string(kTablePrologue) + callee + R"src(
long sysIoctl(WaitQueue &wq, long off)
{
    return helper(wq, off);
}
)src");
    EXPECT_EQ(rulesOf(unguarded),
              std::vector<std::string>{"nonblocking-handler-parks"});
}

TEST(Gstat, ArityRefinedResolution)
{
    // A one-argument call must not resolve to the parking
    // two-argument overload just because the short names collide.
    const AnalysisResult r = analyze(std::string(kTablePrologue) + R"src(
struct Stream
{
    WaitQueue wq_;
    long read(void *buf, unsigned long len) { return wq_.wait(); }
};
struct Device
{
    long read(unsigned long bytes) { return 0; }
};
long sysIoctl(Device &dev) { return dev.read(16); }
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gstat, LockOrderCycleReportedOnceWithEdgeWitness)
{
    const AnalysisResult r = analyze(R"src(
struct S
{
    void ab()
    {
        std::lock_guard<std::mutex> g1(a_);
        std::lock_guard<std::mutex> g2(b_);
    }
    void ba()
    {
        std::lock_guard<std::mutex> g1(b_);
        std::lock_guard<std::mutex> g2(a_);
    }
    std::mutex a_;
    std::mutex b_;
};
)src");
    ASSERT_EQ(rulesOf(r), std::vector<std::string>{"lock-order-cycle"});
    EXPECT_FALSE(r.findings[0].witness.empty());
}

TEST(Gstat, UnpairedReleaseStore)
{
    const AnalysisResult r = analyze(R"src(
void badPublish(SyscallRing &r) { r.storeTailRelease(7); }
)src");
    EXPECT_EQ(rulesOf(r), std::vector<std::string>{"unpaired-release"});
}

TEST(Gstat, DeterministicAcrossRuns)
{
    const std::string text = std::string(kTablePrologue) +
        "long sysIoctl(WaitQueue &wq) { return wq.wait(); }\n";
    const AnalysisResult a = analyze(text);
    const AnalysisResult b = analyze(text);
    ASSERT_EQ(a.findings.size(), b.findings.size());
    for (std::size_t i = 0; i < a.findings.size(); ++i)
        EXPECT_EQ(a.findings[i].render(), b.findings[i].render());
}

TEST(Gstat, LoadTreeRejectsMissingRoot)
{
    std::vector<SourceFile> files;
    std::string err;
    EXPECT_FALSE(loadTree("definitely/not/a/dir", files, err));
    EXPECT_FALSE(err.empty());
}

TEST(Gstat, SeededDefectCorpusPasses)
{
    EXPECT_EQ(runSelfTest(), 0);
}

// ---- gflow: path-sensitive ownership / taint (DESIGN.md §16) ----------

TEST(Gflow, FdLeakOnErrorPathCarriesWitness)
{
    const AnalysisResult r = analyze(R"src(
int handler(Proc &p, File f) {
    int fd = p.fds.allocate(f);
    if (fd > 2)
        return -1;
    p.fds.close(fd);
    return 0;
}
)src");
    ASSERT_EQ(rulesOf(r),
              std::vector<std::string>{"must-release-fd"});
    const Finding &f = r.findings[0];
    ASSERT_GE(f.witness.size(), 2u);
    EXPECT_NE(f.witness.front().find("acquired"), std::string::npos);
    EXPECT_NE(f.witness.back().find("unreleased"), std::string::npos);
}

TEST(Gflow, UnboundedGpuLengthReachesMemcpy)
{
    const AnalysisResult r = analyze(R"src(
void copyOut(const SyscallArgs &args, char *dst, const char *src) {
    unsigned long len = args.a[2];
    std::memcpy(dst, src, len);
}
)src");
    EXPECT_EQ(rulesOf(r), std::vector<std::string>{"gpu-taint-mem"});
}

TEST(Gflow, ExplicitTemplateMinSanitizesCopySize)
{
    // `std::min<unsigned long>(...)` carries an explicit template
    // argument list; the extractor must still see the call so the
    // min/clamp sanitizer applies.
    const AnalysisResult r = analyze(R"src(
void copyOut(const SyscallArgs &args, char *dst, const Buf &b) {
    unsigned long len = args.a[2];
    const unsigned long n = std::min<unsigned long>(len, b.size);
    std::memcpy(dst, b.data, n);
}
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, ShortCircuitGuardInOneConditionIsClean)
{
    // `fd < 0 || fd >= n || slots[fd] == 0`: each operand is scanned
    // under the accumulated edge facts of the operands to its left.
    const AnalysisResult r = analyze(R"src(
int get(const SyscallArgs &args, Table &t) {
    int fd = args.as<int>(0);
    if (fd < 0 || fd >= t.n || t.slots[fd] == 0)
        return -1;
    return t.slots[fd];
}
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, CallReturnLaundersArgumentTaint)
{
    // `m.find(addr)` returns the callee's output, not raw GPU data;
    // the GENESYS_ASSERT bound then sanitizes the derived index.
    const AnalysisResult r = analyze(R"src(
void drop(const SyscallArgs &args, Mm &m) {
    unsigned long addr = args.a[0];
    Vma *vma = m.find(addr);
    unsigned long first = addr / 4096;
    GENESYS_ASSERT(first < vma->pages, "bounds");
    vma->state[first] = 1;
}
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, AssociativeContainerSubscriptIsClean)
{
    // A base used with keyed-container vocabulary (`contains`)
    // subscripts by key, not position.
    const AnalysisResult r = analyze(R"src(
void track(const SyscallArgs &args, Reg &r) {
    int fd = args.as<int>(0);
    if (r.interests.contains(fd))
        return;
    r.interests[fd] = 1;
}
)src");
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, NetSegSlotOverwriteReleasesLoan)
{
    // The gkv reclaim idiom: a subscript store INTO the loan
    // container drops that slot's loan; the assert's sign fact rules
    // out the zero-iteration path. It sits at gkv's path, one of the
    // audited readSegments callers.
    const AnalysisResult r = analyzeSources({{"src/workloads/gkv.cc", R"src(
long drain(Sock &s) {
    NetSeg segs[4];
    long got = s.readSegments(segs, 4, false);
    GENESYS_ASSERT(got > 0, "drain");
    for (long i = 0; i < got; ++i)
        segs[i] = NetSeg{};
    return got;
}
)src"}});
    EXPECT_TRUE(r.findings.empty());
}

TEST(Gflow, InterproceduralTaintChainNamesCallee)
{
    const AnalysisResult r = analyze(R"src(
void sink(char *dst, const char *src, unsigned long n) {
    std::memcpy(dst, src, n);
}
long entry(const SyscallArgs &args, char *d, const char *s) {
    sink(d, s, args.a[2]);
    return 0;
}
)src");
    ASSERT_EQ(rulesOf(r), std::vector<std::string>{"gpu-taint-mem"});
    bool namesCallee = false;
    for (const std::string &step : r.findings[0].witness)
        if (step.find("sink") != std::string::npos)
            namesCallee = true;
    EXPECT_TRUE(namesCallee);
}

} // namespace
