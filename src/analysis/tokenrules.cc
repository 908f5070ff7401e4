/**
 * @file
 * gstat's token rules (DESIGN.md §14): protocol invariants the type
 * system cannot express, checked on the lexed token stream alone.
 * Comments, strings and preprocessor lines never become tokens, so
 * prose or a log message naming a banned identifier cannot trip a
 * rule.
 *
 * Seven rules ban an identifier (or a short token sequence) outside a
 * file allowlist and share one table. Four need a little shape:
 *
 *  - `slot-state`: slot state words are assigned only inside the FSM
 *    transition API in core/slot.{hh,cc};
 *  - `unordered-iteration`: no range-for or begin() over a name
 *    declared as std::unordered_* in the same file or its same-stem
 *    .hh/.cc partner (iteration order is implementation-defined);
 *  - `coawait-owning-lambda`: no lambda with owning captures as a
 *    temporary inside a co_await full-expression (GCC 12's coroutine
 *    lowering destroys the closure twice; hoist it into a named
 *    local and std::move it);
 *  - `sysno-classified`: every sysno in osk/syscalls.hh has a row in
 *    the Table II census (osk/classification.cc), and every
 *    single-word row names a declared sysno or a frozen census row.
 */

#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "analysis/passes.hh"

namespace genesys::analysis
{

namespace
{

/// Does @p path end in @p suffix at a path-component boundary?
bool
pathIs(const std::string &path, const std::string &suffix)
{
    if (path.size() < suffix.size() ||
        path.compare(path.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    return path.size() == suffix.size() ||
           path[path.size() - suffix.size() - 1] == '/';
}

/// Is @p t code (not a literal) spelled @p text?
bool
is(const Token &t, const std::string &text)
{
    return t.kind != TokKind::String && t.kind != TokKind::CharLit &&
           t.text == text;
}

bool
isAny(const Token &t, std::initializer_list<const char *> texts)
{
    for (const char *text : texts) {
        if (is(t, text))
            return true;
    }
    return false;
}

void
report(std::vector<Finding> &out, const LexedFile &file, int line,
       const char *rule, std::string message)
{
    Finding f;
    f.path = file.path;
    f.line = line;
    f.rule = rule;
    f.message = std::move(message);
    out.push_back(std::move(f));
}

struct BannedTokens
{
    const char *rule;
    std::vector<std::vector<std::string>> patterns;
    std::vector<std::string> allowedIn; ///< path suffixes
    const char *message;
};

const std::vector<BannedTokens> kBannedTokens = {
    {"doorbell-callers",
     {{"sendInterrupt", "("}},
     {"gpu/gpu.cc", "gpu/gpu.hh", "core/client.cc"},
     "the doorbell is rung only by the device and the client issue "
     "path (gpu/gpu.*, core/client.cc)"},
    // The audited direct consumers of the zero-copy segment loan: the
    // implementation, the recvmsg(MSG_ZEROCOPY) syscall layer that
    // retires loans on the next call, and the gkv load generator
    // whose parse completes before the next drain.
    {"segment-loan",
     {{"readSegments", "("}},
     {"osk/tcp.hh", "osk/tcp.cc", "osk/syscalls.cc",
      "workloads/gkv.cc"},
     "readSegments hands out loaned NetSegs whose lifetime the caller "
     "must manage by hand; use recvmsg(MSG_ZEROCOPY), which retires "
     "its loans automatically on the next call"},
    {"raw-rand",
     {{"rand", "(", ")"}, {"srand", "("}, {"random_device"}},
     {},
     "unseeded randomness; use the seeded support/random.hh PRNG"},
    {"wall-clock",
     {{"std", "::", "chrono"},
      {"steady_clock"},
      {"system_clock"},
      {"clock_gettime", "("},
      {"gettimeofday", "("},
      {"time", "(", ")"},
      {"time", "(", "NULL", ")"},
      {"time", "(", "nullptr", ")"},
      {"time", "(", "0", ")"}},
     {},
     "wall-clock time source in simulated code; modeled time comes "
     "from sim::EventQueue::now()"},
    {"raw-counter-access",
     {{"headRaw_"}, {"tailRaw_"}, {"claimedRaw_"}},
     {"core/ring.hh"},
     "raw ring counter; only the core/ring.hh acquire/release "
     "accessors (loadHeadAcquire / storeTailRelease / ...) may touch "
     "it"},
    {"mutant-scope",
     {{"mutant", "::", "Scope"}},
     {"support/mutant.hh", "core/gmc.cc"},
     "seeded protocol bugs are planted only by the gmc scenario "
     "runner (and tests); production paths never open a "
     "mutant::Scope"},
    {"sysfs-table",
     {{"SysfsFile"}},
     {"osk/sysfs.hh", "osk/sysfs.cc"},
     "sysfs files are made only by osk::installSysfsFile; declare a "
     "/sys/genesys counter or knob as a row of the counter table in "
     "core/system.cc (fault knobs: osk/fault.cc)"},
    // The slot/ring fork stays where it is decided today, so it can
    // only shrink: the client's cost rule, submit and CQ poll, the
    // interrupt backend, and the config that carries the flag.
    {"ring-mode-sites",
     {{"useRings"}},
     {"core/params.hh", "core/slot.hh", "core/gmc.hh", "core/gmc.cc",
      "core/client.cc", "core/backend/interrupt_backend.cc"},
     "a new slot/ring fork; ask SyscallArea::ringsEnabled() or route "
     "through GpuSyscalls' cost rule and submit() instead of reading "
     "useRings again"},
};

/// One finding per banned-token rule per line.
void
checkBannedTokens(const LexedFile &file, std::vector<Finding> &out)
{
    const std::vector<Token> &toks = file.tokens;
    for (const BannedTokens &b : kBannedTokens) {
        bool allowed = false;
        for (const std::string &suffix : b.allowedIn)
            allowed = allowed || pathIs(file.path, suffix);
        if (allowed)
            continue;
        int lastLine = 0;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            for (const auto &pat : b.patterns) {
                std::size_t k = 0;
                while (k < pat.size() && i + k < toks.size() &&
                       is(toks[i + k], pat[k]))
                    ++k;
                if (k == pat.size() && toks[i].line != lastLine) {
                    lastLine = toks[i].line;
                    report(out, file, lastLine, b.rule, b.message);
                }
            }
        }
    }
}

void
checkSlotState(const LexedFile &file, std::vector<Finding> &out)
{
    if (pathIs(file.path, "core/slot.cc") ||
        pathIs(file.path, "core/slot.hh"))
        return;
    const std::vector<Token> &toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (is(toks[i], "state_") && is(toks[i + 1], "=") &&
            !is(toks[i + 2], "="))
            report(out, file, toks[i].line, "slot-state",
                   "slot state words may be mutated only via the FSM "
                   "transition API in core/slot.cc");
    }
}

/// Names declared `unordered_*<...> name` followed by ; = { or (.
std::set<std::string>
unorderedNames(const LexedFile &file)
{
    std::set<std::string> names;
    const std::vector<Token> &toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isAny(toks[i], {"unordered_map", "unordered_set",
                             "unordered_multimap",
                             "unordered_multiset"}) ||
            !is(toks[i + 1], "<"))
            continue;
        std::size_t k = i + 2;
        for (int depth = 1; k < toks.size(); ++k) {
            if (isAny(toks[k], {";", "{", "}", "(", ")"}))
                break;
            if (is(toks[k], "<"))
                ++depth;
            else if (is(toks[k], ">") && --depth == 0)
                break;
        }
        if (k + 2 < toks.size() && is(toks[k], ">") &&
            toks[k + 1].kind == TokKind::Ident &&
            isAny(toks[k + 2], {";", "=", "{", "("}))
            names.insert(toks[k + 1].text);
    }
    return names;
}

/// A name declared unordered in a file is visible there and in its
/// same-stem .hh/.cc partner, so a vector `slots_` in core/slot.hh
/// stays distinct from an unordered `slots_` in gsan.hh.
void
checkUnorderedIteration(const Program &prog, std::vector<Finding> &out)
{
    std::map<std::string, std::set<std::string>> declared;
    for (const LexedFile &file : prog.files)
        declared[file.path] = unorderedNames(file);
    for (const LexedFile &file : prog.files) {
        const std::string &p = file.path;
        const std::string stem = p.substr(0, p.rfind('.'));
        const std::string pair = stem + (p == stem + ".hh" ? ".cc" : ".hh");
        std::set<std::string> visible = declared[p];
        auto it = declared.find(pair);
        if (it != declared.end())
            visible.insert(it->second.begin(), it->second.end());
        if (visible.empty())
            continue;

        const std::vector<Token> &toks = file.tokens;
        auto flag = [&](int line, const std::string &name) {
            report(out, file, line, "unordered-iteration",
                   "iterating '" + name +
                       "' (std::unordered_*): order is "
                       "implementation-defined; use an ordered "
                       "container or sort first");
        };
        for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
            // name.begin( / name.cbegin(
            if (toks[i].kind == TokKind::Ident &&
                is(toks[i + 1], ".") &&
                isAny(toks[i + 2], {"begin", "cbegin"}) &&
                is(toks[i + 3], "(") && visible.count(toks[i].text) != 0)
                flag(toks[i].line, toks[i].text);
            // for (decl : [obj. | obj->]name)
            if (!is(toks[i], "for") || !is(toks[i + 1], "("))
                continue;
            std::size_t k = i + 2;
            while (k < toks.size() && !isAny(toks[k], {":", ";", "(", ")"}))
                ++k;
            if (k + 2 >= toks.size() || !is(toks[k], ":"))
                continue;
            std::size_t name = k + 1;
            if (k + 4 < toks.size() && isAny(toks[k + 2], {".", "->"}) &&
                toks[k + 1].kind == TokKind::Ident)
                name = k + 3;
            if (toks[name].kind == TokKind::Ident &&
                is(toks[name + 1], ")") &&
                visible.count(toks[name].text) != 0)
                flag(toks[i].line, toks[name].text);
        }
    }
}

/// Lambda introducers inside each co_await full-expression (up to the
/// first ; or , at the keyword's depth, or an enclosing close).
void
checkCoawaitLambdas(const LexedFile &file, std::vector<Finding> &out)
{
    const std::vector<Token> &toks = file.tokens;
    std::set<std::size_t> reported; // nested co_awaits share lambdas
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!is(toks[i], "co_await"))
            continue;
        int depth = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (isAny(t, {")", "]", "}"}) && --depth < 0)
                break;
            if (depth == 0 && isAny(t, {";", ","}))
                break;
            if (!isAny(t, {"(", "[", "{"}))
                continue;
            ++depth;
            // A '[' opens a lambda unless it subscripts what precedes.
            const Token &prev = toks[j - 1];
            if (!is(t, "[") ||
                (j - 1 != i && (prev.kind == TokKind::Ident ||
                                prev.kind == TokKind::Number ||
                                isAny(prev, {")", "]", ">"}))))
                continue;
            std::size_t close = j + 1;
            while (close < toks.size() &&
                   !isAny(toks[close], {"[", "]"}))
                ++close;
            if (close + 1 >= toks.size() || !is(toks[close], "]") ||
                !isAny(toks[close + 1], {"(", "{"}))
                continue;
            // Owning captures: anything but `&...` and `this`.
            std::string owning;
            int nest = 0;
            std::size_t start = j + 1;
            for (std::size_t k = j + 1; k <= close; ++k) {
                if (k < close && !(nest == 0 && is(toks[k], ","))) {
                    if (isAny(toks[k], {"<", "(", "[", "{"}))
                        ++nest;
                    else if (isAny(toks[k], {">", ")", "]", "}"}))
                        --nest;
                    continue;
                }
                const bool isOwning =
                    k > start && !is(toks[start], "&") &&
                    !(k == start + 1 && is(toks[start], "this"));
                if (isOwning)
                    owning += (owning.empty() ? "'" : ", '") +
                              toks[start].text + "'";
                start = k + 1;
            }
            if (!owning.empty() && reported.insert(j).second)
                report(out, file, t.line, "coawait-owning-lambda",
                       "lambda with owning capture(s) " + owning +
                           " inside a co_await full-expression is "
                           "double-destroyed by GCC 12's coroutine "
                           "lowering; hoist it into a named local and "
                           "std::move it");
        }
    }
}

// The single-word literals in classification.cc that name no sysno:
// the Table II census of unimplemented Linux syscalls plus its type
// tags ("filesystem", "network", ...), frozen when the rule became
// bidirectional. Any row added later must name a declared sysno;
// growing this set by hand is the escape hatch for a genuinely new
// census-only row.
const char *const kKnownCensusRows = R"(
    IPC _sysctl accept4 access acct add_key adjtimex alarm arch_prctl
    bpf brk capabilities capget capset chdir chmod chown clock_adjtime
    clock_getres clock_gettime clock_nanosleep clock_settime clone
    copy_file_range creat delete_module dup3 epoll_create1 epoll_pwait
    eventfd eventfd2 execve execveat exit exit_group faccessat
    fadvise64 fallocate fanotify_init fanotify_mark fchdir fchmod
    fchmodat fchown fchownat fcntl fdatasync fgetxattr filesystem
    finit_module flistxattr flock fork fremovexattr fsetxattr fstatfs
    fsync futex futimesat get_mempolicy get_robust_list getcpu getcwd
    getdents getdents64 getegid geteuid getgid getgroups getitimer
    getpeername getpgid getpgrp getppid getpriority getrandom
    getresgid getresuid getrlimit getsid getsockname getsockopt gettid
    gettimeofday getuid getxattr identity init_module
    inotify_add_watch inotify_init inotify_init1 inotify_rm_watch
    io_cancel io_destroy io_getevents io_setup io_submit ioperm iopl
    ioprio_get ioprio_set kcmp kexec_file_load kexec_load keyctl kill
    lchown lgetxattr link linkat listxattr llistxattr lookup_dcookie
    lremovexattr lsetxattr lstat mbind membarrier memfd_create
    migrate_pages mincore mkdir mkdirat mknod mknodat mlock mlock2
    mlockall modify_ldt mount move_pages mprotect mq_getsetattr
    mq_notify mq_open mq_timedreceive mq_timedsend mq_unlink mremap
    msgctl msgget msgrcv msgsnd msync munlock munlockall
    name_to_handle_at namespace network newfstatat nfsservctl
    open_by_handle_at openat pause perf_event_open personality pipe2
    pivot_root pkey_alloc pkey_free pkey_mprotect policies poll ppoll
    prctl preadv preadv2 prlimit64 process_vm_readv process_vm_writev
    pselect6 ptrace pwritev pwritev2 quotactl readahead readlink
    readlinkat readv reboot recvmmsg recvmsg remap_file_pages
    removexattr rename renameat renameat2 request_key restart_syscall
    rmdir rt_sigaction rt_sigpending rt_sigprocmask rt_sigreturn
    rt_sigsuspend rt_sigtimedwait rt_tgsigqueueinfo
    sched_get_priority_max sched_get_priority_min sched_getaffinity
    sched_getattr sched_getparam sched_getscheduler
    sched_rr_get_interval sched_setaffinity sched_setattr
    sched_setparam sched_setscheduler sched_yield seccomp select
    semctl semget semop semtimedop sendfile sendmmsg sendmsg
    set_mempolicy set_robust_list set_tid_address setdomainname
    setfsgid setfsuid setgid setgroups sethostname setitimer setns
    setpgid setpriority setregid setresgid setresuid setreuid
    setrlimit setsid setsockopt settimeofday setuid setxattr shmat
    shmctl shmdt shmget sigaltstack signalfd signalfd4 signals
    socketpair splice stat statfs statx swapoff swapon symlink
    symlinkat sync sync_file_range syncfs sysfs sysinfo syslog tee
    tgkill time timer_create timer_delete timer_getoverrun
    timer_gettime timer_settime timerfd_create timerfd_gettime
    timerfd_settime times tkill truncate umask umount2 uname unlinkat
    unshare userfaultfd ustat utime utimensat utimes vfork vhangup
    vmsplice wait4 waitid writev
)";

/// A string literal that is one non-empty word ([A-Za-z0-9_]+).
bool
isWordLiteral(const Token &t)
{
    if (t.kind != TokKind::String || t.text.empty())
        return false;
    for (char c : t.text) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_')
            return false;
    }
    return true;
}

void
checkSysnoClassified(const Program &prog, std::vector<Finding> &out)
{
    const LexedFile *syscalls = nullptr;
    const LexedFile *census = nullptr;
    for (const LexedFile &file : prog.files) {
        if (pathIs(file.path, "osk/syscalls.hh"))
            syscalls = &file;
        else if (pathIs(file.path, "osk/classification.cc"))
            census = &file;
    }
    if (syscalls == nullptr || census == nullptr)
        return;

    std::set<std::string> classified;
    for (const Token &t : census->tokens) {
        if (isWordLiteral(t))
            classified.insert(t.text);
    }
    // inline constexpr int NAME = NUMBER ;
    std::set<std::string> declared;
    const std::vector<Token> &toks = syscalls->tokens;
    for (std::size_t i = 0; i + 6 < toks.size(); ++i) {
        if (!is(toks[i], "inline") || !is(toks[i + 1], "constexpr") ||
            !is(toks[i + 2], "int") ||
            toks[i + 3].kind != TokKind::Ident ||
            !is(toks[i + 4], "=") ||
            toks[i + 5].kind != TokKind::Number ||
            !is(toks[i + 6], ";"))
            continue;
        const std::string &name = toks[i + 3].text;
        declared.insert(name);
        if (classified.count(name) == 0)
            report(out, *syscalls, toks[i].line, "sysno-classified",
                   "syscall 'sysno::" + name +
                       "' has no classification row; add its \"" +
                       name + "\" entry to osk/classification.cc");
    }

    static const std::set<std::string> knownCensus = [] {
        std::istringstream in(kKnownCensusRows);
        std::set<std::string> rows;
        for (std::string row; in >> row;)
            rows.insert(row);
        return rows;
    }();
    for (const Token &t : census->tokens) {
        if (isWordLiteral(t) && declared.count(t.text) == 0 &&
            knownCensus.count(t.text) == 0)
            report(out, *census, t.line, "sysno-classified",
                   "classification row '" + t.text +
                       "' names no declared sysno and is not in the "
                       "frozen census; a typo, a missing sysno:: "
                       "declaration in osk/syscalls.hh, or (for a new "
                       "census-only row) add it to kKnownCensusRows "
                       "or mark it 'gstat: allow(sysno-classified)'");
    }
}

} // namespace

std::vector<Finding>
runTokenRules(const Program &prog)
{
    std::vector<Finding> findings;
    for (const LexedFile &file : prog.files) {
        checkBannedTokens(file, findings);
        checkSlotState(file, findings);
        checkCoawaitLambdas(file, findings);
    }
    checkUnorderedIteration(prog, findings);
    checkSysnoClassified(prog, findings);
    return findings;
}

} // namespace genesys::analysis
