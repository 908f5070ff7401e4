/**
 * @file
 * perfbench measurement plumbing.
 */

#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(std::string_view s)
{
    for (const char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

Recorder::Recorder(bool enabled) : enabled_(enabled), origin_(Clock::now())
{}

double
Recorder::hostUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
}

void
Recorder::span(std::string name, std::string cat, std::uint32_t track,
               double host_start_us, double host_end_us,
               genesys::Tick sim_start, genesys::Tick sim_end,
               std::uint64_t id)
{
    if (!enabled_)
        return;
    spans_.push_back(Span{std::move(name), std::move(cat), track,
                          host_start_us, host_end_us, sim_start, sim_end,
                          id});
}

namespace
{

void
writeEvent(std::FILE *f, bool &first, const char *name, const char *cat,
           int pid, std::uint32_t tid, double ts_us, double dur_us,
           std::uint64_t id)
{
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu}}",
                 first ? "" : ",", name, cat, pid, tid, ts_us, dur_us,
                 static_cast<unsigned long long>(id));
    first = false;
}

} // namespace

bool
Recorder::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "[\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"args\":{\"name\":\"host clock\"}},\n"
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
                    "\"args\":{\"name\":\"simulated clock\"}}");
    bool first = false;
    for (const Span &s : spans_) {
        writeEvent(f, first, s.name.c_str(), s.cat.c_str(), 1, s.track,
                   s.hostStartUs, s.hostEndUs - s.hostStartUs, s.id);
        if (s.simEnd >= s.simStart) {
            writeEvent(f, first, s.name.c_str(), s.cat.c_str(), 2,
                       s.track, genesys::ticks::toUs(s.simStart),
                       genesys::ticks::toUs(s.simEnd - s.simStart), s.id);
        }
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
}

Phase::Phase(Recorder &rec, std::string name, genesys::Tick sim_start)
    : rec_(rec), name_(std::move(name)), start_(Clock::now()),
      startUs_(rec.enabled() ? rec.hostUs() : 0.0), simStart_(sim_start)
{}

double
Phase::finish(genesys::Tick sim_end)
{
    const double s = secondsSince(start_);
    if (rec_.enabled()) {
        rec_.span(name_, "phase", 0, startUs_, rec_.hostUs(), simStart_,
                  sim_end);
    }
    return s;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

/** Keeps the reference loop's result, so the compiler keeps the loop. */
volatile std::uint64_t referenceSink = 0;

} // namespace

double
referenceLoopS()
{
    struct Event
    {
        std::uint64_t when;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    const auto later = [](const Event &a, const Event &b) {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    };
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k;
        for (int i = 0; i < 64; ++i)
            k.push_back("link.gpu" + std::to_string(i) + ".bandwidth");
        return k;
    }();

    const auto t0 = Clock::now();
    std::unordered_map<std::string, std::uint64_t> table;
    for (const std::string &k : keys)
        table[k] = k.size();
    std::vector<Event> heap;
    std::uint64_t x = 7, acc = 0, seq = 0;
    auto push = [&](std::uint64_t when) {
        auto block = std::make_shared<std::array<std::uint64_t, 8>>();
        (*block)[0] = x;
        heap.push_back(Event{when, seq++, [&acc, block] {
                                 acc += (*block)[0] & 1;
                             }});
        std::push_heap(heap.begin(), heap.end(), later);
    };
    auto step = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x;
    };
    for (int i = 0; i < 2048; ++i)
        push(step() >> 44);
    for (int i = 0; i < 150000; ++i) {
        std::pop_heap(heap.begin(), heap.end(), later);
        Event ev = std::move(heap.back());
        heap.pop_back();
        ev.fn();
        acc += table[keys[(step() >> 50) & 63]];
        push(ev.when + ((x >> 40) & 1023));
    }
    referenceSink = acc;
    return secondsSince(t0);
}

double
currentRssMb()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0.0;
    unsigned long long size = 0, resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    return got == 2 ? static_cast<double>(resident) *
                          static_cast<double>(sysconf(_SC_PAGESIZE)) /
                          (1024.0 * 1024.0)
                    : 0.0;
}

void
RepResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (problem.empty())
            problem = what;
    }
}

} // namespace perfbench
