#include "osk/fault.hh"

#include <string>
#include <type_traits>

#include "osk/sysfs.hh"
#include "osk/vfs.hh"

namespace genesys::osk
{

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::None: return "none";
    case FaultKind::Errno: return "errno";
    case FaultKind::Eintr: return "eintr";
    case FaultKind::Eagain: return "eagain";
    case FaultKind::ShortTransfer: return "short_transfer";
    case FaultKind::DeviceDelay: return "device_delay";
    }
    return "?";
}

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
FaultInjector::draw(std::uint64_t stream, std::uint64_t index) const
{
    // One stateless mix per event: the decision for (stream, index)
    // never depends on how many other events interleaved with it.
    std::uint64_t h = splitmix64(config_.seed);
    h = splitmix64(h ^ stream);
    h = splitmix64(h ^ index);
    return h;
}

FaultDecision
FaultInjector::decide(int sysno, std::uint64_t transfer_bytes)
{
    const std::uint64_t nth = ++invocations_[sysno];

    if (!plan_.empty()) {
        auto it = plan_.find({sysno, nth});
        if (it != plan_.end()) {
            FaultDecision d = it->second;
            plan_.erase(it);
            if (d.kind == FaultKind::ShortTransfer &&
                transfer_bytes <= 1) {
                d.kind = FaultKind::None;
            }
            if (d.kind != FaultKind::None)
                count(d.kind);
            return d;
        }
    }

    // PIPE_BUF-style atomicity: random rolls never split a transfer
    // small enough that POSIX would complete it in one piece, so
    // concurrent writers cannot tear each other's records.
    const bool splittable = transfer_bytes > config_.atomicTransferBytes;
    const std::uint32_t eintr = config_.eintrPpm;
    const std::uint32_t eagain = config_.eagainPpm;
    const std::uint32_t shrt = splittable ? config_.shortPpm : 0;
    const std::uint32_t hard = config_.errnoPpm;
    if (eintr + eagain + shrt + hard == 0)
        return {};

    const std::uint64_t h =
        draw(0x5CA11 ^ static_cast<std::uint64_t>(sysno) << 20, nth);
    const std::uint64_t roll = h % 1'000'000;

    // The classes occupy stacked bands of the [0, 1e6) roll, so one
    // draw decides everything and raising one rate never reshuffles
    // which invocations the other classes hit... within a band.
    FaultDecision d;
    if (roll < eintr) {
        d.kind = FaultKind::Eintr;
    } else if (roll < eintr + eagain) {
        d.kind = FaultKind::Eagain;
    } else if (roll < eintr + eagain + shrt) {
        d.kind = FaultKind::ShortTransfer;
        // High hash bits (independent of the band roll) pick how much
        // of the transfer survives: 1..999 permille.
        d.keepPermille = static_cast<std::uint32_t>((h >> 40) % 999) + 1;
    } else if (roll < eintr + eagain + shrt + hard) {
        d.kind = FaultKind::Errno;
        d.err = config_.errnoValue;
    } else {
        return {};
    }
    count(d.kind);
    return d;
}

Tick
FaultInjector::deviceDelay()
{
    const std::uint64_t nth = ++deviceRequests_;
    if (config_.deviceDelayPpm == 0 || config_.deviceDelay == 0)
        return 0;
    const std::uint64_t roll = draw(0xB10CDE1A, nth) % 1'000'000;
    if (roll >= config_.deviceDelayPpm)
        return 0;
    count(FaultKind::DeviceDelay);
    return config_.deviceDelay;
}

void
FaultInjector::reset()
{
    plan_.clear();
    invocations_.clear();
    deviceRequests_ = 0;
    injected_ = 0;
    for (auto &n : injectedByKind_)
        n = 0;
}

void
FaultInjector::installSysfs(Vfs &vfs)
{
    auto knob = [&vfs, this](const char *name, auto FaultConfig::*field,
                             std::uint64_t lo, std::uint64_t hi) {
        using Field = std::remove_reference_t<decltype(config_.*field)>;
        installSysfsFile(
            vfs, std::string("/sys/genesys/fault/") + name,
            [this, field] {
                return static_cast<std::uint64_t>(config_.*field);
            },
            [this, field](std::uint64_t v) {
                config_.*field = static_cast<Field>(v);
                return true;
            },
            lo, hi);
    };
    knob("eintr_ppm", &FaultConfig::eintrPpm, 0, 1'000'000);
    knob("eagain_ppm", &FaultConfig::eagainPpm, 0, 1'000'000);
    knob("short_ppm", &FaultConfig::shortPpm, 0, 1'000'000);
    knob("errno_ppm", &FaultConfig::errnoPpm, 0, 1'000'000);
    knob("device_delay_ppm", &FaultConfig::deviceDelayPpm, 0, 1'000'000);
    knob("seed", &FaultConfig::seed, 0, UINT64_MAX);
    knob("errno_value", &FaultConfig::errnoValue, 1, 4095);
    knob("atomic_transfer_bytes", &FaultConfig::atomicTransferBytes, 0,
         UINT32_MAX);
    knob("device_delay_ns", &FaultConfig::deviceDelay, 0, UINT64_MAX);
    // Read-only observability: total faults fired so far.
    installSysfsFile(vfs, "/sys/genesys/fault/injected",
                     [this] { return injected_; });
}

} // namespace genesys::osk
