/**
 * @file
 * gmc footprint probe implementation.
 */

#include "gmc_probe.hh"

#include <algorithm>

#include "support/logging.hh"

namespace genesys::gmc
{

using logging::format;

std::vector<ProbeKey>
Probe::drain()
{
    std::vector<ProbeKey> out = std::move(buf_);
    buf_.clear();
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::string
Probe::describe(ProbeKey key)
{
    const auto kind = static_cast<ProbeKind>(key >> 56);
    const std::uint64_t id = key & 0x00FF'FFFF'FFFF'FFFFull;
    const char *name = "?";
    switch (kind) {
      case ProbeKind::Slot:
        name = "slot";
        break;
      case ProbeKind::Doorbell:
        name = "doorbell";
        break;
      case ProbeKind::Worker:
        name = "worker";
        break;
      case ProbeKind::Wave:
        name = "wave";
        break;
      case ProbeKind::Core:
        name = "core";
        break;
      case ProbeKind::Ring:
        name = "ring";
        break;
    }
    return format("%s:%llu", name, static_cast<unsigned long long>(id));
}

} // namespace genesys::gmc
