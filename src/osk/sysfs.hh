/**
 * @file
 * sysfs-style attribute files: every /sys/genesys file is made here.
 *
 * Section VI: "GENESYS uses Linux's sysfs interface to communicate
 * coalescing parameters." A sysfs file is a character device whose
 * read() renders an integer attribute and whose write() parses one —
 * the standard /sys/<subsystem>/<attr> contract. The attributes
 * themselves are declared in one table per owner: core/system.cc for
 * the GENESYS, gsan, net, shard, ring and workqueue counters and knobs,
 * osk/fault.cc for the fault-injection knobs.
 */

#ifndef GENESYS_OSK_SYSFS_HH
#define GENESYS_OSK_SYSFS_HH

#include <cstdint>
#include <functional>
#include <string>

#include "osk/vfs.hh"

namespace genesys::osk
{

using SysfsReader = std::function<std::uint64_t()>;
/** Applies a write already inside the knob's range; false refuses it. */
using SysfsWriter = std::function<bool(std::uint64_t)>;

/**
 * Install an attribute file at @p path. Without @p write the file is
 * read-only. With it the file is a knob: a write of one decimal
 * integer in [@p lo, @p hi] reaches @p write. Anything else — no
 * digits, a non-digit, a value that overflows 64 bits, a value out of
 * range, a refused value — writes 0 bytes and leaves the knob as it
 * was.
 */
void installSysfsFile(Vfs &vfs, const std::string &path,
                      SysfsReader read, SysfsWriter write = nullptr,
                      std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX);

} // namespace genesys::osk

#endif // GENESYS_OSK_SYSFS_HH
