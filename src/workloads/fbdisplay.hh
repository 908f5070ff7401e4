/**
 * @file
 * Framebuffer display demo (paper Section VIII-E, Figure 16).
 *
 * The GPU opens /dev/fb0, queries and sets the video mode with fbdev
 * ioctls, mmaps the framebuffer, copies a raster image into it with
 * its work-groups, and pans the display — the whole device-control
 * path (open + ioctl + mmap) driven from GPU code. A PPM dump of the
 * resulting framebuffer provides the visual check.
 */

#ifndef GENESYS_WORKLOADS_FBDISPLAY_HH
#define GENESYS_WORKLOADS_FBDISPLAY_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/system.hh"

namespace genesys::workloads
{

struct FbDisplayConfig
{
    std::uint32_t width = 640;
    std::uint32_t height = 480;
    std::uint32_t rowsPerWorkGroup = 16;
};

struct FbDisplayResult
{
    bool ok = false;
    Tick elapsed = 0;
    std::uint32_t width = 0;
    std::uint32_t height = 0;
    std::uint64_t ioctls = 0;
    std::uint64_t pixelErrors = 0;
};

/** Deterministic RGBA test raster ("previously mmaped raster image"). */
std::vector<std::uint8_t> makeTestRaster(std::uint32_t width,
                                         std::uint32_t height);

FbDisplayResult runFbDisplay(core::System &sys,
                             const FbDisplayConfig &config);

/** Render an RGBA framebuffer as a binary PPM (P6) string. */
std::string framebufferToPpm(std::span<const std::uint8_t> rgba,
                             std::uint32_t width, std::uint32_t height);

/**
 * Resolve where a host-side output artifact (PPM dumps etc.) should be
 * written: `$GENESYS_OUT_DIR/<name>`, defaulting to build/artifacts/
 * so generated images never land in the source tree. The directory is
 * created if missing.
 */
std::string artifactPath(const std::string &name);

} // namespace genesys::workloads

#endif // GENESYS_WORKLOADS_FBDISPLAY_HH
