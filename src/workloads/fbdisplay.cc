/**
 * @file
 * Framebuffer display implementation.
 */

#include "fbdisplay.hh"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>

#include "osk/devices.hh"
#include "osk/file.hh"
#include "support/logging.hh"

namespace genesys::workloads
{

std::string
artifactPath(const std::string &name)
{
    const char *dir = std::getenv("GENESYS_OUT_DIR");
    std::filesystem::path out =
        (dir != nullptr && dir[0] != '\0') ? dir : "build/artifacts";
    std::error_code ec;
    std::filesystem::create_directories(out, ec); // best-effort
    return (out / name).string();
}

std::vector<std::uint8_t>
makeTestRaster(std::uint32_t width, std::uint32_t height)
{
    // Gradient with a centered circle: easy to eyeball in a PPM.
    std::vector<std::uint8_t> img(std::size_t(width) * height * 4);
    const double cx = width / 2.0, cy = height / 2.0;
    const double radius = std::min(width, height) / 3.0;
    for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t x = 0; x < width; ++x) {
            const std::size_t o = (std::size_t(y) * width + x) * 4;
            const double dx = x - cx, dy = y - cy;
            const bool inside = dx * dx + dy * dy < radius * radius;
            img[o + 0] = static_cast<std::uint8_t>(255.0 * x / width);
            img[o + 1] = static_cast<std::uint8_t>(255.0 * y / height);
            img[o + 2] = inside ? 255 : 64;
            img[o + 3] = 255;
        }
    }
    return img;
}

std::string
framebufferToPpm(std::span<const std::uint8_t> rgba,
                 std::uint32_t width, std::uint32_t height)
{
    std::string ppm =
        logging::format("P6\n%u %u\n255\n", width, height);
    ppm.reserve(ppm.size() + std::size_t(width) * height * 3);
    for (std::size_t p = 0; p < std::size_t(width) * height; ++p) {
        ppm.push_back(static_cast<char>(rgba[p * 4 + 0]));
        ppm.push_back(static_cast<char>(rgba[p * 4 + 1]));
        ppm.push_back(static_cast<char>(rgba[p * 4 + 2]));
    }
    return ppm;
}

FbDisplayResult
runFbDisplay(core::System &sys, const FbDisplayConfig &config)
{
    struct Shared
    {
        std::vector<std::uint8_t> raster;
        osk::FbVarScreenInfo var{};
        osk::FbFixScreenInfo fix{};
        std::int64_t fd = -1;
        std::int64_t fbAddr = 0;
        bool ioctlOk = true;
    };
    auto shared = std::make_shared<Shared>();
    shared->raster = makeTestRaster(config.width, config.height);

    const Tick start = sys.sim().now();
    const auto ioctls_before = sys.host().processedSyscalls();

    // Stage 1 (kernel granularity, one designated work-item): open,
    // query, set mode, fetch fixed info, mmap.
    gpu::KernelLaunch setup;
    setup.workItems = 64;
    setup.wgSize = 64;
    setup.program = [&sys, shared,
                     &config](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        core::Invocation kg;
        kg.granularity = core::Granularity::Kernel;
        kg.ordering = core::Ordering::Relaxed;

        shared->fd =
            co_await sys.gpuSys().open(ctx, kg, "/dev/fb0",
                                       osk::O_RDWR);
        if (shared->fd < 0) {
            shared->ioctlOk = false;
            co_return;
        }
        const int fd = static_cast<int>(shared->fd);
        if (co_await sys.gpuSys().ioctl(
                ctx, kg, fd, osk::FBIOGET_VSCREENINFO,
                &shared->var) != 0) {
            shared->ioctlOk = false;
        }
        shared->var.xres = shared->var.xresVirtual = config.width;
        shared->var.yres = shared->var.yresVirtual = config.height;
        shared->var.bitsPerPixel = 32;
        if (co_await sys.gpuSys().ioctl(
                ctx, kg, fd, osk::FBIOPUT_VSCREENINFO,
                &shared->var) != 0) {
            shared->ioctlOk = false;
        }
        if (co_await sys.gpuSys().ioctl(
                ctx, kg, fd, osk::FBIOGET_FSCREENINFO,
                &shared->fix) != 0) {
            shared->ioctlOk = false;
        }
        shared->fbAddr = co_await sys.gpuSys().mmap(
            ctx, kg, shared->fix.smemLen, fd);
        if (shared->fbAddr <= 0)
            shared->ioctlOk = false;
    };
    sys.launchGpuAndDrain(std::move(setup));
    sys.run();

    FbDisplayResult result;
    if (!shared->ioctlOk) {
        return result;
    }

    // Stage 2: work-groups copy raster rows through the mapping.
    const std::uint32_t groups =
        (config.height + config.rowsPerWorkGroup - 1) /
        config.rowsPerWorkGroup;
    gpu::KernelLaunch copy;
    copy.workItems = std::uint64_t(groups) * 256;
    copy.wgSize = 256;
    copy.program = [&sys, shared,
                    &config](gpu::WavefrontCtx &ctx) -> sim::Task<> {
        const std::uint32_t row_bytes = config.width * 4;
        const std::uint32_t first_row =
            ctx.workgroupId() * config.rowsPerWorkGroup;
        const std::uint32_t rows = std::min(
            config.rowsPerWorkGroup, config.height - first_row);
        if (ctx.isGroupLeader()) {
            std::uint8_t *fb = sys.process().mm().resolve(
                static_cast<osk::Addr>(shared->fbAddr) +
                    std::uint64_t(first_row) * row_bytes,
                std::uint64_t(rows) * row_bytes);
            GENESYS_ASSERT(fb != nullptr, "fb mapping lost");
            std::memcpy(fb,
                        shared->raster.data() +
                            std::size_t(first_row) * row_bytes,
                        std::size_t(rows) * row_bytes);
        }
        // Streaming copy cost across the group's work-items.
        co_await ctx.compute(std::uint64_t(rows) * row_bytes / 256);
        co_await ctx.wgBarrier();
        co_return;
    };
    sys.launchGpuAndDrain(std::move(copy));
    sys.run();

    // Stage 3: pan the display (shows the new frame).
    gpu::KernelLaunch pan;
    pan.workItems = 64;
    pan.wgSize = 64;
    pan.program = [&sys, shared](gpu::WavefrontCtx &ctx)
        -> sim::Task<> {
        core::Invocation kg;
        kg.granularity = core::Granularity::Kernel;
        kg.ordering = core::Ordering::Relaxed;
        co_await sys.gpuSys().ioctl(ctx, kg,
                                    static_cast<int>(shared->fd),
                                    osk::FBIOPAN_DISPLAY, nullptr);
    };
    sys.launchGpuAndDrain(std::move(pan));
    sys.run();

    result.elapsed = sys.sim().now() - start;
    result.width = sys.kernel().framebuffer().var().xres;
    result.height = sys.kernel().framebuffer().var().yres;
    result.ioctls = sys.host().processedSyscalls() - ioctls_before;

    // Verify every pixel.
    const auto pixels = sys.kernel().framebuffer().pixels();
    std::uint64_t errors = 0;
    if (pixels.size() != shared->raster.size()) {
        errors = shared->raster.size();
    } else {
        for (std::size_t i = 0; i < pixels.size(); ++i)
            errors += (pixels[i] != shared->raster[i]);
    }
    result.pixelErrors = errors;
    result.ok = errors == 0 && result.width == config.width &&
                result.height == config.height &&
                sys.kernel().framebuffer().panCount() > 0;
    return result;
}

} // namespace genesys::workloads
