/**
 * @file
 * Device implementations.
 */

#include "devices.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "osk/mm.hh"
#include "support/logging.hh"

namespace genesys::osk
{

// --------------------------------------------------------- TerminalDevice

std::uint64_t
TerminalDevice::write(std::uint64_t, const void *src, std::uint64_t len)
{
    transcript_.append(static_cast<const char *>(src), len);
    return len;
}

std::uint64_t
TerminalDevice::read(std::uint64_t, void *dst, std::uint64_t len)
{
    if (inputPos_ >= input_.size())
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(len, input_.size() - inputPos_);
    std::memcpy(dst, input_.data() + inputPos_, n);
    inputPos_ += n;
    return n;
}

// ------------------------------------------------------ FramebufferDevice

namespace
{

/** Bytes per scanline, in 64 bits so no GPU-chosen width can wrap. */
std::uint64_t
lineBytes(const FbVarScreenInfo &var)
{
    return std::uint64_t(var.xresVirtual) * (var.bitsPerPixel / 8);
}

/** Whole pages, so any page of a device mapping lands in the store. */
std::uint64_t
pageRounded(std::uint64_t bytes)
{
    return (bytes + kPageSize - 1) / kPageSize * kPageSize;
}

} // namespace

FramebufferDevice::FramebufferDevice(std::uint32_t xres,
                                     std::uint32_t yres,
                                     std::uint32_t bits_per_pixel)
{
    var_.xres = var_.xresVirtual = xres;
    var_.yres = var_.yresVirtual = yres;
    var_.bitsPerPixel = bits_per_pixel;
    vramBytes_ = modeBytes_ = lineBytes(var_) * yres;
}

std::uint8_t *
FramebufferDevice::store()
{
    if (!vram_) {
        // calloc maps fresh zero pages for a block this size, so only
        // the pages the current mode touches ever become resident.
        vram_.reset(static_cast<std::uint8_t *>(
            std::calloc(pageRounded(vramBytes_), 1)));
        GENESYS_ASSERT(vram_ != nullptr, "framebuffer video memory");
    }
    return vram_.get();
}

std::uint64_t
FramebufferDevice::allocatedBytes() const
{
    return vram_ ? pageRounded(vramBytes_) : 0;
}

std::int64_t
FramebufferDevice::ioctl(std::uint64_t request, void *argp)
{
    switch (request) {
      case FBIOGET_VSCREENINFO: {
        if (argp == nullptr)
            return -EFAULT;
        *static_cast<FbVarScreenInfo *>(argp) = var_;
        return 0;
      }
      case FBIOPUT_VSCREENINFO: {
        if (argp == nullptr)
            return -EFAULT;
        FbVarScreenInfo req = *static_cast<const FbVarScreenInfo *>(argp);
        if (req.bitsPerPixel != 16 && req.bitsPerPixel != 32)
            return -EINVAL;
        if (req.xres == 0 || req.yres == 0)
            return -EINVAL;
        req.xresVirtual = std::max(req.xres, req.xresVirtual);
        req.yresVirtual = std::max(req.yres, req.yresVirtual);
        // vfb_check_var: the mode must fit the fixed video memory.
        // Compared by division, as line * yres can pass 2^64.
        if (lineBytes(req) > vramBytes_ / req.yresVirtual)
            return -ENOMEM;
        var_ = req;
        modeBytes_ = lineBytes(var_) * var_.yresVirtual;
        if (vram_)
            std::memset(vram_.get(), 0, modeBytes_);
        return 0;
      }
      case FBIOGET_FSCREENINFO: {
        if (argp == nullptr)
            return -EFAULT;
        auto &fix = *static_cast<FbFixScreenInfo *>(argp);
        fix.smemLen = modeBytes_;
        fix.lineLength = static_cast<std::uint32_t>(lineBytes(var_));
        return 0;
      }
      case FBIOPAN_DISPLAY: {
        ++panCount_;
        return 0;
      }
      default:
        return -ENOTTY;
    }
}

std::uint8_t *
FramebufferDevice::mmapMemory(std::uint64_t &length)
{
    length = modeBytes_;
    return store();
}

std::uint64_t
FramebufferDevice::write(std::uint64_t offset, const void *src,
                         std::uint64_t len)
{
    if (offset >= modeBytes_)
        return 0;
    const std::uint64_t n = std::min(len, modeBytes_ - offset);
    std::memcpy(store() + offset, src, n);
    return n;
}

std::uint64_t
FramebufferDevice::read(std::uint64_t offset, void *dst,
                        std::uint64_t len)
{
    if (offset >= modeBytes_)
        return 0;
    const std::uint64_t n = std::min(len, modeBytes_ - offset);
    std::memcpy(dst, store() + offset, n);
    return n;
}

} // namespace genesys::osk
