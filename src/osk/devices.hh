/**
 * @file
 * Character devices: terminal, /dev/null, and the framebuffer.
 *
 * The framebuffer device implements the subset of the Linux fbdev ioctl
 * interface the paper's bmp-display case study uses (Section VIII-E):
 * FBIOGET_VSCREENINFO / FBIOPUT_VSCREENINFO to query and set the mode,
 * and mmap of the pixel memory for the raster copy (Figure 16).
 *
 * Like Linux's vfb, the device owns a fixed video memory, sized by its
 * construction geometry: a mode that needs more is refused with -ENOMEM
 * (vfb_check_var), and a mode change never moves the memory, so an
 * existing mapping stays valid. The memory is allocated, zeroed, the
 * first time it is mapped, read, written or inspected, so a System that
 * never opens /dev/fb0 holds none of it.
 */

#ifndef GENESYS_OSK_DEVICES_HH
#define GENESYS_OSK_DEVICES_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>

#include "osk/vfs.hh"

namespace genesys::osk
{

/** Console: write() appends to a captured transcript. */
class TerminalDevice : public CharDevice
{
  public:
    std::uint64_t
    write(std::uint64_t offset, const void *src,
          std::uint64_t len) override;

    std::uint64_t
    read(std::uint64_t offset, void *dst, std::uint64_t len) override;

    /** Everything written so far (what the user would see). */
    const std::string &transcript() const { return transcript_; }
    void clearTranscript() { transcript_.clear(); }

    /** Pre-load data to be returned by read() (stdin redirection). */
    void setInput(std::string input) { input_ = std::move(input); }

  private:
    std::string transcript_;
    std::string input_;
    std::uint64_t inputPos_ = 0;
};

/** Bit bucket. */
class NullDevice : public CharDevice
{
  public:
    std::uint64_t
    read(std::uint64_t, void *, std::uint64_t) override
    {
        return 0; // EOF
    }
};

// --- Linux fbdev ABI subset -------------------------------------------

inline constexpr std::uint64_t FBIOGET_VSCREENINFO = 0x4600;
inline constexpr std::uint64_t FBIOPUT_VSCREENINFO = 0x4601;
inline constexpr std::uint64_t FBIOGET_FSCREENINFO = 0x4602;
inline constexpr std::uint64_t FBIOPAN_DISPLAY = 0x4606;

struct FbVarScreenInfo
{
    std::uint32_t xres = 0;
    std::uint32_t yres = 0;
    std::uint32_t xresVirtual = 0;
    std::uint32_t yresVirtual = 0;
    std::uint32_t xoffset = 0;
    std::uint32_t yoffset = 0;
    std::uint32_t bitsPerPixel = 0;
};

struct FbFixScreenInfo
{
    std::uint64_t smemLen = 0;  ///< framebuffer size in bytes
    std::uint32_t lineLength = 0; ///< bytes per scanline
};

/** Framebuffer with real pixel memory (RGBA8888 or RGB565). */
class FramebufferDevice : public CharDevice
{
  public:
    FramebufferDevice(std::uint32_t xres, std::uint32_t yres,
                      std::uint32_t bits_per_pixel);

    std::int64_t ioctl(std::uint64_t request, void *argp) override;

    std::uint8_t *mmapMemory(std::uint64_t &length) override;

    std::uint64_t
    write(std::uint64_t offset, const void *src,
          std::uint64_t len) override;

    std::uint64_t
    read(std::uint64_t offset, void *dst, std::uint64_t len) override;

    /** Bytes of the current mode (what smemLen reports). */
    std::uint64_t size() const override { return modeBytes_; }

    const FbVarScreenInfo &var() const { return var_; }
    /** The current mode's pixel bytes (allocates the video memory). */
    std::span<const std::uint8_t> pixels()
    {
        return {store(), modeBytes_};
    }
    std::uint32_t panCount() const { return panCount_; }
    /** Host bytes allocated for pixels: 0 until the device is touched. */
    std::uint64_t allocatedBytes() const;

  private:
    struct FreeBytes
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    /** The video memory, allocated zeroed on first use; never moves. */
    std::uint8_t *store();

    FbVarScreenInfo var_;
    std::uint64_t vramBytes_ = 0; ///< fixed video memory size
    std::uint64_t modeBytes_ = 0; ///< lineLength * yresVirtual
    std::unique_ptr<std::uint8_t, FreeBytes> vram_;
    std::uint32_t panCount_ = 0;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_DEVICES_HH
