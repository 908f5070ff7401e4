/**
 * @file
 * sysfs attribute files.
 */

#include "sysfs.hh"

#include <cctype>
#include <cstring>

#include "support/logging.hh"

namespace genesys::osk
{

namespace
{

class SysfsFile : public CharDevice
{
  public:
    SysfsFile(SysfsReader read, SysfsWriter write, std::uint64_t lo,
              std::uint64_t hi)
        : read_(std::move(read)), write_(std::move(write)), lo_(lo),
          hi_(hi)
    {}

    std::uint64_t
    read(std::uint64_t offset, void *dst, std::uint64_t len) override;

    /** Parses a decimal integer; @return 0 bytes on parse/set error. */
    std::uint64_t
    write(std::uint64_t offset, const void *src,
          std::uint64_t len) override;

  private:
    SysfsReader read_;
    SysfsWriter write_;
    std::uint64_t lo_;
    std::uint64_t hi_;
};

std::uint64_t
SysfsFile::read(std::uint64_t offset, void *dst, std::uint64_t len)
{
    const std::string content =
        logging::format("%llu\n",
                        static_cast<unsigned long long>(read_()));
    if (offset >= content.size())
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(len, content.size() - offset);
    if (dst != nullptr)
        std::memcpy(dst, content.data() + offset, n);
    return n;
}

std::uint64_t
SysfsFile::write(std::uint64_t, const void *src, std::uint64_t len)
{
    if (!write_ || src == nullptr || len == 0)
        return 0;
    const auto *text = static_cast<const char *>(src);
    std::uint64_t value = 0;
    bool any = false;
    for (std::uint64_t i = 0; i < len; ++i) {
        const char c = text[i];
        if (c == '\n' || c == '\0')
            break;
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return 0; // reject non-numeric writes
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return 0; // reject values that do not fit in 64 bits
        value = value * 10 + digit;
        any = true;
    }
    if (!any || value < lo_ || value > hi_ || !write_(value))
        return 0;
    return len;
}

} // namespace

void
installSysfsFile(Vfs &vfs, const std::string &path, SysfsReader read,
                 SysfsWriter write, std::uint64_t lo, std::uint64_t hi)
{
    vfs.install(path, std::make_shared<SysfsFile>(
                          std::move(read), std::move(write), lo, hi));
}

} // namespace genesys::osk
