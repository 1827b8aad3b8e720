/**
 * @file
 * The on-disk result cache of `peak::analyzeBatch` and
 * `fault::runCampaign`: one text file per 64-bit content key, named
 * `<dir>/<prefix><key as 16 hex digits>.txt`, whose first line is a
 * format-version magic line. Callers own only their body formats.
 *
 * Threads and processes may share a directory: a store writes a temp
 * file unique to its process and thread, then renames it into place,
 * so a reader sees the old entry or a complete new one. Stores are
 * best-effort: a failed write leaves no entry, never a torn one.
 */

#ifndef ULPEAK_UTIL_DISK_CACHE_HH
#define ULPEAK_UTIL_DISK_CACHE_HH

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>

namespace ulpeak {
namespace util {

/** An unusable cache directory; what() is "DIR: reason". */
struct DiskCacheError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

class DiskCache {
  public:
    /** @p dir "" disables the cache: no hits, no writes. */
    DiskCache(std::string dir, std::string prefix, std::string magic)
        : dir_(std::move(dir)), prefix_(std::move(prefix)),
          magic_(std::move(magic)) {}

    bool enabled() const { return !dir_.empty(); }

    /** Create the directory if needed; throws DiskCacheError when it
     *  cannot be created or is not a directory. */
    void open() const;

    /** True when entry @p key exists, starts with the magic line, and
     *  @p body accepts the rest. */
    bool load(uint64_t key,
              const std::function<bool(std::istream &)> &body) const;

    /** Publish entry @p key: the magic line, then what @p body writes. */
    void store(uint64_t key,
               const std::function<void(std::ostream &)> &body) const;

    /** The file of entry @p key. */
    std::filesystem::path path(uint64_t key) const;

  private:
    std::string dir_, prefix_, magic_;
};

} // namespace util
} // namespace ulpeak

#endif // ULPEAK_UTIL_DISK_CACHE_HH
