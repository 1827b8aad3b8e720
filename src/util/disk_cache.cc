#include "util/disk_cache.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>

#include <unistd.h>

namespace ulpeak {
namespace util {

namespace fs = std::filesystem;

void
DiskCache::open() const
{
    if (!enabled())
        return;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) // also when dir_ exists but is not a directory
        throw DiskCacheError(dir_ + ": " + ec.message());
}

fs::path
DiskCache::path(uint64_t key) const
{
    char name[24];
    std::snprintf(name, sizeof name, "%016" PRIx64 ".txt", key);
    return fs::path(dir_) / (prefix_ + name);
}

bool
DiskCache::load(uint64_t key,
                const std::function<bool(std::istream &)> &body) const
{
    if (!enabled())
        return false;
    std::ifstream in(path(key));
    std::string magic;
    if (!in || !std::getline(in, magic) || magic != magic_)
        return false;
    return body(in);
}

void
DiskCache::store(uint64_t key,
                 const std::function<void(std::ostream &)> &body) const
{
    if (!enabled())
        return;
    fs::path entry = path(key);
    // The pid keeps forked processes apart (they share thread ids);
    // the thread id keeps the workers of one process apart.
    fs::path tmp = entry;
    tmp += ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(
               std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::ofstream out(tmp);
    if (!out)
        return; // best-effort: the caller's result stands
    out << magic_ << "\n";
    body(out);
    out.close();
    std::error_code ec;
    if (out)
        fs::rename(tmp, entry, ec);
    if (!out || ec)
        fs::remove(tmp, ec);
}

} // namespace util
} // namespace ulpeak
