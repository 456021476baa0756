#include "src/util/cache.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/util/logging.h"

namespace dx {

uint64_t Fnv1a64(const std::string& data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

FileCache& FileCache::Global() {
  static FileCache* cache = [] {
    const char* env = std::getenv("DEEPXPLORE_CACHE_DIR");
    return new FileCache(env != nullptr ? env : "/tmp/deepxplore_model_cache");
  }();
  return *cache;
}

FileCache::FileCache(std::string dir) : dir_(std::move(dir)) {}

std::string FileCache::PathFor(const std::string& key) const {
  std::ostringstream name;
  name << std::hex << Fnv1a64(key) << ".bin";
  return dir_ + "/" + name.str();
}

std::optional<std::string> FileCache::Get(const std::string& key) const {
  std::ifstream in(PathFor(key), std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void FileCache::Put(const std::string& key, const std::string& blob) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    DX_LOG(Warn) << "cannot create cache dir " << dir_ << ": " << ec.message();
    return;
  }
  const std::string final_path = PathFor(key);
  // Unique per call, not just per process: threads storing the same key
  // concurrently must not interleave into one temp file.
  static std::atomic<uint64_t> put_counter{0};
  const std::string tmp_path = final_path + ".tmp." + std::to_string(::getpid()) + "." +
                               std::to_string(put_counter.fetch_add(1));
  {
    std::ofstream out(tmp_path, std::ios::binary);
    if (!out) {
      DX_LOG(Warn) << "cannot write cache entry " << tmp_path;
      return;
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    DX_LOG(Warn) << "cache rename failed: " << ec.message();
    std::filesystem::remove(tmp_path, ec);
  }
}

}  // namespace dx
