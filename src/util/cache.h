// Content-addressed file cache for trained model weights.
//
// Training the 15-model zoo from scratch takes tens of seconds; tests and the
// 16 bench binaries share trained weights through this cache so each model is
// trained exactly once per machine. Keys are caller-provided strings hashed
// with FNV-1a; values are opaque byte blobs.
#ifndef DX_SRC_UTIL_CACHE_H_
#define DX_SRC_UTIL_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>

namespace dx {

// 64-bit FNV-1a. Stable across platforms; used for cache keys only.
uint64_t Fnv1a64(const std::string& data);

class FileCache {
 public:
  // Directory from DEEPXPLORE_CACHE_DIR, default /tmp/deepxplore_model_cache.
  // The directory is created on demand.
  static FileCache& Global();

  explicit FileCache(std::string dir);

  // Returns the blob for `key` if present.
  std::optional<std::string> Get(const std::string& key) const;

  // Stores `blob` under `key` (atomic rename within the cache dir). Safe to
  // call concurrently, also for one key: the last rename wins whole.
  void Put(const std::string& key, const std::string& blob) const;

  const std::string& dir() const { return dir_; }

 private:
  std::string PathFor(const std::string& key) const;

  std::string dir_;
};

}  // namespace dx

#endif  // DX_SRC_UTIL_CACHE_H_
