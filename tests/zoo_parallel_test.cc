// ModelZoo::TrainedDomain trains a domain's cache misses concurrently on the
// global pool. These tests pin what that must not change: the weights equal
// a serial per-model train byte for byte, a warm cache trains nothing, a
// failing build surfaces, and an unreadable cache blob is retrained.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/constraints/constraint.h"
#include "src/core/domain.h"
#include "src/models/zoo.h"
#include "src/nn/dense.h"
#include "src/nn/softmax_layer.h"
#include "src/util/cache.h"
#include "src/util/rng.h"

namespace dx {
namespace {

// Process-private cache directory, set before anything touches
// FileCache::Global() (which reads DEEPXPLORE_CACHE_DIR once).
const std::string& CacheDir() {
  static const std::string dir = [] {
    std::string d = ::testing::TempDir() + "/dx_zoo_parallel_cache_" +
                    std::to_string(::getpid());
    setenv("DEEPXPLORE_CACHE_DIR", d.c_str(), 1);
    return d;
  }();
  return dir;
}
const bool kCacheDirSet = !CacheDir().empty();

void ClearCache() { std::filesystem::remove_all(CacheDir()); }

// Model builds per test domain; a training starts with exactly one build.
std::atomic<int> g_builds{0};

constexpr const char* kDomain = "zoo_parallel_test";
constexpr const char* kFailingDomain = "zoo_parallel_test_failing";

// Two Gaussian blobs in 4-D, labelled by which one a point came from.
Dataset MakeBlobs(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.name = "blobs";
  data.input_shape = {4};
  data.num_classes = 2;
  for (int i = 0; i < n; ++i) {
    const int label = i % 2;
    Tensor x({4});
    for (int k = 0; k < 4; ++k) {
      x[k] = static_cast<float>(rng.Normal()) + (label == 0 ? -1.0f : 1.0f);
    }
    data.Add(std::move(x), static_cast<float>(label));
  }
  return data;
}

DomainModelSpec Mlp(const std::string& name, int hidden, bool fails) {
  DomainModelSpec model;
  model.name = name;
  model.arch = "dense-" + std::to_string(hidden);
  model.paper_arch = "test-only";
  model.build = [name, hidden, fails](uint64_t seed) {
    ++g_builds;
    if (fails) {
      throw std::runtime_error("build of " + name + " failed");
    }
    Rng rng(seed);
    Model m(name, {4});
    m.Emplace<Dense>(4, hidden, Activation::kRelu).InitParams(rng);
    m.Emplace<Dense>(hidden, 2).InitParams(rng);
    m.Emplace<SoftmaxLayer>();
    return m;
  };
  return model;
}

void RegisterTestDomains() {
  static const bool once = [] {
    for (const bool failing : {false, true}) {
      DomainSpec spec;
      spec.key = failing ? kFailingDomain : kDomain;
      spec.make_dataset = MakeBlobs;
      spec.training = {96, 32, 2, 1e-2f, 9090, /*fast_train=*/1, /*fast_test=*/1};
      const std::string prefix = failing ? "ZPF_C" : "ZPT_C";
      for (int m = 0; m < 3; ++m) {
        spec.models.push_back(Mlp(prefix + std::to_string(m + 1), 6 + 4 * m,
                                  /*fails=*/failing && m == 1));
      }
      spec.constraints = {{"none", [] { return std::make_unique<UnconstrainedImage>(); }}};
      spec.default_constraint = "none";
      RegisterDomain(std::move(spec));
    }
    return true;
  }();
  (void)once;
}

std::vector<std::string> Blobs(const std::vector<Model>& models) {
  std::vector<std::string> blobs;
  for (const Model& m : models) {
    blobs.push_back(m.Serialize());
  }
  return blobs;
}

// Each model trained alone, on the calling thread, from an empty cache.
std::vector<std::string> SerialCleanTrain() {
  ClearCache();
  std::vector<std::string> blobs;
  for (const std::string& name : DomainModelNames(kDomain)) {
    blobs.push_back(ModelZoo::Trained(name).Serialize());
  }
  return blobs;
}

class ZooParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(kCacheDirSet);
    RegisterTestDomains();
  }
  void TearDown() override { ClearCache(); }
};

TEST_F(ZooParallelTest, ColdCacheTrioMatchesSerialTrainsAndWarmCacheTrainsNothing) {
  const std::vector<std::string> serial = SerialCleanTrain();

  ClearCache();
  g_builds = 0;
  const std::vector<Model> cold = ModelZoo::TrainedDomain(kDomain);
  EXPECT_EQ(g_builds.load(), 3);
  ASSERT_EQ(cold.size(), 3u);
  const std::vector<std::string> names = DomainModelNames(kDomain);
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].name(), names[i]) << "domain order";
  }
  EXPECT_EQ(Blobs(cold), serial);

  g_builds = 0;
  const std::vector<Model> warm = ModelZoo::TrainedDomain(kDomain);
  EXPECT_EQ(g_builds.load(), 0) << "an all-hit load trained";
  EXPECT_EQ(Blobs(warm), serial);
}

TEST_F(ZooParallelTest, PartialCacheTrainsOnlyTheMisses) {
  const std::vector<std::string> serial = SerialCleanTrain();
  const std::vector<std::string> names = DomainModelNames(kDomain);
  // An unreadable entry is a miss: empty the middle model's blob.
  FileCache::Global().Put(ModelZoo::CacheKey(names[1]), "");
  g_builds = 0;
  EXPECT_EQ(Blobs(ModelZoo::TrainedDomain(kDomain)), serial);
  EXPECT_EQ(g_builds.load(), 1);
}

TEST_F(ZooParallelTest, BuilderExceptionPropagates) {
  ClearCache();
  EXPECT_THROW(ModelZoo::TrainedDomain(kFailingDomain), std::runtime_error);
}

TEST_F(ZooParallelTest, CorruptCacheBlobIsRetrainedAndOverwritten) {
  const std::vector<std::string> serial = SerialCleanTrain();
  const std::vector<std::string> names = DomainModelNames(kDomain);
  const std::string key = ModelZoo::CacheKey(names[0]);
  const std::string truncated = serial[0].substr(0, serial[0].size() / 2);
  for (const std::string& bad : {std::string("garbage"), truncated}) {
    FileCache::Global().Put(key, bad);
    g_builds = 0;
    EXPECT_EQ(ModelZoo::Trained(names[0]).Serialize(), serial[0]);
    EXPECT_EQ(g_builds.load(), 1);
    EXPECT_EQ(FileCache::Global().Get(key).value_or(""), serial[0])
        << "corrupt blob not overwritten";
  }
}

}  // namespace
}  // namespace dx
