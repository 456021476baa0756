// The model zoo: trained models and shared datasets for every registered
// domain (src/core/domain.h), with a per-machine disk cache.
//
// The five paper domains of Table 1 are built-in DomainSpecs (registered by
// this translation unit):
//
//   mnist      MNI_C1..C3  LeNet-1 / LeNet-4 / LeNet-5
//   imagenet   IMG_C1..C3  MiniVGG16 / MiniVGG19 / MiniResNet (scaled-down)
//   driving    DRV_C1..C3  DAVE-orig / DAVE-norminit / DAVE-dropout
//   pdf        PDF_C1..C3  <200,200> / <200,200,200> / <200,200,200,200>
//   drebin     APP_C1..C3  <200,200> / <50,50> / <200,10>
//
// Out-of-paper domains (src/domains/) and out-of-tree RegisterDomain calls
// appear here automatically: ModelZoo is a thin cache keyed by DomainSpec —
// it never enumerates domains itself.
//
// Trained models are cached on disk (see util/cache.h) keyed by architecture,
// dataset configuration, and seed, so the zoo trains once per machine.
// DEEPXPLORE_FAST=1 shrinks dataset sizes for quick test runs.
#ifndef DX_SRC_MODELS_ZOO_H_
#define DX_SRC_MODELS_ZOO_H_

#include <string>
#include <vector>

#include "src/data/dataset.h"
#include "src/nn/model.h"

namespace dx {

// DEPRECATED alias layer: the closed enum the registry replaced. It still
// names the five paper domains so pre-registry call sites (examples/,
// bench/table*.cc) compile unchanged; new code should use registry keys
// ("mnist", ...) and src/core/domain.h directly.
enum class Domain : int { kMnist = 0, kImageNet = 1, kDriving = 2, kPdf = 3, kDrebin = 4 };

// The paper domains only — the registry may hold more (DomainKeys()).
inline constexpr int kNumDomains = 5;

// Registry key of a legacy enum value ("mnist", "imagenet", "driving",
// "pdf", "drebin").
const std::string& DomainKey(Domain domain);

// Paper-style dataset label: "MNIST", "ImageNet", "Driving", "VirusTotal",
// "Drebin" for the enum; any registered domain's display name by key.
const std::string& DomainName(Domain domain);
const std::string& DomainName(const std::string& domain_key);

// The five paper domains, Table 1 order (deprecated; registry holds more).
std::vector<Domain> AllDomains();

struct ModelInfo {
  std::string name;        // e.g. "MNI_C1"
  std::string domain;      // registry key, e.g. "mnist"
  std::string arch;        // e.g. "LeNet-1"
  std::string paper_arch;  // what the paper used, e.g. "LeNet-1, LeCun et al."
};

// Every registered domain's zoo entries (registry key order; the paper's 15
// models plus any registered out-of-paper domains).
std::vector<ModelInfo> ZooModels();
// The model names of one domain.
std::vector<std::string> DomainModelNames(const std::string& domain_key);
std::vector<std::string> DomainModelNames(Domain domain);
// Info lookup across all registered domains; throws std::out_of_range for
// unknown names.
ModelInfo FindModel(const std::string& name);

class ModelZoo {
 public:
  // Deterministic shared datasets (generated once per process per domain).
  static const Dataset& TrainSet(const std::string& domain_key);
  static const Dataset& TestSet(const std::string& domain_key);
  static const Dataset& TrainSet(Domain domain);
  static const Dataset& TestSet(Domain domain);

  // Freshly initialized (untrained) model by zoo name.
  static Model Build(const std::string& name, uint64_t seed);

  // Disk-cache key of a zoo model: architecture version, name and the
  // domain's effective training configuration.
  static std::string CacheKey(const std::string& name);

  // Trained model, from the disk cache when available. A cached blob that
  // fails to deserialize counts as a miss (logged, retrained, overwritten).
  // Thread-safe for distinct names.
  static Model Trained(const std::string& name);

  // All trained models of a domain, in domain order. Cache hits load on the
  // calling thread; the misses train concurrently on the global ThreadPool.
  // Weights do not depend on the pool size. The first exception of a
  // training propagates.
  static std::vector<Model> TrainedDomain(const std::string& domain_key);
  static std::vector<Model> TrainedDomain(Domain domain);

  // LeNet-1 with custom conv filter counts / training-set size / epochs —
  // used by the Table 12 model-similarity experiment.
  static Model BuildCustomLenet1(int conv1_filters, int conv2_filters, uint64_t seed);
};

}  // namespace dx

#endif  // DX_SRC_MODELS_ZOO_H_
