// Model zoo: a directory of trained DeepTune models with application
// fingerprints, and similarity-driven donor selection for transfer learning.
//
// §3.3 establishes when transfer helps: "when applications share
// characteristics [...] it is probable that a model pre-trained on one
// application will be useful for the other", quantified by the Figure 5
// cross-similarity matrix of random-forest feature-importance vectors. The
// zoo operationalizes that: publishing a model stores its weights together
// with the application's importance fingerprint; before specializing a new
// application, RankDonors orders the published models by fingerprint
// cosine similarity so the caller warm-starts from the closest relative
// (Redis -> Nginx: yes; NPB -> Nginx: no).
#ifndef WAYFINDER_SRC_CORE_MODEL_ZOO_H_
#define WAYFINDER_SRC_CORE_MODEL_ZOO_H_

#include <string>
#include <vector>

#include "src/core/deeptune.h"
#include "src/simos/testbench.h"

namespace wayfinder {

// The Figure 5 fingerprint: evaluate `samples` random (runtime-favored)
// configurations on `bench`, fit a regression forest on the successes, and
// return its normalized feature-importance vector. Deterministic in `seed`.
std::vector<double> ComputeImportanceFingerprint(Testbench& bench, size_t samples,
                                                 uint64_t seed);

struct ZooEntry {
  std::string name;       // Entry name (usually the application).
  size_t input_dim = 0;   // Feature dimension the model was trained on.
  size_t head_count = 1;  // The model's objective heads (one per metric).
  std::vector<double> fingerprint;
};

struct DonorMatch {
  std::string name;
  double similarity = 0.0;
};

class ModelZoo {
 public:
  // `directory` is created if absent.
  explicit ModelZoo(const std::string& directory);

  // Saves the searcher's model weights plus the fingerprint under `name`.
  // Overwrites an existing entry of the same name.
  bool Publish(const std::string& name, const DeepTuneSearcher& searcher,
               const std::vector<double>& fingerprint);

  // All entries currently in the zoo (sorted by name).
  std::vector<ZooEntry> List() const;

  // Entries ranked by descending fingerprint similarity to `fingerprint`;
  // entries with a different input dimension or head count (models the
  // recipient could not load) are excluded.
  std::vector<DonorMatch> RankDonors(const std::vector<double>& fingerprint,
                                     size_t head_count = 1) const;

  // Loads the named entry's weights into `searcher` (marks it transferred).
  // False when the entry is missing or its model's shape (input dim, head
  // count) differs from the searcher's.
  bool Adopt(const std::string& name, DeepTuneSearcher* searcher) const;

  const std::string& directory() const { return directory_; }

 private:
  std::string ModelPath(const std::string& name) const;
  std::string FingerprintPath(const std::string& name) const;

  std::string directory_;
};

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CORE_MODEL_ZOO_H_
