#include "src/core/model_zoo.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/forest/random_forest.h"

namespace wayfinder {

namespace fs = std::filesystem;

std::vector<double> ComputeImportanceFingerprint(Testbench& bench, size_t samples,
                                                 uint64_t seed) {
  const ConfigSpace& space = bench.space();
  Rng rng(seed);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  size_t attempts = 0;
  const size_t max_attempts = samples * 10;  // Crash headroom.
  while (xs.size() < samples && attempts < max_attempts) {
    ++attempts;
    Configuration config = space.RandomConfiguration(rng, SampleOptions::FavorRuntime());
    TrialOutcome outcome = bench.Evaluate(config, rng, /*clock=*/nullptr);
    if (!outcome.ok()) {
      continue;
    }
    xs.push_back(space.Encode(config));
    ys.push_back(outcome.metric);
  }
  if (xs.size() < 8) {
    return std::vector<double>(space.FeatureDimension(), 0.0);
  }
  ForestOptions options;
  options.seed = seed ^ 0xf06e57;
  RandomForestRegressor forest(options);
  forest.Fit(xs, ys);
  return forest.FeatureImportance();
}

ModelZoo::ModelZoo(const std::string& directory) : directory_(directory) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
}

std::string ModelZoo::ModelPath(const std::string& name) const {
  return (fs::path(directory_) / (name + ".wfnn")).string();
}

std::string ModelZoo::FingerprintPath(const std::string& name) const {
  return (fs::path(directory_) / (name + ".fingerprint")).string();
}

bool ModelZoo::Publish(const std::string& name, const DeepTuneSearcher& searcher,
                       const std::vector<double>& fingerprint) {
  if (name.empty() || name.find('/') != std::string::npos) {
    return false;  // Entry names must be plain file stems.
  }
  if (!searcher.SaveModel(ModelPath(name))) {
    return false;
  }
  std::ofstream out(FingerprintPath(name));
  if (!out) {
    return false;
  }
  out.precision(17);
  out << "wayfinder-fingerprint v1\n";
  out << "dim " << searcher.model().input_dim() << "\n";
  out << "heads " << searcher.model().head_count() << "\n";
  out << "importance";
  for (double v : fingerprint) {
    out << " " << v;
  }
  out << "\n";
  return static_cast<bool>(out);
}

std::vector<ZooEntry> ModelZoo::List() const {
  std::vector<ZooEntry> entries;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(directory_, ec)) {
    if (item.path().extension() != ".fingerprint") {
      continue;
    }
    std::ifstream in(item.path());
    std::string line;
    if (!std::getline(in, line) || line != "wayfinder-fingerprint v1") {
      continue;
    }
    ZooEntry entry;
    entry.name = item.path().stem().string();
    std::string keyword;
    in >> keyword >> entry.input_dim;
    if (keyword != "dim") {
      continue;
    }
    in >> keyword;
    if (keyword == "heads") {
      // Absent from fingerprints written before multi-head models could be
      // published: those hold one-head models.
      in >> entry.head_count >> keyword;
    }
    if (keyword != "importance") {
      continue;
    }
    double value = 0.0;
    while (in >> value) {
      entry.fingerprint.push_back(value);
    }
    // The model file must exist alongside the fingerprint.
    if (!fs::exists(ModelPath(entry.name))) {
      continue;
    }
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const ZooEntry& a, const ZooEntry& b) { return a.name < b.name; });
  return entries;
}

std::vector<DonorMatch> ModelZoo::RankDonors(const std::vector<double>& fingerprint,
                                             size_t head_count) const {
  std::vector<DonorMatch> matches;
  for (const ZooEntry& entry : List()) {
    if (entry.fingerprint.size() != fingerprint.size() || entry.head_count != head_count) {
      continue;
    }
    matches.push_back({entry.name, ImportanceSimilarity(entry.fingerprint, fingerprint)});
  }
  std::sort(matches.begin(), matches.end(), [](const DonorMatch& a, const DonorMatch& b) {
    return a.similarity > b.similarity;
  });
  return matches;
}

bool ModelZoo::Adopt(const std::string& name, DeepTuneSearcher* searcher) const {
  return searcher->LoadModel(ModelPath(name));
}

}  // namespace wayfinder
