// Tests for parameters, configurations, encoding, and space builders.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/configspace/config_space.h"
#include "src/configspace/linux_space.h"
#include "src/configspace/unikraft_space.h"
#include "src/platform/job_file.h"
#include "tests/config_space_reference.h"

namespace wayfinder {
namespace {

ConfigSpace SmallSpace() {
  ConfigSpace space;
  space.Add(ParamSpec::Bool("feature.a", ParamPhase::kCompileTime, "net", true));
  space.Add(ParamSpec::Tristate("feature.b", "vm", 1));
  space.Add(ParamSpec::Int("tunable.c", ParamPhase::kRuntime, "net", 0, 100, 50));
  space.Add(ParamSpec::Int("buffer.d", ParamPhase::kRuntime, "net", 1, 1 << 20, 4096, true));
  space.Add(ParamSpec::String("mode.e", ParamPhase::kBootTime, "sched", {"x", "y", "z"}, 1));
  space.Add(ParamSpec::IntSet("quant.f", ParamPhase::kRuntime, "vm", {8, 64, 512}, 64));
  return space;
}

TEST(ParamSpec, DomainSizes) {
  ConfigSpace space = SmallSpace();
  EXPECT_EQ(space.Param(0).DomainSize(), 2);
  EXPECT_EQ(space.Param(1).DomainSize(), 3);
  EXPECT_EQ(space.Param(2).DomainSize(), 101);
  EXPECT_EQ(space.Param(4).DomainSize(), 3);
  EXPECT_EQ(space.Param(5).DomainSize(), 3);
}

TEST(ParamSpec, ClampAndInDomain) {
  ConfigSpace space = SmallSpace();
  const ParamSpec& c = space.Param(2);
  EXPECT_EQ(c.Clamp(-5), 0);
  EXPECT_EQ(c.Clamp(500), 100);
  EXPECT_TRUE(c.InDomain(100));
  EXPECT_FALSE(c.InDomain(101));
  const ParamSpec& f = space.Param(5);
  EXPECT_EQ(f.Clamp(60), 64);     // Nearest quantized value.
  EXPECT_EQ(f.Clamp(10000), 512);
  EXPECT_TRUE(f.InDomain(8));
  EXPECT_FALSE(f.InDomain(9));
}

TEST(ParamSpec, FormatValue) {
  ConfigSpace space = SmallSpace();
  EXPECT_EQ(space.Param(0).FormatValue(1), "y");
  EXPECT_EQ(space.Param(0).FormatValue(0), "n");
  EXPECT_EQ(space.Param(1).FormatValue(1), "m");
  EXPECT_EQ(space.Param(4).FormatValue(2), "z");
  ParamSpec hex = ParamSpec::Hex("h", "kernel", 0, 0xffff, 0xff);
  EXPECT_EQ(hex.FormatValue(255), "0xff");
}

TEST(ConfigSpaceTest, DefaultConfiguration) {
  ConfigSpace space = SmallSpace();
  Configuration def = space.DefaultConfiguration();
  EXPECT_EQ(def.Get("feature.a"), 1);
  EXPECT_EQ(def.Get("tunable.c"), 50);
  EXPECT_EQ(def.Get("quant.f"), 64);
  EXPECT_TRUE(space.IsValid(def));
}

TEST(ConfigSpaceTest, FindAndDuplicateLookup) {
  ConfigSpace space = SmallSpace();
  EXPECT_TRUE(space.Find("mode.e").has_value());
  EXPECT_FALSE(space.Find("nope").has_value());
}

TEST(ConfigSpaceTest, RandomConfigurationsValidAndDiverse) {
  ConfigSpace space = SmallSpace();
  Rng rng(5);
  std::set<uint64_t> hashes;
  for (int i = 0; i < 200; ++i) {
    Configuration config = space.RandomConfiguration(rng);
    ASSERT_TRUE(space.IsValid(config));
    hashes.insert(config.Hash());
  }
  EXPECT_GT(hashes.size(), 150u);
}

TEST(ConfigSpaceTest, PhaseBiasedSamplingKeepsOtherPhasesAtDefault) {
  ConfigSpace space = SmallSpace();
  Rng rng(6);
  SampleOptions favor_runtime{0.0, 0.0, 1.0};
  for (int i = 0; i < 50; ++i) {
    Configuration config = space.RandomConfiguration(rng, favor_runtime);
    EXPECT_EQ(config.Get("feature.a"), 1);   // Compile stays default.
    EXPECT_EQ(config.Get("mode.e"), 1);      // Boot stays default.
  }
}

TEST(ConfigSpaceTest, FreezePinsValue) {
  ConfigSpace space = SmallSpace();
  ASSERT_TRUE(space.Freeze("tunable.c", 77));
  EXPECT_FALSE(space.Freeze("missing", 1));
  EXPECT_EQ(space.FrozenCount(), 1u);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    Configuration config = space.RandomConfiguration(rng);
    EXPECT_EQ(config.Get("tunable.c"), 77);
  }
  EXPECT_EQ(space.DefaultConfiguration().Get("tunable.c"), 77);
}

TEST(ConfigSpaceTest, DependencyForcesDefault) {
  ConfigSpace space;
  space.Add(ParamSpec::Bool("GATE", ParamPhase::kCompileTime, "net", true));
  ParamSpec child = ParamSpec::Bool("CHILD", ParamPhase::kCompileTime, "net", false);
  child.depends_on.push_back("GATE");
  space.Add(child);
  Configuration config = space.DefaultConfiguration();
  config.Set("CHILD", 1);
  config.Set("GATE", 0);
  EXPECT_GT(space.ApplyConstraints(&config), 0u);
  EXPECT_EQ(config.Get("CHILD"), 0);  // Forced back to default.
  EXPECT_TRUE(space.IsValid(config));
}

TEST(ConfigSpaceTest, EncodeDecodeRoundTrip) {
  ConfigSpace space = SmallSpace();
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    Configuration config = space.RandomConfiguration(rng);
    for (size_t p = 0; p < space.Size(); ++p) {
      double code = space.EncodeParam(p, config.Raw(p));
      ASSERT_GE(code, 0.0);
      ASSERT_LE(code, 1.0);
      int64_t decoded = space.DecodeParam(p, code);
      // Log-scaled wide domains round-trip approximately; exact for others.
      if (space.Param(p).log_scale) {
        double rel = std::abs(static_cast<double>(decoded - config.Raw(p))) /
                     std::max<double>(1.0, static_cast<double>(config.Raw(p)));
        EXPECT_LT(rel, 0.01);
      } else {
        EXPECT_EQ(decoded, config.Raw(p));
      }
    }
  }
}

TEST(ConfigSpaceTest, NeighborMutatesFewParams) {
  ConfigSpace space = SmallSpace();
  Rng rng(9);
  Configuration base = space.DefaultConfiguration();
  Configuration neighbor = space.Neighbor(base, rng, 1);
  size_t diffs = 0;
  for (size_t p = 0; p < space.Size(); ++p) {
    diffs += neighbor.Raw(p) != base.Raw(p) ? 1 : 0;
  }
  EXPECT_LE(diffs, 1u);
}

TEST(ConfigSpaceTest, DiffStringListsOnlyChanges) {
  ConfigSpace space = SmallSpace();
  Configuration config = space.DefaultConfiguration();
  config.Set("tunable.c", 99);
  std::string diff = config.DiffString();
  EXPECT_NE(diff.find("tunable.c=99"), std::string::npos);
  EXPECT_EQ(diff.find("feature.a"), std::string::npos);
}

TEST(ConfigSpaceTest, HashDiffersAcrossConfigs) {
  ConfigSpace space = SmallSpace();
  Configuration a = space.DefaultConfiguration();
  Configuration b = a;
  b.Set("tunable.c", 51);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_FALSE(a == b);
}

// --- Linux space ------------------------------------------------------------

TEST(LinuxSpace, VersionCurveIsMonotone) {
  std::vector<std::string> versions = LinuxVersionTimeline();
  ASSERT_GE(versions.size(), 10u);
  size_t prev = 0;
  for (const std::string& version : versions) {
    size_t count = LinuxCompileOptionCount(version);
    EXPECT_GT(count, prev);
    prev = count;
  }
  EXPECT_NEAR(static_cast<double>(LinuxCompileOptionCount("6.0")), 20400.0, 500.0);
}

TEST(LinuxSpace, KindFractionsSumToOne) {
  double total = 0.0;
  for (ParamKind kind : {ParamKind::kBool, ParamKind::kTristate, ParamKind::kString,
                         ParamKind::kHex, ParamKind::kInt}) {
    total += LinuxKindFraction(kind);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LinuxSpace, FullCensusMatchesTable1Shape) {
  LinuxSpaceOptions options;
  options.version = "6.0";
  options.scale = 1.0;
  ConfigSpace space = BuildLinuxSpace(options);
  size_t compile = space.CountPhase(ParamPhase::kCompileTime);
  size_t boot = space.CountPhase(ParamPhase::kBootTime);
  size_t runtime = space.CountPhase(ParamPhase::kRuntime);
  // Table 1: ~21272 compile, 231 boot, 13328 runtime.
  EXPECT_NEAR(static_cast<double>(compile), 20400.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(boot), 231.0, 60.0);
  EXPECT_NEAR(static_cast<double>(runtime), 13328.0, 1500.0);
  // Tristate should dominate compile-time kinds, as in Table 1.
  auto count_kind = [&space](ParamKind kind) {
    size_t count = 0;
    for (size_t i = 0; i < space.Size(); ++i) {
      count += space.Param(i).kind == kind ? 1 : 0;
    }
    return count;
  };
  EXPECT_GT(count_kind(ParamKind::kTristate), count_kind(ParamKind::kBool) / 2);
  EXPECT_GT(count_kind(ParamKind::kInt), 2000u);
}

TEST(LinuxSpace, DeterministicForSeed) {
  ConfigSpace a = BuildLinuxSearchSpace(123);
  ConfigSpace b = BuildLinuxSearchSpace(123);
  ASSERT_EQ(a.Size(), b.Size());
  for (size_t i = 0; i < a.Size(); ++i) {
    EXPECT_EQ(a.Param(i).name, b.Param(i).name);
    EXPECT_EQ(a.Param(i).default_value, b.Param(i).default_value);
  }
}

TEST(LinuxSpace, SearchSpaceContainsCuratedHighImpactParams) {
  ConfigSpace space = BuildLinuxSearchSpace();
  for (const std::string& name : DocumentedHighImpactParams()) {
    EXPECT_TRUE(space.Find(name).has_value()) << name;
  }
  EXPECT_GT(space.CountPhase(ParamPhase::kRuntime), 100u);
}

TEST(LinuxSpace, CuratedParamsHaveSaneDomains) {
  for (const ParamSpec& spec : CuratedLinuxParams()) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_TRUE(spec.InDomain(spec.default_value)) << spec.name;
    if (spec.kind == ParamKind::kString) {
      EXPECT_FALSE(spec.choices.empty()) << spec.name;
    }
  }
}

// --- Unikraft space ----------------------------------------------------------

TEST(UnikraftSpace, Has33ParamsSplit10And23) {
  ConfigSpace space = BuildUnikraftSpace();
  EXPECT_EQ(space.Size(), 33u);
  size_t app_params = 0;
  for (size_t i = 0; i < space.Size(); ++i) {
    app_params += space.Param(i).subsystem == "app" ? 1 : 0;
  }
  EXPECT_EQ(app_params, 10u);
}

TEST(UnikraftSpace, SpaceSizeMatchesPaper) {
  // §4.4: 3.7e13 permutations -> log10 ~ 13.57.
  ConfigSpace space = BuildUnikraftSpace();
  EXPECT_NEAR(space.Log10SpaceSize(), 13.57, 1.2);
}

// Property sweep: every builder yields spaces whose random samples validate.
class SpaceBuilderTest : public ::testing::TestWithParam<int> {};

TEST_P(SpaceBuilderTest, RandomSamplesAreValid) {
  ConfigSpace space =
      GetParam() == 0 ? BuildLinuxSearchSpace() : BuildUnikraftSpace();
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    Configuration config = space.RandomConfiguration(rng);
    ASSERT_TRUE(space.IsValid(config));
  }
}

INSTANTIATE_TEST_SUITE_P(Builders, SpaceBuilderTest, ::testing::Values(0, 1));

// --- Compiled table vs the ParamSpec forms -----------------------------------
// Clamp, sampling, encoding and constraints read a compiled per-parameter
// table; each must reproduce the ParamSpec-walking form it replaced bit for
// bit (tests/config_space_reference.h).

TEST(CompiledSpace, LinuxJobSpaceMatchesReference) {
  JobSpec job;
  job.os = "linux";
  reference::ExpectMatchesReference(BuildJobSpace(job), 0x11a, 12, "linux");
}

TEST(CompiledSpace, UnikraftValueSetsMatchReference) {
  JobSpec job;
  job.os = "unikraft";
  reference::ExpectMatchesReference(BuildJobSpace(job), 0x11b, 40, "unikraft");
}

TEST(CompiledSpace, SmallSpaceMatchesReference) {
  reference::ExpectMatchesReference(SmallSpace(), 0x11c, 200, "small");
}

TEST(CompiledSpace, FrozenParametersMatchReference) {
  // Frozen values out of domain, on a dependency gate, a parameter behind
  // one, a log-scaled knob and a value set; refreezing moves the value.
  JobSpec job;
  job.os = "linux";
  ConfigSpace space = BuildJobSpace(job);
  size_t gated = space.Size();
  for (size_t i = 0; i < space.Size() && gated == space.Size(); ++i) {
    if (!space.Param(i).depends_on.empty()) {
      gated = i;
    }
  }
  ASSERT_LT(gated, space.Size());
  const ParamSpec& child = space.Param(gated);
  ASSERT_TRUE(space.Freeze(child.depends_on[0], 0));
  ASSERT_TRUE(space.Freeze(child.name, child.max_value + 5));
  size_t frozen_log = 0;
  for (size_t i = 0; i < space.Size() && frozen_log < 2; ++i) {
    const ParamSpec& spec = space.Param(i);
    if (spec.log_scale && !space.IsFrozen(i)) {
      ASSERT_TRUE(space.Freeze(spec.name, frozen_log == 0 ? -7 : spec.max_value / 3));
      ++frozen_log;
    }
  }
  ASSERT_TRUE(space.Freeze("net.core.somaxconn", 4096));
  const size_t frozen = space.FrozenCount();
  ASSERT_TRUE(space.Freeze("net.core.somaxconn", 1 << 30));
  EXPECT_EQ(space.FrozenCount(), frozen);
  EXPECT_EQ(space.DefaultConfiguration().Get("net.core.somaxconn"), 65536);
  reference::ExpectMatchesReference(space, 0x11d, 12, "frozen linux");

  ConfigSpace unikraft = BuildUnikraftSpace();
  ASSERT_TRUE(unikraft.Freeze("nginx.worker_connections", 900));
  EXPECT_EQ(unikraft.DefaultConfiguration().Get("nginx.worker_connections"), 1024);
  reference::ExpectMatchesReference(unikraft, 0x11e, 40, "frozen unikraft");
}

}  // namespace
}  // namespace wayfinder
