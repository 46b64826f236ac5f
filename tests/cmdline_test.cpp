// Tests for the kernel-command-line and sysctl.conf renderers, including a
// parameterized sweep over random configurations.
#include <string>

#include <gtest/gtest.h>

#include "src/configspace/cmdline.h"
#include "src/configspace/linux_space.h"

namespace wayfinder {
namespace {

class CmdlineFixture : public ::testing::Test {
 protected:
  CmdlineFixture() : space_(BuildLinuxSearchSpace()) {}
  ConfigSpace space_;
};

// ---------------------------------------------------------------------------
// Rendering.

TEST_F(CmdlineFixture, DefaultConfigurationRendersEmpty) {
  Configuration config = space_.DefaultConfiguration();
  EXPECT_EQ(RenderCmdline(config), "");
  EXPECT_EQ(RenderSysctlConf(config), "");
}

TEST_F(CmdlineFixture, BoolOnRendersAsBareFlag) {
  Configuration config = space_.DefaultConfiguration();
  config.Set("nosmt", 1);  // Default off.
  EXPECT_EQ(RenderCmdline(config), "nosmt");
}

TEST_F(CmdlineFixture, BoolOffRendersExplicitZero) {
  Configuration config = space_.DefaultConfiguration();
  config.Set("watchdog", 0);  // Default on.
  EXPECT_EQ(RenderCmdline(config), "watchdog=0");
}

TEST_F(CmdlineFixture, StringRendersChoiceText) {
  Configuration config = space_.DefaultConfiguration();
  size_t index = *space_.Find("mitigations");
  // Choice 1 is "off".
  config.SetRaw(index, 1);
  std::string cmdline = RenderCmdline(config);
  EXPECT_EQ(cmdline, "mitigations=off");
}

TEST_F(CmdlineFixture, RuntimeParamsNeverAppearOnTheCmdline) {
  Configuration config = space_.DefaultConfiguration();
  config.Set("net.core.somaxconn", 4096);
  EXPECT_EQ(RenderCmdline(config), "");
  EXPECT_NE(RenderSysctlConf(config).find("net.core.somaxconn = 4096"), std::string::npos);
}

TEST_F(CmdlineFixture, BootParamsNeverAppearInSysctl) {
  Configuration config = space_.DefaultConfiguration();
  config.Set("nosmt", 1);
  EXPECT_EQ(RenderSysctlConf(config), "");
}

TEST_F(CmdlineFixture, SysctlRendersBoolsNumerically) {
  Configuration config = space_.DefaultConfiguration();
  config.Set("net.ipv4.tcp_tw_reuse", 1);  // Default off.
  EXPECT_NE(RenderSysctlConf(config).find("net.ipv4.tcp_tw_reuse = 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property over random configurations, across seeds: each renderer emits one
// assignment for every non-default value of its phase, in space order, and
// nothing else.

class CmdlineRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CmdlineRoundTrip, CmdlineCarriesEveryNonDefaultBootValue) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Rng rng(GetParam());
  Configuration config = space.RandomConfiguration(rng);
  Configuration defaults = space.DefaultConfiguration();
  std::string expected;
  for (size_t i = 0; i < space.Size(); ++i) {
    const ParamSpec& spec = space.Param(i);
    if (spec.phase != ParamPhase::kBootTime || config.Raw(i) == defaults.Raw(i)) {
      continue;
    }
    std::string assignment = spec.name;
    if (spec.kind != ParamKind::kBool) {
      assignment += "=" + spec.FormatValue(config.Raw(i));
    } else if (config.Raw(i) == 0) {
      assignment += "=0";
    }
    expected += (expected.empty() ? "" : " ") + assignment;
  }
  ASSERT_FALSE(expected.empty()) << "seed left every boot parameter at its default";
  EXPECT_EQ(RenderCmdline(config), expected);
}

TEST_P(CmdlineRoundTrip, SysctlCarriesEveryNonDefaultRuntimeValue) {
  ConfigSpace space = BuildLinuxSearchSpace();
  Rng rng(GetParam() ^ 0x5ca1ab1e);
  Configuration config = space.RandomConfiguration(rng);
  Configuration defaults = space.DefaultConfiguration();
  std::string expected;
  for (size_t i = 0; i < space.Size(); ++i) {
    const ParamSpec& spec = space.Param(i);
    if (spec.phase != ParamPhase::kRuntime || config.Raw(i) == defaults.Raw(i)) {
      continue;
    }
    expected += spec.name + " = " +
                (spec.kind == ParamKind::kBool ? std::to_string(config.Raw(i))
                                               : spec.FormatValue(config.Raw(i))) +
                "\n";
  }
  ASSERT_FALSE(expected.empty()) << "seed left every runtime parameter at its default";
  EXPECT_EQ(RenderSysctlConf(config), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmdlineRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 17u, 101u, 9001u, 0xdeadu, 0xbeefu));

}  // namespace
}  // namespace wayfinder
