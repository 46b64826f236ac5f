// Tests for Kconfig "select" and "if" block support: parsing, round-trip
// through WriteKconfig, and constraint propagation through
// ConfigSpace::ApplyConstraints (select raises its target and overrides the
// target's own dependencies, as in real Kconfig).
#include <gtest/gtest.h>

#include "src/configspace/config_space.h"
#include "src/configspace/kconfig.h"
#include "tests/config_space_reference.h"

namespace wayfinder {
namespace {

ConfigSpace SpaceFrom(const std::string& kconfig) {
  KconfigParseResult parsed = ParseKconfig(kconfig);
  EXPECT_TRUE(parsed.ok) << parsed.error << " at line " << parsed.error_line;
  ConfigSpace space;
  for (ParamSpec& spec : parsed.params) {
    space.Add(std::move(spec));
  }
  return space;
}

// ---------------------------------------------------------------------------
// Parsing.

TEST(KconfigSelectTest, SelectIsRecorded) {
  KconfigParseResult parsed = ParseKconfig(
      "config NET\n"
      "\tbool \"Networking\"\n"
      "\tselect NETDEVICES\n"
      "\tselect INET if IPV6\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.params.size(), 1u);
  ASSERT_EQ(parsed.params[0].selects.size(), 2u);
  EXPECT_EQ(parsed.params[0].selects[0], "NETDEVICES");
  // Conditional selects are recorded unconditionally (conservative).
  EXPECT_EQ(parsed.params[0].selects[1], "INET");
}

TEST(KconfigSelectTest, SelectWithoutSymbolIsAnError) {
  KconfigParseResult parsed = ParseKconfig(
      "config NET\n"
      "\tbool \"Networking\"\n"
      "\tselect\n");
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("select"), std::string::npos);
}

TEST(KconfigSelectTest, IfBlockAddsDependencies) {
  KconfigParseResult parsed = ParseKconfig(
      "config PCI\n"
      "\tbool \"PCI support\"\n"
      "if PCI\n"
      "config PCI_MSI\n"
      "\tbool \"MSI interrupts\"\n"
      "config PCIE_BUS\n"
      "\tbool \"PCIe bus\"\n"
      "endif\n"
      "config UNRELATED\n"
      "\tbool \"Outside the block\"\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.params.size(), 4u);
  ASSERT_EQ(parsed.params[1].depends_on.size(), 1u);
  EXPECT_EQ(parsed.params[1].depends_on[0], "PCI");
  ASSERT_EQ(parsed.params[2].depends_on.size(), 1u);
  EXPECT_EQ(parsed.params[2].depends_on[0], "PCI");
  EXPECT_TRUE(parsed.params[3].depends_on.empty());
}

TEST(KconfigSelectTest, NestedIfBlocksStackDependencies) {
  KconfigParseResult parsed = ParseKconfig(
      "if NET\n"
      "if INET\n"
      "config TCP_CONG_BBR\n"
      "\ttristate \"BBR\"\n"
      "endif\n"
      "endif\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.params.size(), 1u);
  ASSERT_EQ(parsed.params[0].depends_on.size(), 2u);
  EXPECT_EQ(parsed.params[0].depends_on[0], "NET");
  EXPECT_EQ(parsed.params[0].depends_on[1], "INET");
}

TEST(KconfigSelectTest, IfExpressionSymbolsAreAllConjuncts) {
  KconfigParseResult parsed = ParseKconfig(
      "if NET && (INET || IPV6)\n"
      "config DUMMY\n"
      "\tbool \"d\"\n"
      "endif\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.params[0].depends_on.size(), 3u);
}

TEST(KconfigSelectTest, UnterminatedIfIsAnError) {
  KconfigParseResult parsed = ParseKconfig(
      "if NET\n"
      "config FOO\n"
      "\tbool \"f\"\n");
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("if"), std::string::npos);
}

TEST(KconfigSelectTest, DanglingEndifIsAnError) {
  KconfigParseResult parsed = ParseKconfig("endif\n");
  EXPECT_FALSE(parsed.ok);
}

TEST(KconfigSelectTest, SelectRoundTripsThroughWriteKconfig) {
  const char* kconfig =
      "config CRYPTO_TLS\n"
      "\ttristate \"TLS\"\n"
      "\tselect CRYPTO_AES\n"
      "\tselect CRYPTO_SHA256\n";
  KconfigParseResult first = ParseKconfig(kconfig);
  ASSERT_TRUE(first.ok) << first.error;
  std::string rendered = WriteKconfig(first.params);
  KconfigParseResult second = ParseKconfig(rendered);
  ASSERT_TRUE(second.ok) << second.error;
  ASSERT_EQ(second.params.size(), 1u);
  EXPECT_EQ(second.params[0].selects, first.params[0].selects);
}

// ---------------------------------------------------------------------------
// Constraint propagation.

TEST(KconfigSelectTest, EnabledSelectorForcesTargetOn) {
  ConfigSpace space = SpaceFrom(
      "config A\n"
      "\tbool \"a\"\n"
      "\tselect B\n"
      "config B\n"
      "\tbool \"b\"\n");
  Configuration config = space.DefaultConfiguration();
  config.Set("A", 1);
  config.Set("B", 0);
  space.ApplyConstraints(&config);
  EXPECT_EQ(config.Get("B"), 1);
}

TEST(KconfigSelectTest, DisabledSelectorLeavesTargetAlone) {
  ConfigSpace space = SpaceFrom(
      "config A\n"
      "\tbool \"a\"\n"
      "\tselect B\n"
      "config B\n"
      "\tbool \"b\"\n");
  Configuration config = space.DefaultConfiguration();
  config.Set("A", 0);
  config.Set("B", 0);
  EXPECT_EQ(space.ApplyConstraints(&config), 0u);
  EXPECT_EQ(config.Get("B"), 0);
}

TEST(KconfigSelectTest, TristateSelectorRaisesTargetToItsLevel) {
  ConfigSpace space = SpaceFrom(
      "config MOD\n"
      "\ttristate \"m\"\n"
      "\tselect DEP\n"
      "config DEP\n"
      "\ttristate \"d\"\n");
  Configuration config = space.DefaultConfiguration();
  config.Set("MOD", 1);  // =m
  config.Set("DEP", 0);
  space.ApplyConstraints(&config);
  EXPECT_EQ(config.Get("DEP"), 1);  // Raised to m, not to y.

  config.Set("MOD", 2);  // =y
  space.ApplyConstraints(&config);
  EXPECT_EQ(config.Get("DEP"), 2);  // Raised further.
}

TEST(KconfigSelectTest, SelectDoesNotLowerAnAlreadyHigherTarget) {
  ConfigSpace space = SpaceFrom(
      "config MOD\n"
      "\ttristate \"m\"\n"
      "\tselect DEP\n"
      "config DEP\n"
      "\ttristate \"d\"\n");
  Configuration config = space.DefaultConfiguration();
  config.Set("MOD", 1);
  config.Set("DEP", 2);
  space.ApplyConstraints(&config);
  EXPECT_EQ(config.Get("DEP"), 2);
}

TEST(KconfigSelectTest, SelectOverridesTargetDependencies) {
  // B depends on GATE (off) but is selected by A: Kconfig semantics keep B
  // on anyway (the notorious select-vs-depends interaction).
  ConfigSpace space = SpaceFrom(
      "config GATE\n"
      "\tbool \"gate\"\n"
      "config A\n"
      "\tbool \"a\"\n"
      "\tselect B\n"
      "config B\n"
      "\tbool \"b\"\n"
      "\tdepends on GATE\n");
  Configuration config = space.DefaultConfiguration();
  config.Set("GATE", 0);
  config.Set("A", 1);
  config.Set("B", 0);
  space.ApplyConstraints(&config);
  EXPECT_EQ(config.Get("B"), 1);
}

TEST(KconfigSelectTest, SelectChainsPropagateTransitively) {
  ConfigSpace space = SpaceFrom(
      "config A\n"
      "\tbool \"a\"\n"
      "\tselect B\n"
      "config B\n"
      "\tbool \"b\"\n"
      "\tselect C\n"
      "config C\n"
      "\tbool \"c\"\n");
  Configuration config = space.DefaultConfiguration();
  config.Set("A", 1);
  config.Set("B", 0);
  config.Set("C", 0);
  space.ApplyConstraints(&config);
  EXPECT_EQ(config.Get("B"), 1);
  EXPECT_EQ(config.Get("C"), 1);
}

TEST(KconfigSelectTest, SelectOfNumericSymbolIsIgnored) {
  ConfigSpace space = SpaceFrom(
      "config A\n"
      "\tbool \"a\"\n"
      "\tselect SIZE\n"
      "config SIZE\n"
      "\tint \"size\"\n"
      "\trange 0 100\n"
      "\tdefault 10\n");
  Configuration config = space.DefaultConfiguration();
  config.Set("A", 1);
  config.Set("SIZE", 5);
  space.ApplyConstraints(&config);
  EXPECT_EQ(config.Get("SIZE"), 5);  // Untouched: Kconfig only selects bools.
}

TEST(KconfigSelectTest, IsValidSeesSelectViolations) {
  ConfigSpace space = SpaceFrom(
      "config A\n"
      "\tbool \"a\"\n"
      "\tselect B\n"
      "config B\n"
      "\tbool \"b\"\n");
  Configuration violating = space.DefaultConfiguration();
  violating.Set("A", 1);
  violating.Set("B", 0);
  EXPECT_FALSE(space.IsValid(violating));

  Configuration satisfied = violating;
  satisfied.Set("B", 1);
  EXPECT_TRUE(space.IsValid(satisfied));
}

TEST(KconfigSelectTest, RandomSamplesAlwaysSatisfySelectEdges) {
  ConfigSpace space = SpaceFrom(
      "config A\n"
      "\tbool \"a\"\n"
      "\tselect B\n"
      "config B\n"
      "\tbool \"b\"\n"
      "\tselect C\n"
      "config C\n"
      "\tbool \"c\"\n"
      "\tdepends on GATE\n"
      "config GATE\n"
      "\tbool \"gate\"\n");
  Rng rng(51);
  for (int i = 0; i < 200; ++i) {
    Configuration config = space.RandomConfiguration(rng);
    ASSERT_TRUE(space.IsValid(config)) << config.DiffString();
  }
}

// ---------------------------------------------------------------------------
// The compiled constraint table against the name-resolving reference
// (tests/config_space_reference.h): values, change counts, encodings and Rng
// states on random raw configurations, samples and NeighborInto outputs.

// One space with every edge shape ApplyConstraints handles.
const char* const kEdgeCorpus =
    // A depends_on naming a symbol added later, and one naming no symbol.
    "config EARLY\n"
    "\tbool \"early\"\n"
    "\tdepends on LATE_GATE\n"
    "config ORPHAN\n"
    "\ttristate \"orphan\"\n"
    "\tdepends on NOWHERE\n"
    "\tselect MISSING\n"
    // Tristate selectors at m and y, raising a bool and a tristate.
    "config MODS\n"
    "\ttristate \"mods\"\n"
    "\tselect MOD_BOOL\n"
    "\tselect MOD_TRI\n"
    "config MOD_BOOL\n"
    "\tbool \"b\"\n"
    "config MOD_TRI\n"
    "\ttristate \"t\"\n"
    "\tselect CHAIN_END\n"
    // The end of a select chain, whose own dependency the select overrides.
    "config CHAIN_END\n"
    "\tbool \"c\"\n"
    "\tdepends on LATE_GATE\n"
    // A select of numeric and string symbols (ignored), which depend on a
    // gate and fall back to their defaults.
    "config NUMERIC_SELECTOR\n"
    "\tbool \"n\"\n"
    "\tselect SIZE\n"
    "\tselect NAME\n"
    "config SIZE\n"
    "\tint \"size\"\n"
    "\trange 0 100\n"
    "\tdefault 10\n"
    "\tdepends on LATE_GATE\n"
    "config BIG\n"
    "\thex \"big\"\n"
    "\tdefault 0x1000\n"
    "\tdepends on MOD_TRI\n"
    "config NAME\n"
    "\tstring \"name\"\n"
    "\tdefault \"x\"\n"
    "\tdepends on LATE_GATE\n"
    // A select cycle whose members depend on a gate: while the gate is off
    // they trade places every pass until the 8-pass cap.
    "config SWING_A\n"
    "\tbool \"a\"\n"
    "\tselect SWING_B\n"
    "\tdepends on LATE_GATE\n"
    "config SWING_B\n"
    "\tbool \"b\"\n"
    "\tselect SWING_A\n"
    "\tdepends on LATE_GATE\n"
    "config LATE_GATE\n"
    "\tbool \"gate\"\n"
    "\tselect SELF_LOOP\n"
    "config SELF_LOOP\n"
    "\ttristate \"self\"\n"
    "\tselect SELF_LOOP\n"
    "\tdepends on SELF_LOOP\n";

TEST(KconfigSelectTest, SelectCycleStopsAtThePassCap) {
  ConfigSpace space = SpaceFrom(kEdgeCorpus);
  Configuration config = space.DefaultConfiguration();
  config.Set("LATE_GATE", 0);
  config.Set("SWING_A", 0);
  config.Set("SWING_B", 1);
  std::vector<int64_t> expected = config.values();
  size_t expected_changes = reference::ReferenceSpace(space).ApplyConstraints(&expected);
  // Each of the 8 passes raises one member and forces the other off.
  EXPECT_EQ(expected_changes, 16u);
  EXPECT_EQ(space.ApplyConstraints(&config), expected_changes);
  EXPECT_EQ(config.values(), expected);
}

TEST(KconfigSelectTest, CompiledEdgesMatchReference) {
  reference::ExpectMatchesReference(SpaceFrom(kEdgeCorpus), 0x5e1, 300, "edge corpus");

  // The same symbols added in reverse, so every edge resolves backwards, and
  // with two frozen symbols.
  KconfigParseResult parsed = ParseKconfig(kEdgeCorpus);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ConfigSpace reversed;
  for (auto it = parsed.params.rbegin(); it != parsed.params.rend(); ++it) {
    reversed.Add(*it);
  }
  reference::ExpectMatchesReference(reversed, 0x5e2, 300, "reversed corpus");
  ASSERT_TRUE(reversed.Freeze("MOD_TRI", 1));
  ASSERT_TRUE(reversed.Freeze("LATE_GATE", 0));
  reference::ExpectMatchesReference(reversed, 0x5e3, 300, "frozen corpus");
}

}  // namespace
}  // namespace wayfinder
