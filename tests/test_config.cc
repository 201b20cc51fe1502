/**
 * @file
 * Tests for the NVMain-style config parser and the device binding.
 *
 * Two oracles anchor the device-config subsystem:
 *
 *  - Round-trip: parse -> bind -> emit -> parse -> bind is
 *    field-identical for every shipped device config, so the
 *    emitted canonical text is a faithful serialisation and a config
 *    can be archived, diffed and reloaded without drift.
 *
 *  - Fidelity: configs/reram_paper.config binds to exactly the
 *    compiled-in defaults, so running any bench with
 *    `--device reram_paper` reproduces the paper figures
 *    byte-for-byte (fig11 is the CI gate).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "config/config_file.hh"
#include "config/device_config.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

using namespace mellowsim;

// --- Parser semantics ------------------------------------------------

TEST(ConfigFile, CommentLeadersAreStripped)
{
    ConfigFile cfg = ConfigFile::parseString(
        "; leading comment\n"
        "CLK 400 ; NVMain-style trailing comment\n"
        "tRCD 120 // C++-style trailing comment\n"
        "# hash comment line\n"
        "tWP 150\n");
    EXPECT_TRUE(cfg.has("CLK"));
    EXPECT_DOUBLE_EQ(cfg.megahertz("CLK").value(), 400.0);
    EXPECT_EQ(cfg.nanoseconds("tRCD"), 120 * kNanosecond);
    EXPECT_EQ(cfg.nanoseconds("tWP"), 150 * kNanosecond);
    EXPECT_EQ(cfg.entries().size(), 3u);
}

TEST(ConfigFile, LaterAssignmentWinsKeepingFirstSeenPosition)
{
    ConfigFile cfg = ConfigFile::parseString(
        "CLK 200\n"
        "tRCD 120\n"
        "CLK 400\n");
    EXPECT_DOUBLE_EQ(cfg.megahertz("CLK").value(), 400.0);
    // The override updated the value in place: CLK still emits before
    // tRCD, so emit() is stable under specialisation.
    EXPECT_EQ(cfg.emit(), "CLK 400\ntRCD 120\n");
}

TEST(ConfigFile, UnitNamedAccessorsConvert)
{
    ConfigFile cfg = ConfigFile::parseString(
        "tCAS 2.5\n"
        "Energy 197.6\n"
        "Queue 32\n"
        "Expo 2.5\n"
        "Scramble true\n"
        "Cell CellC\n"
        "Row 16384\n"
        "Bus 64\n");
    // 2.5 ns is 2500 ticks: the accessor, not the call site, owns the
    // ns -> Tick scale factor.
    EXPECT_EQ(cfg.nanoseconds("tCAS"), Tick(2500));
    EXPECT_DOUBLE_EQ(cfg.picojoules("Energy").value(), 197.6);
    EXPECT_EQ(cfg.count("Queue"), 32u);
    EXPECT_DOUBLE_EQ(cfg.ratio("Expo"), 2.5);
    EXPECT_TRUE(cfg.flag("Scramble"));
    EXPECT_EQ(cfg.word("Cell"), "CellC");
    EXPECT_EQ(cfg.bytes("Row"), 16384u);
    EXPECT_EQ(cfg.bits("Bus"), 64u);
}

TEST(ConfigFile, DefaultedAccessorsFallBackWhenAbsent)
{
    ConfigFile cfg = ConfigFile::parseString("CLK 400\n");
    EXPECT_EQ(cfg.countOr("Missing", 7), 7u);
    EXPECT_DOUBLE_EQ(cfg.ratioOr("Missing", 0.9), 0.9);
    EXPECT_FALSE(cfg.flagOr("Missing", false));
    EXPECT_EQ(cfg.wordOr("Missing", "CellC"), "CellC");
    EXPECT_EQ(cfg.nanosecondsOr("Missing", Tick(123)), Tick(123));
    EXPECT_DOUBLE_EQ(
        cfg.picojoulesOr("Missing", Picojoules(1.5)).value(), 1.5);
}

// --- Shipped device zoo ----------------------------------------------

TEST(DeviceConfig, ZooShipsAtLeastThreeDevices)
{
    const auto names = deviceConfigNames();
    ASSERT_GE(names.size(), 3u);
    // The paper point must always be present: it is the fidelity
    // anchor every figure bench defaults to.
    EXPECT_NE(std::find(names.begin(), names.end(),
                        std::string("reram_paper")),
              names.end());
}

TEST(DeviceConfig, RoundTripIsFieldIdenticalForEveryShippedConfig)
{
    for (const std::string &name : deviceConfigNames()) {
        const DeviceConfig bound = loadDeviceConfig(name);
        EXPECT_EQ(bound.name, name);

        const std::string text = emitDeviceConfig(bound);
        const ConfigFile reparsed =
            ConfigFile::parseString(text, name + " (emitted)");
        const DeviceConfig rebound = bindDeviceConfig(reparsed, name);

        EXPECT_TRUE(deviceConfigsEqual(bound, rebound)) << name;
        // The canonical text is a fixed point: emitting the rebound
        // device reproduces it byte-for-byte.
        EXPECT_EQ(emitDeviceConfig(rebound), text) << name;
    }
}

TEST(DeviceConfig, PaperConfigBindsToCompiledInDefaults)
{
    // The fidelity oracle: the shipped paper datasheet is the
    // compiled-in configuration, field for field, so --device
    // reram_paper cannot change any figure.
    const DeviceConfig paper = loadDeviceConfig("reram_paper");
    EXPECT_TRUE(deviceConfigsEqual(paper, DeviceConfig{}));
}

TEST(DeviceConfig, DevicesAreDistinctTechnologyPoints)
{
    // The zoo is only useful if the devices actually differ.
    const auto names = deviceConfigNames();
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_FALSE(deviceConfigsEqual(loadDeviceConfig(names[i]),
                                            loadDeviceConfig(names[j])))
                << names[i] << " vs " << names[j];
}

TEST(DeviceConfig, OutOfRangeLevelingEfficiencyFailsAtLoad)
{
    // fail_range.config sets LevelingEfficiency 1.5: binding rejects
    // it once, naming the key, before any System is built.
    const std::string path =
        std::string(MELLOWSIM_CONFIGCHECK_FIXTURE_DIR) + "/fail_range.config";
    try {
        (void)loadDeviceConfig(path);
        FAIL() << "fail_range.config bound without error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("LevelingEfficiency"),
                  std::string::npos)
            << e.what();
    }
}
