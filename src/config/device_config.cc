#include "config/device_config.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "energy/energy_model.hh"
#include "sim/logging.hh"

namespace mellowsim
{

namespace
{

#ifndef MELLOWSIM_DEFAULT_CONFIG_DIR
#define MELLOWSIM_DEFAULT_CONFIG_DIR "configs"
#endif

/** Shortest round-trip decimal form of a double (config emit). */
std::string
fmtDouble(double v)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    panic_if(ec != std::errc(), "double formatting failed");
    return std::string(buf, end);
}

/** Ticks back to the nanoseconds a config file spells them in. */
double
nanosecondsOf(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kNanosecond);
}

CellType
cellTypeFromName(const std::string &name, const std::string &source)
{
    for (CellType cell : kAllCellTypes) {
        if (cellTypeName(cell) == name)
            return cell;
    }
    fatal("config %s: unknown cell type '%s' (expected CellA..CellE)",
          source.c_str(), name.c_str());
}

} // namespace

std::string
deviceConfigDir()
{
    const char *env = std::getenv("MELLOWSIM_CONFIG_DIR");
    if (env != nullptr && *env != '\0')
        return env;
    return MELLOWSIM_DEFAULT_CONFIG_DIR;
}

std::vector<std::string>
deviceConfigNames()
{
    namespace fs = std::filesystem;
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(deviceConfigDir(), ec)) {
        if (entry.path().extension() == ".config")
            names.push_back(entry.path().stem().string());
    }
    // Directory iteration order is filesystem-dependent; every
    // consumer (device_zoo, bench sweeps) needs a stable order.
    std::sort(names.begin(), names.end());
    return names;
}

DeviceConfig
loadDeviceConfig(const std::string &nameOrPath)
{
    namespace fs = std::filesystem;
    std::string path = nameOrPath;
    std::string name = nameOrPath;
    if (nameOrPath.find('/') == std::string::npos &&
        fs::path(nameOrPath).extension() != ".config") {
        path = deviceConfigDir() + "/" + nameOrPath + ".config";
    } else {
        name = fs::path(nameOrPath).stem().string();
    }
    return bindDeviceConfig(ConfigFile::parseFile(path), name);
}

DeviceConfig
bindDeviceConfig(const ConfigFile &cfg, const std::string &name)
{
    DeviceConfig dev;
    dev.name = name;
    MemControllerConfig &c = dev.controller;
    const std::string &src = cfg.source();

    // --- Interface ---------------------------------------------------
    c.timing.tCK = clockPeriodTicks(cfg.megahertz("CLK"));
    dev.dataRate = static_cast<unsigned>(cfg.countOr("RATE", 1));
    dev.busWidthBits = cfg.has("BusWidth") ? cfg.bits("BusWidth") : 64;

    // --- Timing ------------------------------------------------------
    c.timing.tRCD = cfg.nanoseconds("tRCD");
    c.timing.tCAS = cfg.nanoseconds("tCAS");
    c.timing.tWP = cfg.nanoseconds("tWP");
    c.timing.tFAW = cfg.nanoseconds("tFAW");
    c.timing.tBurst = cfg.nanoseconds("tBurst");

    // --- Geometry ----------------------------------------------------
    dev.numChannels = static_cast<unsigned>(cfg.count("CHANNELS"));
    const auto ranks = cfg.count("RANKS");
    const auto banksPerRank = cfg.count("BANKS");
    const auto rows = cfg.count("ROWS");
    fatal_if(dev.numChannels == 0 || ranks == 0 || banksPerRank == 0 ||
                 rows == 0,
             "config %s: CHANNELS/RANKS/BANKS/ROWS must be positive",
             src.c_str());
    c.geometry.numRanks = static_cast<unsigned>(ranks);
    c.geometry.numBanks = static_cast<unsigned>(banksPerRank * ranks);
    c.geometry.rowBytes = cfg.bytes("RowBytes");
    c.geometry.rowBufferBytes = cfg.bytes("RowBufferBytes");
    c.geometry.interleaveBytes =
        cfg.has("InterleaveBytes") ? cfg.bytes("InterleaveBytes")
                                   : c.geometry.rowBytes;
    c.geometry.capacityBytes = cfg.bytes("CapacityBytes");
    c.geometry.pageScramble = cfg.flagOr("PageScramble", true);
    c.geometry.pageBytes = cfg.has("PageBytes") ? cfg.bytes("PageBytes")
                                                : c.geometry.pageBytes;

    // The one geometry identity binding cannot defer to configcheck:
    // a ROWS that disagrees with the capacity arithmetic would build
    // a memory of a different size than the datasheet promises.
    fatal_if(static_cast<std::uint64_t>(dev.numChannels) *
                     c.geometry.numBanks * rows * c.geometry.rowBytes !=
                 c.geometry.capacityBytes,
             "config %s: CHANNELS*RANKS*BANKS*ROWS*RowBytes != "
             "CapacityBytes",
             src.c_str());

    // --- Endurance (Equation 2) --------------------------------------
    // The endurance baseline is the normal write pulse by definition:
    // Endurance(tWP) = E0.
    c.endurance.baseWriteLatency = c.timing.tWP;
    c.endurance.baseEndurance = cfg.ratio("BaseEndurance");
    c.endurance.expoFactor = cfg.ratio("ExpoFactor");

    // --- Energy (Tables V/VI) ----------------------------------------
    c.energy.cell =
        cellTypeFromName(cfg.wordOr("Cell", "CellC"), src);
    if (cfg.has("CellEnergyPj"))
        c.energy.cellEnergyOverridePj = cfg.picojoules("CellEnergyPj");
    c.energy.peripheralWritePj = cfg.picojoulesOr(
        "PeripheralWritePj", c.energy.peripheralWritePj);
    c.energy.peripheralSlowWritePj = cfg.picojoulesOr(
        "PeripheralSlowWritePj", c.energy.peripheralSlowWritePj);
    if (cfg.has("BitsPerWrite"))
        c.energy.bitsPerWrite = cfg.bits("BitsPerWrite");
    c.energy.slowCellEnergyFactor =
        cfg.ratioOr("SlowCellEnergyFactor", c.energy.slowCellEnergyFactor);
    c.energy.bufferReadPj =
        cfg.picojoulesOr("BufferReadPj", c.energy.bufferReadPj);
    c.energy.rowHitReadPj =
        cfg.picojoulesOr("RowHitReadPj", c.energy.rowHitReadPj);

    // --- Controller provisioning -------------------------------------
    c.readQueueSize = static_cast<unsigned>(
        cfg.countOr("ReadQueueSize", c.readQueueSize));
    c.writeQueueSize = static_cast<unsigned>(
        cfg.countOr("WriteQueueSize", c.writeQueueSize));
    c.eagerQueueSize = static_cast<unsigned>(
        cfg.countOr("EagerQueueSize", c.eagerQueueSize));
    c.drainLowThreshold = static_cast<unsigned>(
        cfg.countOr("DrainLowThreshold", c.drainLowThreshold));
    c.busLeadBursts = static_cast<unsigned>(
        cfg.countOr("BusLeadBursts", c.busLeadBursts));
    c.forwardLatency =
        cfg.nanosecondsOr("ForwardLatencyNs", c.forwardLatency);
    c.recentReadWindow =
        cfg.nanosecondsOr("RecentReadWindowNs", c.recentReadWindow);
    c.maxWriteCancellations = static_cast<unsigned>(
        cfg.countOr("MaxWriteCancellations", c.maxWriteCancellations));
    c.levelingEfficiency =
        cfg.ratioOr("LevelingEfficiency", c.levelingEfficiency);
    // Checked here, once per load, rather than only when each System
    // builds its wear tracker (which keeps its own check for configs
    // built in code): a sweep would otherwise report it per config.
    fatal_if(!(c.levelingEfficiency > 0.0 && c.levelingEfficiency <= 1.0),
             "config %s: LevelingEfficiency must be in (0, 1] (got %g)",
             src.c_str(), c.levelingEfficiency);

    return dev;
}

std::string
emitDeviceConfig(const DeviceConfig &device)
{
    const MemControllerConfig &c = device.controller;
    const MemGeometry &g = c.geometry;
    std::uint64_t rows = g.capacityBytes / device.numChannels /
                         g.numBanks / g.rowBytes;

    std::ostringstream out;
    out << "; mellowsim device config: " << device.name
        << " (canonical emit)\n";

    out << "CLK "
        << fmtDouble(static_cast<double>(kMicrosecond) /
                     static_cast<double>(c.timing.tCK))
        << "\n";
    out << "RATE " << device.dataRate << "\n";
    out << "BusWidth " << device.busWidthBits << "\n";

    out << "tRCD " << fmtDouble(nanosecondsOf(c.timing.tRCD)) << "\n";
    out << "tCAS " << fmtDouble(nanosecondsOf(c.timing.tCAS)) << "\n";
    out << "tWP " << fmtDouble(nanosecondsOf(c.timing.tWP)) << "\n";
    out << "tFAW " << fmtDouble(nanosecondsOf(c.timing.tFAW)) << "\n";
    out << "tBurst " << fmtDouble(nanosecondsOf(c.timing.tBurst))
        << "\n";

    out << "CHANNELS " << device.numChannels << "\n";
    out << "RANKS " << g.numRanks << "\n";
    out << "BANKS " << g.banksPerRank() << "\n";
    out << "ROWS " << rows << "\n";
    out << "RowBytes " << g.rowBytes << "\n";
    out << "RowBufferBytes " << g.rowBufferBytes << "\n";
    out << "InterleaveBytes " << g.interleaveBytes << "\n";
    out << "CapacityBytes " << g.capacityBytes << "\n";
    out << "PageScramble " << (g.pageScramble ? "true" : "false")
        << "\n";
    out << "PageBytes " << g.pageBytes << "\n";

    out << "BaseEndurance " << fmtDouble(c.endurance.baseEndurance)
        << "\n";
    out << "ExpoFactor " << fmtDouble(c.endurance.expoFactor) << "\n";

    out << "Cell " << cellTypeName(c.energy.cell) << "\n";
    if (c.energy.cellEnergyOverridePj) {
        out << "CellEnergyPj "
            << fmtDouble(c.energy.cellEnergyOverridePj->value()) << "\n";
    }
    out << "PeripheralWritePj "
        << fmtDouble(c.energy.peripheralWritePj.value()) << "\n";
    out << "PeripheralSlowWritePj "
        << fmtDouble(c.energy.peripheralSlowWritePj.value()) << "\n";
    out << "BitsPerWrite " << c.energy.bitsPerWrite << "\n";
    out << "SlowCellEnergyFactor "
        << fmtDouble(c.energy.slowCellEnergyFactor) << "\n";
    out << "BufferReadPj " << fmtDouble(c.energy.bufferReadPj.value())
        << "\n";
    out << "RowHitReadPj " << fmtDouble(c.energy.rowHitReadPj.value())
        << "\n";

    out << "ReadQueueSize " << c.readQueueSize << "\n";
    out << "WriteQueueSize " << c.writeQueueSize << "\n";
    out << "EagerQueueSize " << c.eagerQueueSize << "\n";
    out << "DrainLowThreshold " << c.drainLowThreshold << "\n";
    out << "BusLeadBursts " << c.busLeadBursts << "\n";
    out << "ForwardLatencyNs " << fmtDouble(nanosecondsOf(c.forwardLatency))
        << "\n";
    out << "RecentReadWindowNs "
        << fmtDouble(nanosecondsOf(c.recentReadWindow)) << "\n";
    out << "MaxWriteCancellations " << c.maxWriteCancellations << "\n";
    out << "LevelingEfficiency " << fmtDouble(c.levelingEfficiency)
        << "\n";

    return out.str();
}

bool
deviceConfigsEqual(const DeviceConfig &a, const DeviceConfig &b)
{
    const MemControllerConfig &ca = a.controller;
    const MemControllerConfig &cb = b.controller;
    return a.numChannels == b.numChannels &&
           a.dataRate == b.dataRate &&
           a.busWidthBits == b.busWidthBits &&
           ca.timing.tCK == cb.timing.tCK &&
           ca.timing.tRCD == cb.timing.tRCD &&
           ca.timing.tCAS == cb.timing.tCAS &&
           ca.timing.tWP == cb.timing.tWP &&
           ca.timing.tFAW == cb.timing.tFAW &&
           ca.timing.tBurst == cb.timing.tBurst &&
           ca.geometry.numBanks == cb.geometry.numBanks &&
           ca.geometry.numRanks == cb.geometry.numRanks &&
           ca.geometry.capacityBytes == cb.geometry.capacityBytes &&
           ca.geometry.rowBufferBytes == cb.geometry.rowBufferBytes &&
           ca.geometry.rowBytes == cb.geometry.rowBytes &&
           ca.geometry.interleaveBytes == cb.geometry.interleaveBytes &&
           ca.geometry.pageScramble == cb.geometry.pageScramble &&
           ca.geometry.pageBytes == cb.geometry.pageBytes &&
           ca.endurance.baseWriteLatency ==
               cb.endurance.baseWriteLatency &&
           ca.endurance.baseEndurance == cb.endurance.baseEndurance &&
           ca.endurance.expoFactor == cb.endurance.expoFactor &&
           ca.energy.cell == cb.energy.cell &&
           ca.energy.cellEnergyOverridePj ==
               cb.energy.cellEnergyOverridePj &&
           ca.energy.peripheralWritePj == cb.energy.peripheralWritePj &&
           ca.energy.peripheralSlowWritePj ==
               cb.energy.peripheralSlowWritePj &&
           ca.energy.bitsPerWrite == cb.energy.bitsPerWrite &&
           ca.energy.slowCellEnergyFactor ==
               cb.energy.slowCellEnergyFactor &&
           ca.energy.bufferReadPj == cb.energy.bufferReadPj &&
           ca.energy.rowHitReadPj == cb.energy.rowHitReadPj &&
           ca.readQueueSize == cb.readQueueSize &&
           ca.writeQueueSize == cb.writeQueueSize &&
           ca.eagerQueueSize == cb.eagerQueueSize &&
           ca.drainLowThreshold == cb.drainLowThreshold &&
           ca.busLeadBursts == cb.busLeadBursts &&
           ca.forwardLatency == cb.forwardLatency &&
           ca.recentReadWindow == cb.recentReadWindow &&
           ca.maxWriteCancellations == cb.maxWriteCancellations &&
           ca.levelingEfficiency == cb.levelingEfficiency;
}

} // namespace mellowsim
