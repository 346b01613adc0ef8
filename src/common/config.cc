#include "common/config.hh"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "common/log.hh"
#include "common/sim_error.hh"

namespace dtexl {

bool
isCoarseGrained(QuadGrouping g)
{
    switch (g) {
      case QuadGrouping::CGXRect:
      case QuadGrouping::CGYRect:
      case QuadGrouping::CGTriangle:
      case QuadGrouping::CGSquare:
        return true;
      default:
        return false;
    }
}

std::string
toString(QuadGrouping g)
{
    switch (g) {
      case QuadGrouping::FGChecker:  return "FG-checker";
      case QuadGrouping::FGXShift1:  return "FG-xshift1";
      case QuadGrouping::FGXShift2:  return "FG-xshift2";
      case QuadGrouping::FGYShift2:  return "FG-yshift2";
      case QuadGrouping::FGVDomino:  return "FG-vdomino";
      case QuadGrouping::FGHDomino:  return "FG-hdomino";
      case QuadGrouping::CGXRect:    return "CG-xrect";
      case QuadGrouping::CGYRect:    return "CG-yrect";
      case QuadGrouping::CGTriangle: return "CG-triangle";
      case QuadGrouping::CGSquare:   return "CG-square";
    }
    panic("unknown QuadGrouping %d", static_cast<int>(g));
}

std::string
toString(TileOrder o)
{
    switch (o) {
      case TileOrder::Scanline:    return "Scanline";
      case TileOrder::SOrder:      return "S-order";
      case TileOrder::ZOrder:      return "Z-order";
      case TileOrder::RectHilbert: return "Hilbert";
    }
    panic("unknown TileOrder %d", static_cast<int>(o));
}

std::string
toString(SubtileAssignment a)
{
    switch (a) {
      case SubtileAssignment::Constant: return "const";
      case SubtileAssignment::Flip1:    return "flp1";
      case SubtileAssignment::Flip2:    return "flp2";
      case SubtileAssignment::Flip3:    return "flp3";
    }
    panic("unknown SubtileAssignment %d", static_cast<int>(a));
}

std::string
GpuConfig::describe() const
{
    std::ostringstream os;
    os << "Global Parameters\n"
       << "  Clock             : " << clockHz / 1'000'000 << " MHz\n"
       << "  Screen Resolution : " << screenWidth << "x" << screenHeight
       << "\n"
       << "  Tile Size         : " << tileSize << "x" << tileSize << "\n"
       << "  Tiles             : " << tilesX() << "x" << tilesY() << " = "
       << numTiles() << "\n"
       << "  Pipelines / SCs   : " << numPipelines << "\n"
       << "Scheduling\n"
       << "  Quad Grouping     : " << toString(grouping) << "\n"
       << "  Tile Order        : " << toString(tileOrder) << "\n"
       << "  Subtile Assignment: " << toString(assignment) << "\n"
       << "  Barriers          : "
       << (decoupledBarriers ? "decoupled" : "coupled") << "\n"
       << "Caches (size/ways/latency)\n"
       << "  Vertex  : " << vertexCache.sizeBytes / 1024 << " KiB, "
       << vertexCache.ways << "-way, " << vertexCache.hitLatency
       << " cycle\n"
       << "  Texture : " << textureCache.sizeBytes / 1024 << " KiB x"
       << numPipelines << ", " << textureCache.ways << "-way, "
       << textureCache.hitLatency << " cycle\n"
       << "  Tile    : " << tileCache.sizeBytes / 1024 << " KiB, "
       << tileCache.ways << "-way, " << tileCache.hitLatency << " cycle\n"
       << "  L2      : " << l2Cache.sizeBytes / 1024 << " KiB, "
       << l2Cache.ways << "-way, " << l2Cache.hitLatency << " cycles\n"
       << "Main Memory\n"
       << "  Latency : " << dram.rowHitLatency << "-" << dram.rowMissLatency
       << " cycles, " << dram.numBanks << " banks\n";
    return os.str();
}

void
GpuConfig::validate() const
{
    // Every check names the offending knob and its legal range; the
    // whole function throws SimError{Config} only (never exits), so a
    // bad job in a batch fails alone (core/engine.cc).
    if (clockHz == 0)
        throwConfigError("clockHz must be positive");
    if (screenWidth == 0 || screenHeight == 0 ||
        screenWidth > kMaxScreenSide || screenHeight > kMaxScreenSide)
        throwConfigError(
            "screen resolution %ux%u: width and height must be in "
            "[1, %u]", screenWidth, screenHeight, kMaxScreenSide);
    // Every pipeline count builds the subtile layout, which needs a
    // tile side of whole 2x2 quads that is a multiple of 4 quads.
    if (tileSize == 0 || tileSize % 8 != 0)
        throwConfigError(
            "tile size %u: must be a positive multiple of 8 (the "
            "subtile layout needs tile/2 quads per side to be a "
            "multiple of 4)", tileSize);
    if (numPipelines != 1 && numPipelines != 4)
        throwConfigError(
            "numPipelines %u: must be 1 (upper bound) or 4",
            numPipelines);
    if (maxWarpsPerCore == 0)
        throwConfigError("warps (maxWarpsPerCore) must be >= 1");
    if (stageFifoDepth == 0)
        throwConfigError("fifo (stageFifoDepth) must be >= 1");
    if (rasterQuadsPerCycle == 0)
        throwConfigError("rasterQuadsPerCycle must be >= 1");
    auto check_cache = [](const char *name, const CacheConfig &c) {
        if (c.sizeBytes == 0 || c.lineBytes == 0 || c.ways == 0)
            throwConfigError(
                "%s cache: size (%u B), line (%u B) and ways (%u) must "
                "all be positive", name, c.sizeBytes, c.lineBytes,
                c.ways);
        if ((c.lineBytes & (c.lineBytes - 1)) != 0)
            throwConfigError(
                "%s cache: line size %u B must be a power of two",
                name, c.lineBytes);
        if (c.sizeBytes % (c.lineBytes * c.ways) != 0)
            throwConfigError(
                "%s cache: size %u B not divisible into %u-way sets of "
                "%u B lines", name, c.sizeBytes, c.ways, c.lineBytes);
        if ((c.numSets() & (c.numSets() - 1)) != 0)
            throwConfigError(
                "%s cache: set count %u must be a power of two", name,
                c.numSets());
        if (c.numMshrs == 0)
            throwConfigError("%s cache: numMshrs must be >= 1", name);
    };
    check_cache("vertex", vertexCache);
    check_cache("texture", textureCache);
    check_cache("tile", tileCache);
    check_cache("L2", l2Cache);
    if (dram.bytesPerCycle == 0 || dram.numBanks == 0)
        throwConfigError(
            "dram: bytesPerCycle (%u) and numBanks (%u) must be "
            "positive", dram.bytesPerCycle, dram.numBanks);
    if (dram.rowBytes == 0)
        throwConfigError("dram: rowBytes must be positive");
    if (dram.rowMissLatency < dram.rowHitLatency)
        throwConfigError(
            "dram: rowMissLatency %u must be >= rowHitLatency %u",
            dram.rowMissLatency, dram.rowHitLatency);
    if (telemetryLevel > 2)
        throwConfigError(
            "telemetry level %u: must be 0, 1 or 2", telemetryLevel);
    if (geomThreads != 1)
        throwUserError("geomThreads %u: must be 1 (every simulation "
                       "runs on one host thread)", geomThreads);
    if (rasterThreads != 1)
        throwUserError("rasterThreads %u: must be 1 (every simulation "
                       "runs on one host thread)", rasterThreads);
}

GpuConfig
makeBaselineConfig()
{
    GpuConfig cfg;
    cfg.grouping = QuadGrouping::FGXShift2;
    cfg.tileOrder = TileOrder::ZOrder;
    cfg.assignment = SubtileAssignment::Constant;
    cfg.decoupledBarriers = false;
    return cfg;
}

GpuConfig
makeDTexLConfig()
{
    GpuConfig cfg;
    cfg.grouping = QuadGrouping::CGSquare;
    cfg.tileOrder = TileOrder::RectHilbert;
    cfg.assignment = SubtileAssignment::Flip2;
    cfg.decoupledBarriers = true;
    return cfg;
}

QuadGrouping
quadGroupingFromString(const std::string &name)
{
    for (QuadGrouping g : kAllQuadGroupings)
        if (toString(g) == name)
            return g;
    fatal("unknown quad grouping '%s'", name.c_str());
}

TileOrder
tileOrderFromString(const std::string &name)
{
    for (TileOrder o : kAllTileOrders)
        if (toString(o) == name)
            return o;
    fatal("unknown tile order '%s'", name.c_str());
}

SubtileAssignment
subtileAssignmentFromString(const std::string &name)
{
    for (SubtileAssignment a : kAllSubtileAssignments)
        if (toString(a) == name)
            return a;
    fatal("unknown subtile assignment '%s'", name.c_str());
}

std::string
toString(WarpSched w)
{
    switch (w) {
      case WarpSched::EarliestReady: return "earliest";
      case WarpSched::OldestFirst:   return "oldest";
      case WarpSched::Greedy:        return "greedy";
    }
    panic("unknown WarpSched %d", static_cast<int>(w));
}

namespace {

/**
 * Parse a non-negative decimal option value. strtoull alone accepts a
 * leading '-' or whitespace (negating modulo 2^64) and saturates on
 * overflow; both would silently rewrite the value, so both are
 * rejected naming the key.
 */
std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    if (value.empty() || value[0] < '0' || value[0] > '9')
        fatal("option %s: '%s' is not a non-negative number",
              key.c_str(), value.c_str());
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (*end != '\0')
        fatal("option %s: '%s' is not a number", key.c_str(),
              value.c_str());
    if (errno == ERANGE)
        fatal("option %s: %s is out of range", key.c_str(),
              value.c_str());
    return v;
}

/**
 * parseU64() for a 32-bit field holding value * @p scale (the byte
 * size of a *_kib option): values whose product overflows 32 bits are
 * rejected instead of wrapping.
 */
std::uint32_t
parseUint(const std::string &key, const std::string &value,
          std::uint32_t scale = 1)
{
    const std::uint64_t v = parseU64(key, value);
    if (v > UINT32_MAX / scale)
        fatal("option %s: %s is out of range (max %u)", key.c_str(),
              value.c_str(), UINT32_MAX / scale);
    return static_cast<std::uint32_t>(v * scale);
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on")
        return true;
    if (value == "0" || value == "false" || value == "off")
        return false;
    fatal("option %s: '%s' is not a boolean", key.c_str(),
          value.c_str());
}

} // namespace

void
applyConfigOption(GpuConfig &cfg, const std::string &key,
                  const std::string &value)
{
    if (key == "grouping") {
        cfg.grouping = quadGroupingFromString(value);
    } else if (key == "order") {
        cfg.tileOrder = tileOrderFromString(value);
    } else if (key == "assignment") {
        cfg.assignment = subtileAssignmentFromString(value);
    } else if (key == "decoupled") {
        cfg.decoupledBarriers = parseBool(key, value);
    } else if (key == "hiz") {
        cfg.hierarchicalZ = parseBool(key, value);
    } else if (key == "prefetch") {
        cfg.texturePrefetch = parseBool(key, value);
    } else if (key == "te") {
        cfg.transactionElimination = parseBool(key, value);
    } else if (key == "warp_sched") {
        if (value == "earliest")
            cfg.warpScheduler = WarpSched::EarliestReady;
        else if (value == "oldest")
            cfg.warpScheduler = WarpSched::OldestFirst;
        else if (value == "greedy")
            cfg.warpScheduler = WarpSched::Greedy;
        else
            fatal("option warp_sched: unknown policy '%s'",
                  value.c_str());
    } else if (key == "warps") {
        cfg.maxWarpsPerCore = parseUint(key, value);
    } else if (key == "fifo") {
        cfg.stageFifoDepth = parseUint(key, value);
    } else if (key == "width") {
        cfg.screenWidth = parseUint(key, value);
    } else if (key == "height") {
        cfg.screenHeight = parseUint(key, value);
    } else if (key == "tile") {
        cfg.tileSize = parseUint(key, value);
    } else if (key == "l1tex_kib") {
        cfg.textureCache.sizeBytes = parseUint(key, value, 1024);
    } else if (key == "l2_kib") {
        cfg.l2Cache.sizeBytes = parseUint(key, value, 1024);
    } else if (key == "telemetry") {
        cfg.telemetryLevel = parseUint(key, value);
    } else if (key == "watchdog_cycles") {
        cfg.watchdogCycles = parseU64(key, value);  // 0 disables
    } else {
        fatal("unknown config option '%s'", key.c_str());
    }
}

GpuConfig
makeUpperBoundConfig()
{
    GpuConfig cfg = makeBaselineConfig();
    cfg.numPipelines = 1;
    cfg.textureCache.sizeBytes *= 4;
    cfg.maxWarpsPerCore *= 4;
    cfg.grouping = QuadGrouping::CGSquare;  // irrelevant with one SC
    return cfg;
}

} // namespace dtexl
