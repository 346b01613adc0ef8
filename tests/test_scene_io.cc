/**
 * @file
 * Tests for scene serialization: round-trip fidelity (the saved and
 * reloaded scene renders the identical image with identical timing),
 * format errors, and config option parsing for the CLI driver.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/sim_error.hh"
#include "core/gpu.hh"
#include "workloads/scene_io.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

GpuConfig
smallCfg()
{
    GpuConfig cfg;
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    return cfg;
}

TEST(SceneIo, RoundTripStructure)
{
    GpuConfig cfg = smallCfg();
    const Scene a = generateScene(benchmarkByAlias("GTr"), cfg);
    std::stringstream ss;
    saveScene(ss, a);
    const Scene b = loadScene(ss);

    ASSERT_EQ(a.textures.size(), b.textures.size());
    for (std::size_t i = 0; i < a.textures.size(); ++i) {
        EXPECT_EQ(a.textures[i].baseAddr(), b.textures[i].baseAddr());
        EXPECT_EQ(a.textures[i].side(), b.textures[i].side());
        EXPECT_EQ(a.textures[i].format(), b.textures[i].format());
    }
    ASSERT_EQ(a.draws.size(), b.draws.size());
    for (std::size_t i = 0; i < a.draws.size(); ++i) {
        const DrawCommand &da = a.draws[i];
        const DrawCommand &db = b.draws[i];
        EXPECT_EQ(da.texture, db.texture);
        EXPECT_EQ(da.vertexBufferAddr, db.vertexBufferAddr);
        EXPECT_EQ(da.shader.aluOps, db.shader.aluOps);
        EXPECT_EQ(da.shader.texSamples, db.shader.texSamples);
        EXPECT_EQ(da.shader.filter, db.shader.filter);
        EXPECT_EQ(da.shader.blends, db.shader.blends);
        EXPECT_EQ(da.indices, db.indices);
        ASSERT_EQ(da.vertices.size(), db.vertices.size());
        for (std::size_t v = 0; v < da.vertices.size(); ++v) {
            EXPECT_EQ(da.vertices[v].pos, db.vertices[v].pos);
            EXPECT_EQ(da.vertices[v].uv, db.vertices[v].uv);
        }
    }
}

TEST(SceneIo, RoundTripRendersIdentically)
{
    // The strongest property: a reloaded scene is indistinguishable to
    // the simulator — same image, same cycles, same memory traffic.
    GpuConfig cfg = smallCfg();
    const Scene a = generateScene(benchmarkByAlias("CCS"), cfg);
    std::stringstream ss;
    saveScene(ss, a);
    const Scene b = loadScene(ss);

    GpuSimulator ga(cfg, a), gb(cfg, b);
    const FrameStats fa = ga.renderFrame();
    const FrameStats fb = gb.renderFrame();
    EXPECT_EQ(fa.imageHash, fb.imageHash);
    EXPECT_EQ(fa.totalCycles, fb.totalCycles);
    EXPECT_EQ(fa.l2Accesses, fb.l2Accesses);
}

TEST(SceneIo, TinySceneRoundTrip)
{
    GpuConfig cfg = smallCfg();
    const Scene a = makeTinyScene(cfg);
    std::stringstream ss;
    saveScene(ss, a);
    const Scene b = loadScene(ss);
    EXPECT_EQ(b.draws.size(), 2u);
    EXPECT_TRUE(b.draws[1].shader.blends);
}

/**
 * Expect loadScene() on @p text to throw SimError{UserInput} whose
 * one-line describe() contains @p needle, and (when non-empty) whose
 * context starts with @p ctx_prefix — the "source:line:column" anchor
 * every scene diagnostic must carry.
 */
void
expectSceneError(const std::string &text, const std::string &needle,
                 const std::string &ctx_prefix = "")
{
    std::stringstream ss(text);
    try {
        loadScene(ss, "test.dscene");
        FAIL() << "expected SimError containing: " << needle;
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput) << e.describe();
        EXPECT_NE(e.describe().find(needle), std::string::npos)
            << e.describe();
        if (!ctx_prefix.empty()) {
            EXPECT_EQ(e.context().rfind(ctx_prefix, 0), 0u)
                << e.context();
        }
    }
}

TEST(SceneIoErrors, RejectsBadHeader)
{
    expectSceneError("NOT_A_SCENE v9\n", "bad scene magic",
                     "test.dscene:1:1");
}

TEST(SceneIoErrors, RejectsUnsupportedVersion)
{
    expectSceneError("DTEXL_SCENE v9\n", "unsupported scene version",
                     "test.dscene:1:13");
}

TEST(SceneIoErrors, RejectsTruncatedFile)
{
    expectSceneError("DTEXL_SCENE v1\n"
                     "textures 1\n",
                     "unexpected end of file");
}

TEST(SceneIoErrors, RejectsDanglingTextureReference)
{
    expectSceneError(
        "DTEXL_SCENE v1\n"
        "textures 1\n"
        "  0 4096 64 RGBA8\n"
        "draws 1\n"
        "draw tex=7 vb=0 alu=4 samples=1 filter=bilinear blends=0 "
        "modifies_depth=0\n"
        "  verts 0\n"
        "  indices 0\n",
        "references texture 7", "test.dscene:5");
}

TEST(SceneIoErrors, RejectsNaNVertex)
{
    expectSceneError(
        "DTEXL_SCENE v1\n"
        "textures 1\n"
        "  0 4096 64 RGBA8\n"
        "draws 1\n"
        "draw tex=0 vb=0 alu=4 samples=1 filter=bilinear blends=0 "
        "modifies_depth=0\n"
        "  verts 1\n"
        "    0 nan 0 1 0 0\n"
        "  indices 0\n",
        "must be finite", "test.dscene:7");
}

TEST(SceneIoErrors, RejectsGarbageNumber)
{
    expectSceneError("DTEXL_SCENE v1\n"
                     "textures banana\n",
                     "texture count is not a non-negative integer: "
                     "'banana'",
                     "test.dscene:2:10");
}

TEST(SceneIoErrors, RejectsOutOfRangeIndex)
{
    expectSceneError(
        "DTEXL_SCENE v1\n"
        "textures 1\n"
        "  0 4096 64 RGBA8\n"
        "draws 1\n"
        "draw tex=0 vb=0 alu=4 samples=1 filter=bilinear blends=0 "
        "modifies_depth=0\n"
        "  verts 1\n"
        "    0 0 0 1 0 0\n"
        "  indices 3\n"
        "    0 1 2\n",
        "index out of range", "test.dscene:9");
}

TEST(SimdGuards, SceneLoaderRejectsNonPow2Side)
{
    std::stringstream ss("DTEXL_SCENE v1\n"
                         "textures 1\n"
                         "  0 4096 48 RGBA8\n"
                         "draws 0\n");
    try {
        loadScene(ss, "test.dscene");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput) << e.describe();
        EXPECT_NE(e.describe().find("power of two"), std::string::npos)
            << e.describe();
        EXPECT_EQ(e.context().rfind("test.dscene:3", 0), 0u)
            << e.context();
    }
}

// ---------- config option parsing ----------

TEST(ConfigOptions, AppliesSchedulingKeys)
{
    GpuConfig cfg = makeBaselineConfig();
    applyConfigOption(cfg, "grouping", "CG-square");
    applyConfigOption(cfg, "order", "Hilbert");
    applyConfigOption(cfg, "assignment", "flp2");
    applyConfigOption(cfg, "decoupled", "1");
    applyConfigOption(cfg, "hiz", "true");
    EXPECT_EQ(cfg.grouping, QuadGrouping::CGSquare);
    EXPECT_EQ(cfg.tileOrder, TileOrder::RectHilbert);
    EXPECT_EQ(cfg.assignment, SubtileAssignment::Flip2);
    EXPECT_TRUE(cfg.decoupledBarriers);
    EXPECT_TRUE(cfg.hierarchicalZ);
}

TEST(ConfigOptions, AppliesMachineKeys)
{
    GpuConfig cfg = makeBaselineConfig();
    applyConfigOption(cfg, "warps", "12");
    applyConfigOption(cfg, "fifo", "32");
    applyConfigOption(cfg, "width", "980");
    applyConfigOption(cfg, "height", "384");
    applyConfigOption(cfg, "l1tex_kib", "32");
    EXPECT_EQ(cfg.maxWarpsPerCore, 12u);
    EXPECT_EQ(cfg.stageFifoDepth, 32u);
    EXPECT_EQ(cfg.screenWidth, 980u);
    EXPECT_EQ(cfg.textureCache.sizeBytes, 32u * 1024);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(ConfigOptionsErrors, RejectsUnknownKey)
{
    GpuConfig cfg;
    EXPECT_THROW(applyConfigOption(cfg, "bogus", "1"), SimError);
    try {
        applyConfigOption(cfg, "bogus", "1");
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::UserInput);
        EXPECT_NE(std::string(e.what()).find("unknown config option"),
                  std::string::npos);
    }
}

TEST(ConfigOptionsErrors, RejectsBadValue)
{
    GpuConfig cfg;
    EXPECT_THROW(applyConfigOption(cfg, "warps", "many"), SimError);
    EXPECT_THROW(applyConfigOption(cfg, "grouping", "CG-blob"),
                 SimError);
}

TEST(ConfigOptions, EnumRoundTrip)
{
    for (QuadGrouping g : kAllQuadGroupings)
        EXPECT_EQ(quadGroupingFromString(toString(g)), g);
    for (TileOrder o : kAllTileOrders)
        EXPECT_EQ(tileOrderFromString(toString(o)), o);
    for (SubtileAssignment a : kAllSubtileAssignments)
        EXPECT_EQ(subtileAssignmentFromString(toString(a)), a);
}

} // namespace
} // namespace dtexl
