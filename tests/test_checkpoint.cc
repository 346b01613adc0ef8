/**
 * @file
 * Checkpoint/resume determinism battery (src/cache/checkpoint.hh,
 * SimulationSession::saveCheckpoint/tryResumeCheckpoint): a job killed
 * at ANY checkpoint boundary and resumed must finish with byte-identical
 * FrameStats, image hashes and registry counters — including when the
 * resuming process uses different host thread counts, and including
 * when the checkpoint on disk is corrupt (detected, logged, restart
 * from frame 0, still bit-exact). Also proves the engine-level --resume
 * path through runBatch().
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/checkpoint.hh"
#include "cache/result_key.hh"
#include "cache/result_store.hh"
#include "common/fault_inject.hh"
#include "common/log.hh"
#include "common/serial.hh"
#include "core/dtexl.hh"
#include "stats_equality.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

constexpr std::uint32_t kFrames = 4;

GpuConfig
small(GpuConfig cfg)
{
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    return cfg;
}

std::string
tempDir(const std::string &name)
{
    // Pid-suffixed so a previous test invocation's artifacts can never
    // satisfy this run's lookups.
    const std::string dir = ::testing::TempDir() + "dtexl_" + name +
                            "." + std::to_string(::getpid());
    ensureDirectory(dir);
    return dir;
}

std::vector<Scene>
makeScenes(const char *alias, const GpuConfig &cfg, std::uint32_t n)
{
    std::vector<Scene> scenes;
    for (std::uint32_t f = 0; f < n; ++f)
        scenes.push_back(generateScene(benchmarkByAlias(alias), cfg, f));
    return scenes;
}

/** The exact key runJob() derives for a (scenes, cfg) job. */
ResultKey
makeKey(const std::vector<Scene> &scenes, const GpuConfig &cfg)
{
    Fnv1a64 chain;
    chain.u32(static_cast<std::uint32_t>(scenes.size()));
    for (const Scene &s : scenes)
        chain.u64(hashScene(s));
    return ResultKey{chain.value(), hashConfig(cfg),
                     buildFingerprint()};
}

/** An uninterrupted n-frame run of (scenes, cfg) under @p label. */
std::vector<FrameStats>
uninterruptedRun(const GpuConfig &cfg, const std::vector<Scene> &scenes,
                 const std::string &label, StatRegistry *reg)
{
    SimulationSession session(cfg, scenes[0], label);
    if (reg)
        session.setStatRegistry(reg);
    session.renderFrame();
    for (std::uint32_t f = 1; f < scenes.size(); ++f)
        session.renderFrame(scenes[f]);
    return session.history();
}

// ---- The kill-at-every-checkpoint resume matrix ------------------

TEST(CheckpointTest, ResumeAtEveryFrameBoundaryIsBitExact)
{
    const std::string dir = tempDir("ckpt_matrix");
    // Baseline and full-DTexL machines. A fresh simulator plus the
    // restored warm state must equal a continuous run, so this is also
    // the proof that the per-frame in-place pipeline reset carries no
    // state beyond the checkpointed warm state. The telemetry variant
    // exercises the cumulative-track restore path (and the
    // skip-telemetry fragment rule); the extensions variant carries
    // cross-frame flush CRCs (transaction elimination) and per-tile
    // HiZ state.
    GpuConfig telemetry_cfg = small(makeDTexLConfig());
    telemetry_cfg.telemetryLevel = 1;
    GpuConfig ext_cfg = small(makeBaselineConfig());
    ext_cfg.hierarchicalZ = true;
    ext_cfg.transactionElimination = true;
    ext_cfg.decoupledBarriers = true;
    const struct
    {
        const char *name;
        const char *alias;
        GpuConfig cfg;
    } presets[] = {
        {"baseline", "GTr", small(makeBaselineConfig())},
        {"baseline_swa", "SWa", small(makeBaselineConfig())},
        {"dtexl", "GTr", small(makeDTexLConfig())},
        {"dtexl_telemetry", "GTr", telemetry_cfg},
        {"extensions_ccs", "CCS", ext_cfg},
    };

    for (const auto &[name, alias, cfg] : presets) {
        SCOPED_TRACE(name);
        const std::vector<Scene> scenes = makeScenes(alias, cfg, kFrames);
        const ResultKey key = makeKey(scenes, cfg);

        StatRegistry ref_reg("ref");
        const std::vector<FrameStats> ref =
            uninterruptedRun(cfg, scenes, "job.t", &ref_reg);

        for (std::uint32_t k = 1; k < kFrames; ++k) {
            SCOPED_TRACE("killed after frame " + std::to_string(k));
            const std::string path =
                dir + "/ckpt-" + name + "-" + std::to_string(k) + ".bin";

            // The "killed" process: renders k frames, checkpoints, dies.
            {
                StatRegistry reg("victim");
                SimulationSession session(cfg, scenes[0], "job.t");
                session.setStatRegistry(&reg);
                session.renderFrame();
                for (std::uint32_t f = 1; f < k; ++f)
                    session.renderFrame(scenes[f]);
                session.saveCheckpoint(path, key);
            }

            // The resuming process: fresh simulator, fresh registry.
            StatRegistry reg("resumed");
            SimulationSession session(cfg, scenes[0], "job.t");
            session.setStatRegistry(&reg);
            ASSERT_EQ(session.tryResumeCheckpoint(path, key), k);
            for (std::uint32_t f = k; f < kFrames; ++f)
                session.renderFrame(scenes[f]);

            expectSameHistory(ref, session.history(), "history");
            expectSameRegistry(ref_reg, reg);
        }
    }
}

// ---- Failure paths -----------------------------------------------

TEST(CheckpointTest, CorruptCheckpointRestartsFromScratchBitExact)
{
    setLogQuiet(true);
    const std::string dir = tempDir("ckpt_corrupt");
    const GpuConfig cfg = small(makeBaselineConfig());
    const std::vector<Scene> scenes = makeScenes("Mze", cfg, 2);
    const ResultKey key = makeKey(scenes, cfg);
    const std::vector<FrameStats> ref =
        uninterruptedRun(cfg, scenes, "job.t", nullptr);

    const std::string path = dir + "/ckpt.bin";
    {
        SimulationSession session(cfg, scenes[0], "job.t");
        session.renderFrame();
        session.saveCheckpoint(path, key);
    }

    // A bit-flipped checkpoint must be rejected by its checksum: the
    // resume yields 0 and the fresh run is still bit-exact.
    SimulationSession session(cfg, scenes[0], "job.t");
    {
        ScopedFault fault(FaultSite::CkptFlipByte);
        EXPECT_EQ(session.tryResumeCheckpoint(path, key), 0u);
        EXPECT_EQ(FaultInject::global().fired(FaultSite::CkptFlipByte),
                  1u);
    }
    session.renderFrame();
    session.renderFrame(scenes[1]);
    expectSameHistory(ref, session.history(), "after corrupt resume");
    setLogQuiet(false);
}

TEST(CheckpointTest, WrongKeyAndMissingFileResumeNothing)
{
    setLogQuiet(true);
    const std::string dir = tempDir("ckpt_wrongkey");
    const GpuConfig cfg = small(makeBaselineConfig());
    const std::vector<Scene> scenes = makeScenes("Mze", cfg, 2);
    const ResultKey key = makeKey(scenes, cfg);

    const std::string path = dir + "/ckpt.bin";
    {
        SimulationSession session(cfg, scenes[0], "job.t");
        session.renderFrame();
        session.saveCheckpoint(path, key);
    }

    SimulationSession session(cfg, scenes[0], "job.t");
    ResultKey other = key;
    other.scene ^= 1;  // another job's checkpoint: never restored
    EXPECT_EQ(session.tryResumeCheckpoint(path, other), 0u);
    EXPECT_EQ(session.tryResumeCheckpoint(dir + "/absent.bin", key), 0u);
    setLogQuiet(false);
}

TEST(CheckpointTest, MidRestoreFailureResetsToColdState)
{
    // A checkpoint that frames/parses fine but was produced by a
    // different machine geometry fails inside restoreWarmState() (cache
    // line-count mismatch) after some warm state may already be in
    // place; the session must reset itself back to cold so the
    // from-scratch rerun stays bit-exact.
    setLogQuiet(true);
    const std::string dir = tempDir("ckpt_midfail");
    const GpuConfig cfg = small(makeBaselineConfig());
    GpuConfig bigger = cfg;
    bigger.textureCache.sizeBytes *= 2;
    const std::vector<Scene> scenes = makeScenes("Mze", cfg, 2);
    const ResultKey key{1, 2, 3};  // same key on both sides, on purpose
    const std::vector<FrameStats> ref =
        uninterruptedRun(cfg, scenes, "job.t", nullptr);

    const std::string path = dir + "/ckpt.bin";
    {
        SimulationSession session(bigger, scenes[0], "job.t");
        session.renderFrame();
        session.saveCheckpoint(path, key);
    }

    SimulationSession session(cfg, scenes[0], "job.t");
    EXPECT_EQ(session.tryResumeCheckpoint(path, key), 0u);
    session.renderFrame();
    session.renderFrame(scenes[1]);
    expectSameHistory(ref, session.history(), "after failed restore");
    setLogQuiet(false);
}

// ---- The engine-level --resume path ------------------------------

TEST(CheckpointTest, RunBatchResumesFromAnInterruptedJob)
{
    setLogQuiet(true);
    const std::string dir = tempDir("ckpt_batch");
    const GpuConfig cfg = small(makeBaselineConfig());
    const std::vector<Scene> scenes = makeScenes("GTr", cfg, kFrames);

    std::vector<BatchJob> jobs;
    BatchJob bj;
    bj.label = "GTr";
    bj.cfg = cfg;
    const std::vector<Scene> *s = &scenes;
    bj.scene = [s](std::uint32_t f) -> const Scene & { return (*s)[f]; };
    bj.frames = kFrames;
    jobs.push_back(std::move(bj));

    ResultCache &rc = ResultCache::global();
    rc.resetForTests();

    // Reference: the same batch, uninterrupted and cache-less.
    StatRegistry ref_reg("ref");
    const std::vector<BatchResult> ref = runBatch(jobs, 1, &ref_reg);
    ASSERT_TRUE(ref[0].ok);

    // "Interrupted run": a victim process rendered 2 of 4 frames and
    // checkpointed at the exact path runJob() derives, then died.
    rc.configure(dir, CacheMode::Off, /*checkpointEvery=*/2,
                 /*resume=*/true);
    const ResultKey key = makeKey(scenes, cfg);
    {
        StatRegistry reg("victim");
        SimulationSession session(cfg, scenes[0], "job.GTr");
        session.setStatRegistry(&reg);
        session.renderFrame();
        session.renderFrame(scenes[1]);
        session.saveCheckpoint(rc.store()->checkpointPath(key), key);
    }

    // --resume: the batch picks the checkpoint up, finishes the job,
    // and deletes the consumed checkpoint.
    StatRegistry reg("resumed");
    const std::vector<BatchResult> res = runBatch(jobs, 1, &reg);
    ASSERT_TRUE(res[0].ok);
    EXPECT_EQ(rc.resumes(), 1u);
    expectSameHistory(ref[0].frames, res[0].frames, "batch resume");
    expectSameRegistry(ref_reg, reg);
    std::vector<std::uint8_t> leftover;
    EXPECT_FALSE(readFileBytes(rc.store()->checkpointPath(key),
                               leftover))
        << "consumed checkpoint must be deleted";

    rc.resetForTests();
    setLogQuiet(false);
}

} // namespace
} // namespace dtexl
