// Deterministic checkpoint/resume. The contract under test: for any stop
// time T1 < end, `run-to-end` and `run-to-T1 + save + restore into a fresh
// engine + resume-to-end` produce the same canonical state digest, bit for
// bit, on both the platform and the fleet simulator under chaos. Plus the
// checkpoint file format itself: header round-trip, atomic write, and
// fail-closed loading of malformed or mismatched files.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/billing/catalog.h"
#include "src/cluster/fleet_sim.h"
#include "src/common/fileio.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/integrity/archive.h"
#include "src/integrity/checkpoint.h"
#include "src/platform/platform_sim.h"
#include "src/platform/presets.h"
#include "src/platform/workload.h"
#include "src/trace/generator.h"
#include "tests/integrity/churn_scenarios.h"

namespace faascost {
namespace {

constexpr MicroSecs kSec = kMicrosPerSec;

PlatformSimConfig ChaosPlatformConfig() {
  PlatformSimConfig cfg = AwsLambdaPlatform(1.0, 1769.0);
  cfg.faults.crash_prob = 0.05;
  cfg.faults.init_failure_prob = 0.0125;
  cfg.retry.max_attempts = 3;
  return cfg;
}

std::vector<MicroSecs> PlatformArrivals() { return UniformArrivals(20.0, 30 * kSec); }

FleetSimConfig ChaosFleetConfig(uint64_t seed) {
  FleetSimConfig cfg;
  cfg.fault_seed = seed;
  cfg.retry.max_attempts = 3;
  cfg.host_faults.hosts = 16;
  cfg.host_faults.mtbf_seconds = 600.0;
  cfg.host_faults.mttr_seconds = 60.0;
  cfg.host_faults.graceful_fraction = 0.3;
  return cfg;
}

std::vector<RequestRecord> FleetTrace(uint64_t seed) {
  TraceGenConfig cfg;
  cfg.num_requests = 4'000;
  cfg.num_functions = 100;
  cfg.window = 600 * kSec;
  return TraceGenerator(cfg, seed).Generate();
}

std::string SavePlatformState(PlatformEngine& engine) {
  JsonWriter w;
  engine.SaveState(w);
  return w.str();
}

std::string SaveFleetState(FleetEngine& engine) {
  JsonWriter w;
  engine.SaveState(w);
  return w.str();
}

TEST(CheckpointResume, PlatformRunToEndEqualsResumeAcrossSeeds) {
  const PlatformSimConfig cfg = ChaosPlatformConfig();
  const std::vector<MicroSecs> arrivals = PlatformArrivals();
  for (const uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    PlatformEngine straight(cfg, seed);
    straight.Start(arrivals, PyAesWorkload());
    straight.RunToEnd();
    const uint64_t want = straight.Digest();

    PlatformEngine first(cfg, seed);
    first.Start(arrivals, PyAesWorkload());
    first.AdvanceUntil(10 * kSec);
    ASSERT_FALSE(first.done()) << "seed " << seed << ": stop time is not mid-run";
    const std::string state = SavePlatformState(first);
    const uint64_t mid = first.Digest();

    PlatformEngine resumed(cfg, seed);
    resumed.LoadState(ParseJson(state));
    EXPECT_EQ(resumed.Digest(), mid) << "seed " << seed << ": restore changed state";
    resumed.RunToEnd();
    EXPECT_EQ(resumed.Digest(), want) << "seed " << seed << ": resumed end diverged";

    // The finished results agree too, not just the digest.
    const PlatformSimResult a = straight.Finish();
    const PlatformSimResult b = resumed.Finish();
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.attempts.size(), b.attempts.size());
    EXPECT_EQ(a.cold_starts, b.cold_starts);
  }
}

TEST(CheckpointResume, PlatformSaveIsByteStableAcrossRestore) {
  const PlatformSimConfig cfg = ChaosPlatformConfig();
  PlatformEngine engine(cfg, 1);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(10 * kSec);
  const std::string state = SavePlatformState(engine);

  PlatformEngine restored(cfg, 1);
  restored.LoadState(ParseJson(state));
  EXPECT_EQ(SavePlatformState(restored), state);
}

TEST(CheckpointResume, FleetRunToEndEqualsResumeAcrossSeeds) {
  for (const uint64_t seed : {7ULL, 8ULL, 9ULL}) {
    const FleetSimConfig cfg = ChaosFleetConfig(seed);
    const std::vector<RequestRecord> trace = FleetTrace(seed);
    const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);

    FleetEngine straight(cfg);
    straight.Start(trace, billing);
    straight.RunToEnd();
    const uint64_t want = straight.Digest();

    FleetEngine first(cfg);
    first.Start(trace, billing);
    first.AdvanceUntil(200 * kSec);
    ASSERT_FALSE(first.done()) << "seed " << seed << ": stop time is not mid-run";
    const std::string state = SaveFleetState(first);
    const uint64_t mid = first.Digest();

    FleetEngine resumed(cfg);
    resumed.Resume(trace, billing, ParseJson(state));
    EXPECT_EQ(resumed.Digest(), mid) << "seed " << seed << ": restore changed state";
    resumed.RunToEnd();
    EXPECT_EQ(resumed.Digest(), want) << "seed " << seed << ": resumed end diverged";

    const FleetResult a = straight.Finish();
    const FleetResult b = resumed.Finish();
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_DOUBLE_EQ(a.revenue, b.revenue);
    EXPECT_DOUBLE_EQ(a.hardware_cost, b.hardware_cost);
  }
}

TEST(CheckpointResume, FleetSaveIsByteStableAcrossRestore) {
  const FleetSimConfig cfg = ChaosFleetConfig(7);
  const std::vector<RequestRecord> trace = FleetTrace(7);
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  FleetEngine engine(cfg);
  engine.Start(trace, billing);
  engine.AdvanceUntil(200 * kSec);
  const std::string state = SaveFleetState(engine);

  FleetEngine restored(cfg);
  restored.Resume(trace, billing, ParseJson(state));
  EXPECT_EQ(SaveFleetState(restored), state);
}

// Every field kind at its widest: SizeBound must cover what Saver writes.
struct WidestState {
  uint64_t u = std::numeric_limits<uint64_t>::max();
  int64_t i = std::numeric_limits<int64_t>::min();
  int n = std::numeric_limits<int>::min();
  bool b = false;
  double d = -std::numeric_limits<double>::max();
  std::string escaped = std::string("\x01\"\\\n", 4);
  std::vector<int64_t> vec = {std::numeric_limits<int64_t>::min(), -1, 0};

  template <typename Ar>
  void Archive(Ar& ar) {
    ar.Field("u", u);
    ar.Field("i", i);
    ar.Field("n", n);
    ar.Field("b", b);
    ar.Field("d", d);
    ar.Field("escaped", escaped);
    ar.I64Vec("vec", vec);
    ar.Begin("nested");
    ar.Field("u", u);
    ar.End();
    const size_t count = ar.BeginArray("elems", 3);
    for (size_t k = 0; k < count; ++k) {
      ar.BeginElem();
      ar.Field("i", i);
      ar.EndElem();
    }
    ar.EndArray();
  }
};

TEST(SizeBound, CoversWidestFields) {
  WidestState state;
  SizeBound bound;
  state.Archive(bound);
  JsonWriter w;
  Saver saver(&w);
  w.BeginObject();
  state.Archive(saver);
  w.EndObject();
  EXPECT_LE(w.str().size(), bound.bytes() + 3);
}

// The derived dispatch indexes are not archived: a restore rebuilds them
// from the archived sandbox state. These two scenarios stop mid-churn, with
// sandboxes draining, dead, and queued behind a cap, so a rebuilt index that
// differs from the live one shows up as a diverged end digest.
TEST(CheckpointResume, ChurnyGcpRunToEndEqualsResume) {
  const PlatformSimConfig cfg = ChurnyGcpConfig();
  const std::vector<MicroSecs> arrivals = ChurnyGcpArrivals();
  for (const uint64_t seed : {1ULL, 2ULL}) {
    PlatformEngine straight(cfg, seed);
    straight.Start(arrivals, ChurnyGcpWorkload());
    straight.RunToEnd();
    const uint64_t want = straight.Digest();

    for (const MicroSecs stop : {45 * kSec, 75 * kSec, 130 * kSec}) {
      PlatformEngine first(cfg, seed);
      first.Start(arrivals, ChurnyGcpWorkload());
      first.AdvanceUntil(stop);
      ASSERT_FALSE(first.done()) << "seed " << seed << ": stop time is not mid-run";
      const std::string state = SavePlatformState(first);

      PlatformEngine resumed(cfg, seed);
      resumed.LoadState(ParseJson(state));
      EXPECT_EQ(SavePlatformState(resumed), state) << "seed " << seed << " stop " << stop;
      resumed.RunToEnd();
      EXPECT_EQ(resumed.Digest(), want) << "seed " << seed << " stop " << stop;
    }
  }
}

TEST(CheckpointResume, CappedFleetRunToEndEqualsResume) {
  const BillingModel billing = MakeBillingModel(Platform::kAwsLambda);
  for (const uint64_t seed : {7ULL, 8ULL}) {
    const FleetSimConfig cfg = CappedFleetConfig(seed);
    const std::vector<RequestRecord> trace = CappedFleetTrace(seed);
    FleetEngine straight(cfg);
    straight.Start(trace, billing);
    straight.RunToEnd();
    const uint64_t want = straight.Digest();
    const FleetResult a = straight.Finish();

    for (const MicroSecs stop : {30 * kSec, 90 * kSec}) {
      FleetEngine first(cfg);
      first.Start(trace, billing);
      first.AdvanceUntil(stop);
      ASSERT_FALSE(first.done()) << "seed " << seed << ": stop time is not mid-run";
      const std::string state = SaveFleetState(first);

      FleetEngine resumed(cfg);
      resumed.Resume(trace, billing, ParseJson(state));
      EXPECT_EQ(SaveFleetState(resumed), state) << "seed " << seed << " stop " << stop;
      resumed.RunToEnd();
      EXPECT_EQ(resumed.Digest(), want) << "seed " << seed << " stop " << stop;

      const FleetResult b = resumed.Finish();
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.host_fault_sandbox_kills, b.host_fault_sandbox_kills);
      EXPECT_DOUBLE_EQ(a.hardware_cost, b.hardware_cost);
    }
  }
}

// --- Checkpoint file format ---

TEST(CheckpointFile, HeaderRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "/faascost_cp_roundtrip.json";
  PlatformEngine engine(ChaosPlatformConfig(), 3);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(5 * kSec);

  CheckpointHeader header;
  header.sim = "platform";
  header.seed = 3;
  header.config_hash = engine.ConfigHash();
  header.input_digest = 0;
  header.sim_time_us = engine.now();
  header.state_digest = engine.Digest();
  WriteCheckpoint(path, header, [&](JsonWriter& w) { engine.SaveState(w); });

  const LoadedCheckpoint cp = LoadCheckpoint(path);
  EXPECT_EQ(cp.header.sim, "platform");
  EXPECT_EQ(cp.header.seed, 3u);
  EXPECT_EQ(cp.header.config_hash, header.config_hash);
  EXPECT_EQ(cp.header.sim_time_us, header.sim_time_us);
  EXPECT_EQ(cp.header.state_digest, header.state_digest);

  PlatformEngine restored(ChaosPlatformConfig(), 3);
  restored.LoadState(cp.state());
  EXPECT_EQ(restored.Digest(), header.state_digest);
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileThrows) {
  EXPECT_THROW(LoadCheckpoint(testing::TempDir() + "/faascost_no_such_cp.json"),
               CheckpointError);
}

TEST(CheckpointFile, GarbageBytesThrow) {
  const std::string path = testing::TempDir() + "/faascost_cp_garbage.json";
  WriteFileAtomic(path, "this is not json {");
  EXPECT_THROW(LoadCheckpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointFile, WrongMagicAndVersionThrow) {
  const std::string path = testing::TempDir() + "/faascost_cp_bad_header.json";
  WriteFileAtomic(path,
                  R"({"magic":"other-tool","version":1,"sim":"platform","seed":1,)"
                  R"("config_hash":0,"input_digest":0,"sim_time_us":0,)"
                  R"("state_digest":0,"state":{}})");
  EXPECT_THROW(LoadCheckpoint(path), CheckpointError);
  WriteFileAtomic(path,
                  R"({"magic":"faascost-checkpoint","version":999,"sim":"platform",)"
                  R"("seed":1,"config_hash":0,"input_digest":0,"sim_time_us":0,)"
                  R"("state_digest":0,"state":{}})");
  EXPECT_THROW(LoadCheckpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointFile, TruncatedStateThrows) {
  const std::string path = testing::TempDir() + "/faascost_cp_truncated.json";
  PlatformEngine engine(ChaosPlatformConfig(), 3);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(5 * kSec);
  CheckpointHeader header;
  header.sim = "platform";
  header.seed = 3;
  header.state_digest = engine.Digest();
  WriteCheckpoint(path, header, [&](JsonWriter& w) { engine.SaveState(w); });

  const std::string full = ReadFileToString(path);
  WriteFileAtomic(path, full.substr(0, full.size() / 2));
  EXPECT_THROW(LoadCheckpoint(path), CheckpointError);
  std::remove(path.c_str());
}

// A bit flip in the state blob that stays structurally valid JSON is caught
// by the digest recorded in the header — the detection step the CLI runs
// after every restore.
TEST(CheckpointFile, TamperedStateFailsDigestValidation) {
  const std::string path = testing::TempDir() + "/faascost_cp_tampered.json";
  PlatformEngine engine(ChaosPlatformConfig(), 3);
  engine.Start(PlatformArrivals(), PyAesWorkload());
  engine.AdvanceUntil(5 * kSec);
  CheckpointHeader header;
  header.sim = "platform";
  header.seed = 3;
  header.config_hash = engine.ConfigHash();
  header.state_digest = engine.Digest();
  WriteCheckpoint(path, header, [&](JsonWriter& w) { engine.SaveState(w); });

  std::string text = ReadFileToString(path);
  const std::string needle = "\"open_attempts\":";
  const size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  // Prepend a digit to the serialized counter: still valid JSON, wrong state.
  text.insert(pos + needle.size(), "9");
  WriteFileAtomic(path, text);

  const LoadedCheckpoint cp = LoadCheckpoint(path);
  PlatformEngine restored(ChaosPlatformConfig(), 3);
  restored.LoadState(cp.state());
  EXPECT_NE(restored.Digest(), cp.header.state_digest);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace faascost
