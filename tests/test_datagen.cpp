// Tests for the data-generation pipeline (§III.A): dataset container, CSV
// round trip, and the generator's protocol invariants on a small GPU.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <set>

#include <sstream>

#include "datagen/cache.hpp"
#include "datagen/corpus_stats.hpp"
#include "datagen/generator.hpp"
#include "engine/fork.hpp"
#include "sched/thread_pool.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {
namespace {

DataPoint makePoint(const std::string& wl, int level, double loss,
                    double insts_k) {
  DataPoint p;
  for (int c = 0; c < kNumCounters; ++c)
    p.counters[static_cast<std::size_t>(c)] = 0.1 * c + loss;
  p.level = level;
  p.perf_loss = loss;
  p.insts_k = insts_k;
  p.workload = wl;
  return p;
}

TEST(Dataset, DecisionMatrixLayout) {
  Dataset ds;
  ds.add(makePoint("a", 2, 0.05, 10.0));
  ds.add(makePoint("b", 4, 0.15, 20.0));
  const std::vector<CounterId> feats{CounterId::kIpc,
                                     CounterId::kPowerClusterW};
  const Matrix m = ds.decisionInputs(feats);
  ASSERT_EQ(m.rows(), 2u);
  ASSERT_EQ(m.cols(), 3u);  // 2 features + loss
  EXPECT_DOUBLE_EQ(m(0, 2), 0.05);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.15);
  const auto labels = ds.decisionLabels();
  EXPECT_EQ(labels, (std::vector<int>{2, 4}));
}

TEST(Dataset, CalibratorMatrixOneHot) {
  Dataset ds;
  ds.add(makePoint("a", 3, 0.05, 10.0));
  const std::vector<CounterId> feats{CounterId::kIpc};
  const Matrix m = ds.calibratorInputs(feats, 6);
  ASSERT_EQ(m.cols(), 1u + 1u + 6u);
  for (int l = 0; l < 6; ++l)
    EXPECT_DOUBLE_EQ(m(0, 2 + static_cast<std::size_t>(l)),
                     l == 3 ? 1.0 : 0.0);
  EXPECT_EQ(ds.calibratorTargets(), (std::vector<double>{10.0}));
}

TEST(Dataset, CalibratorRejectsLevelOutOfRange) {
  Dataset ds;
  ds.add(makePoint("a", 7, 0.05, 10.0));
  const std::vector<CounterId> feats{CounterId::kIpc};
  EXPECT_THROW(static_cast<void>(ds.calibratorInputs(feats, 6)),
               ContractError);
}

TEST(Dataset, SplitPartitionsDeterministically) {
  Dataset ds;
  for (int i = 0; i < 100; ++i) ds.add(makePoint("w", i % 6, 0.01 * i, i));
  const auto [a1, b1] = ds.split(0.8, 42);
  const auto [a2, b2] = ds.split(0.8, 42);
  EXPECT_EQ(a1.size(), 80u);
  EXPECT_EQ(b1.size(), 20u);
  EXPECT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i)
    EXPECT_EQ(a1.points()[i].insts_k, a2.points()[i].insts_k);
  EXPECT_THROW(static_cast<void>(ds.split(0.0, 1)), ContractError);
  EXPECT_THROW(static_cast<void>(ds.split(1.0, 1)), ContractError);
}

TEST(Dataset, CsvRoundTrip) {
  Dataset ds;
  ds.add(makePoint("kernel-x", 5, 0.123456789, 17.25));
  ds.add(makePoint("kernel-y", 0, 0.0, 3.5));
  const std::string path = "ssm_test_roundtrip.csv";
  ds.saveCsv(path);
  const Dataset back = Dataset::loadCsv(path);
  std::filesystem::remove(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.points()[0].workload, "kernel-x");
  EXPECT_EQ(back.points()[0].level, 5);
  EXPECT_DOUBLE_EQ(back.points()[0].perf_loss, 0.123456789);
  EXPECT_DOUBLE_EQ(back.points()[1].insts_k, 3.5);
  for (int c = 0; c < kNumCounters; ++c)
    EXPECT_DOUBLE_EQ(back.points()[0].counters[static_cast<std::size_t>(c)],
                     ds.points()[0].counters[static_cast<std::size_t>(c)]);
}

TEST(Dataset, LoadRejectsMissingAndTruncated) {
  EXPECT_THROW(static_cast<void>(Dataset::loadCsv("no/such/file.csv")),
               DataError);
  const std::string path = "ssm_test_trunc.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("header\nworkload,3,0.1\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(static_cast<void>(Dataset::loadCsv(path)), DataError);
  std::filesystem::remove(path);
}

TEST(Cache, GeneratesOnceThenLoads) {
  const std::string path = "ssm_test_cache.csv";
  std::filesystem::remove(path);
  int calls = 0;
  const auto make = [&] {
    ++calls;
    Dataset ds;
    ds.add(makePoint("w", 1, 0.1, 5.0));
    return ds;
  };
  const Dataset first = getOrGenerateDataset(path, make);
  const Dataset second = getOrGenerateDataset(path, make);
  std::filesystem::remove(path);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(first.size(), second.size());
}

// ---- Generator protocol tests (small GPU for speed). ---------------------

GpuConfig tinyGpu() {
  GpuConfig cfg;
  cfg.num_clusters = 4;
  return cfg;
}

GenConfig tinyGen() {
  GenConfig gen;
  gen.runs_per_workload = 1;
  gen.clusters_sampled = 4;
  gen.epochs_per_breakpoint = 6;
  return gen;
}

TEST(Generator, ValidatesConfig) {
  GenConfig bad = tinyGen();
  bad.horizon_epochs = 1;
  EXPECT_THROW(DataGenerator(tinyGpu(), VfTable::titanX(), bad),
               ContractError);
  bad = tinyGen();
  bad.epochs_per_breakpoint = 0;
  EXPECT_THROW(DataGenerator(tinyGpu(), VfTable::titanX(), bad),
               ContractError);
}

TEST(Generator, ProducesOnePointPerClusterAndLevel) {
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  const Dataset ds = dg.generateForWorkload(workloadByName("spmv"), 1);
  ASSERT_FALSE(ds.empty());
  // Points per breakpoint = clusters * levels; total must be a multiple.
  EXPECT_EQ(ds.size() % (4 * 6), 0u);
  // All six levels present.
  std::array<int, 6> level_counts{};
  for (const auto& p : ds.points())
    ++level_counts[static_cast<std::size_t>(p.level)];
  for (int l = 0; l < 6; ++l) EXPECT_GT(level_counts[static_cast<std::size_t>(l)], 0);
}

TEST(Generator, DefaultLevelHasZeroLoss) {
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  const Dataset ds = dg.generateForWorkload(workloadByName("sgemm"), 2);
  for (const auto& p : ds.points())
    if (p.level == 5) {
      EXPECT_NEAR(p.perf_loss, 0.0, 1e-9);
    }
}

TEST(Generator, LossesAreNonNegativeAndBounded) {
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  for (const char* wl : {"sgemm", "spmv"}) {
    const Dataset ds = dg.generateForWorkload(workloadByName(wl), 3);
    for (const auto& p : ds.points()) {
      EXPECT_GE(p.perf_loss, 0.0);
      EXPECT_LE(p.perf_loss, 1.2);  // even min freq cannot double the window
    }
  }
}

TEST(Generator, ComputeBoundLossesScaleWithFrequencyDrop) {
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  const Dataset ds = dg.generateForWorkload(workloadByName("sgemm"), 4);
  // Mean loss per level must decrease with level (higher f -> lower loss).
  std::array<double, 6> sum{};
  std::array<int, 6> cnt{};
  for (const auto& p : ds.points()) {
    sum[static_cast<std::size_t>(p.level)] += p.perf_loss;
    ++cnt[static_cast<std::size_t>(p.level)];
  }
  for (int l = 0; l + 1 < 6; ++l) {
    ASSERT_GT(cnt[static_cast<std::size_t>(l)], 0);
    const double lo = sum[static_cast<std::size_t>(l)] / cnt[static_cast<std::size_t>(l)];
    const double hi = sum[static_cast<std::size_t>(l + 1)] / cnt[static_cast<std::size_t>(l + 1)];
    EXPECT_GE(lo, hi - 0.02) << "level " << l;
  }
  // And the min-frequency loss is substantial for a compute-bound kernel.
  EXPECT_GT(sum[0] / cnt[0], 0.25);
}

TEST(Generator, MemoryBoundLossesAreSmall) {
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  const Dataset ds = dg.generateForWorkload(workloadByName("spmv"), 5);
  double total = 0.0;
  int n = 0;
  for (const auto& p : ds.points())
    if (p.level == 0) {
      total += p.perf_loss;
      ++n;
    }
  ASSERT_GT(n, 0);
  EXPECT_LT(total / n, 0.10);
}

TEST(Generator, InstructionTargetsPositiveAndLevelOrdered) {
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  const Dataset ds = dg.generateForWorkload(workloadByName("sgemm"), 6);
  double lo_sum = 0.0;
  double hi_sum = 0.0;
  int lo_n = 0;
  int hi_n = 0;
  for (const auto& p : ds.points()) {
    EXPECT_GT(p.insts_k, 0.0);
    if (p.level == 0) {
      lo_sum += p.insts_k;
      ++lo_n;
    } else if (p.level == 5) {
      hi_sum += p.insts_k;
      ++hi_n;
    }
  }
  ASSERT_GT(lo_n, 0);
  ASSERT_GT(hi_n, 0);
  // Compute-bound: instructions in the scaling window scale with frequency.
  EXPECT_LT(lo_sum / lo_n, hi_sum / hi_n);
}

TEST(Generator, DeterministicForFixedSeed) {
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  const Dataset a = dg.generateForWorkload(workloadByName("hotspot"), 7);
  const Dataset b = dg.generateForWorkload(workloadByName("hotspot"), 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points()[i].perf_loss, b.points()[i].perf_loss);
    EXPECT_DOUBLE_EQ(a.points()[i].insts_k, b.points()[i].insts_k);
  }
}

TEST(CorpusStats, SummarisesPerWorkloadAndLevel) {
  Dataset ds;
  // Two workloads: one sensitive, one flat.
  for (int bp = 0; bp < 3; ++bp) {
    for (int level = 0; level < 6; ++level) {
      ds.add(makePoint("hot", level, 0.1 * (5 - level), 10.0 + level));
      ds.add(makePoint("cold", level, 0.01, 8.0));
    }
  }
  const CorpusStats stats = computeCorpusStats(ds);
  EXPECT_EQ(stats.total_samples, 36);
  ASSERT_EQ(stats.per_workload.size(), 2u);
  // Sorted by sensitivity: 'hot' first.
  EXPECT_EQ(stats.per_workload[0].workload, "hot");
  EXPECT_NEAR(stats.per_workload[0].sensitivity, 0.5, 1e-12);
  EXPECT_NEAR(stats.per_workload[1].sensitivity, 0.01, 1e-12);
  // Balanced labels: 1/6 each.
  for (double f : stats.label_fractions) EXPECT_NEAR(f, 1.0 / 6.0, 1e-12);
  EXPECT_TRUE(stats.laddersMonotonic());
  // Per-level detail.
  const auto& hot = stats.per_workload[0];
  EXPECT_EQ(hot.per_level[0].count, 3);
  EXPECT_NEAR(hot.per_level[0].mean_loss, 0.5, 1e-12);
  EXPECT_NEAR(hot.per_level[5].mean_loss, 0.0, 1e-12);
  EXPECT_NEAR(hot.per_level[2].mean_insts_k, 12.0, 1e-12);
}

TEST(CorpusStats, DetectsNonMonotonicLadder) {
  Dataset ds;
  ds.add(makePoint("w", 0, 0.05, 1.0));  // L0 cheaper than L1: broken
  ds.add(makePoint("w", 1, 0.30, 1.0));
  ds.add(makePoint("w", 5, 0.00, 1.0));
  const CorpusStats stats = computeCorpusStats(ds);
  EXPECT_FALSE(stats.laddersMonotonic());
}

TEST(CorpusStats, RealCorpusLaddersAreMonotonic) {
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  Dataset ds = dg.generateForWorkload(workloadByName("sgemm"), 8);
  ds.append(dg.generateForWorkload(workloadByName("spmv"), 8));
  const CorpusStats stats = computeCorpusStats(ds);
  EXPECT_TRUE(stats.laddersMonotonic(0.05));
  std::ostringstream os;
  printCorpusStats(stats, os);
  EXPECT_NE(os.str().find("sgemm"), std::string::npos);
  EXPECT_NE(os.str().find("loss ladder"), std::string::npos);
}

TEST(CorpusStats, RejectsOutOfRangeLabels) {
  Dataset ds;
  ds.add(makePoint("w", 7, 0.1, 1.0));
  EXPECT_THROW(static_cast<void>(computeCorpusStats(ds, 6)), ContractError);
}

/// Reference: a transcription of the protocol before the feature window
/// was shared, in which every V/f level (the default one included) and the
/// reference pass each re-simulated the whole horizon from the breakpoint.
/// Counts the breakpoints whose reference pass retired inside the horizon
/// and the level replays that could not match the reference work.
struct ReferenceRun {
  Dataset data;
  int retired_in_horizon = 0;
  int invalid_replays = 0;
};

struct ReferenceReplay {
  double t_f_ns = 0.0;
  bool valid = false;
  GpuEpochReport feature_report;
  GpuEpochReport scaling_report;
};

ReferenceReplay referenceReplay(const Gpu& snapshot, VfLevel feature_level,
                                VfLevel scaling_level, VfLevel default_level,
                                std::int64_t target_insts, int horizon_epochs,
                                int max_extra_epochs) {
  ReferenceReplay out;
  engine::GpuFork rep(snapshot);
  const TimeNs t_b = rep.nowNs();
  const TimeNs epoch_ns = rep.config().epoch_ns;
  out.feature_report = rep.stepUniform(feature_level);
  out.scaling_report = rep.stepUniform(scaling_level);
  std::int64_t insts = rep.totalInstructions();
  TimeNs t_end = rep.nowNs();
  if (insts >= target_insts) {
    const std::int64_t at_start = insts - rep.lastEpochInstructions();
    const double frac =
        rep.lastEpochInstructions() > 0
            ? static_cast<double>(target_insts - at_start) /
                  static_cast<double>(rep.lastEpochInstructions())
            : 1.0;
    out.t_f_ns = static_cast<double>(t_end - epoch_ns - t_b) +
                 frac * static_cast<double>(epoch_ns);
    out.valid = true;
    return out;
  }
  const int budget = horizon_epochs + max_extra_epochs;
  for (int e = 2; e < budget; ++e) {
    const std::int64_t before = insts;
    rep.stepUniform(default_level);
    insts = rep.totalInstructions();
    t_end = rep.nowNs();
    if (insts >= target_insts) {
      const std::int64_t gained = insts - before;
      const double frac =
          gained > 0 ? static_cast<double>(target_insts - before) /
                           static_cast<double>(gained)
                     : 1.0;
      out.t_f_ns = static_cast<double>(t_end - epoch_ns - t_b) +
                   frac * static_cast<double>(epoch_ns);
      out.valid = true;
      return out;
    }
    if (rep.allDone()) break;
  }
  return out;
}

ReferenceRun referenceGenerate(const GpuConfig& gpu_cfg, const VfTable& vf,
                               const GenConfig& gen,
                               const KernelProfile& kernel,
                               std::uint64_t seed, int feature_phase) {
  ReferenceRun out;
  const VfLevel default_level = vf.defaultLevel();
  const int num_levels = static_cast<int>(vf.size());
  const TimeNs epoch_ns = gpu_cfg.epoch_ns;
  std::vector<VfLevel> level_order;
  for (int i = 0; i < num_levels; ++i)
    level_order.push_back(i % 2 == 0 ? num_levels - 1 - i / 2 : i / 2);
  engine::GpuFork cursor(Gpu(gpu_cfg, vf, kernel, seed,
                             ChipPowerModel(gpu_cfg.num_clusters)));
  const int stride =
      std::max(1, gpu_cfg.num_clusters / std::max(1, gen.clusters_sampled));
  int breakpoint_index = 0;
  while (!cursor.allDone() && cursor.nowNs() < gen.max_program_ns) {
    const VfLevel feature_level =
        gen.vary_feature_level
            ? level_order[static_cast<std::size_t>(
                  (breakpoint_index + feature_phase) % num_levels)]
            : default_level;
    ++breakpoint_index;
    engine::GpuFork ref(cursor.gpu());
    ref.stepUniform(feature_level);
    for (int e = 1; e < gen.horizon_epochs; ++e)
      ref.stepUniform(default_level);
    if (ref.allDone()) {
      ++out.retired_in_horizon;
      break;
    }
    const std::int64_t target_insts = ref.totalInstructions();
    const double t0_ns = static_cast<double>(gen.horizon_epochs) *
                         static_cast<double>(epoch_ns);
    for (int level = 0; level < num_levels; ++level) {
      const ReferenceReplay rep = referenceReplay(
          cursor.gpu(), feature_level, level, default_level, target_insts,
          gen.horizon_epochs, gen.max_extra_epochs);
      if (!rep.valid) {
        ++out.invalid_replays;
        continue;
      }
      const double loss = std::max(
          0.0, (rep.t_f_ns - t0_ns) / static_cast<double>(epoch_ns));
      for (int c = 0; c < gpu_cfg.num_clusters; c += stride) {
        const auto& feat =
            rep.feature_report.clusters[static_cast<std::size_t>(c)];
        const auto& scal =
            rep.scaling_report.clusters[static_cast<std::size_t>(c)];
        if (feat.cluster_done) continue;
        DataPoint p;
        const auto raw = feat.counters.raw();
        std::copy(raw.begin(), raw.end(), p.counters.begin());
        p.perf_loss = loss;
        p.level = level;
        p.insts_k = static_cast<double>(scal.instructions) / 1000.0;
        p.workload = kernel.name;
        out.data.add(std::move(p));
      }
    }
    for (int e = 0; e < gen.epochs_per_breakpoint && !cursor.allDone(); ++e)
      cursor.stepUniform(default_level);
  }
  return out;
}

void expectSameCorpus(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const DataPoint& a = got.points()[i];
    const DataPoint& b = want.points()[i];
    EXPECT_EQ(a.workload, b.workload) << i;
    EXPECT_EQ(a.level, b.level) << i;
    EXPECT_EQ(a.perf_loss, b.perf_loss) << i;  // bitwise, not approximate
    EXPECT_EQ(a.insts_k, b.insts_k) << i;
    EXPECT_EQ(a.counters, b.counters) << i;
  }
}

TEST(Generator, SharedFeatureWindowMatchesPerLevelReference) {
  const VfTable vf = VfTable::titanX();
  struct Case {
    const char* workload;
    bool vary_feature_level;
    int max_extra_epochs;
    int feature_phase;
    TimeNs max_program_ns;
  };
  int retired = 0;
  int invalid = 0;
  for (const Case& c : {Case{"spmv", true, 24, 0, 3 * kNsPerMs},
                        Case{"spmv", false, 24, 0, 3 * kNsPerMs},
                        Case{"sgemm", true, 0, 1, kNsPerMs / 2},
                        Case{"sgemm", false, 0, 2, kNsPerMs / 2}}) {
    SCOPED_TRACE(std::string(c.workload) + " vary=" +
                 std::to_string(c.vary_feature_level) +
                 " extra=" + std::to_string(c.max_extra_epochs));
    GenConfig gen = tinyGen();
    gen.vary_feature_level = c.vary_feature_level;
    gen.max_extra_epochs = c.max_extra_epochs;
    gen.max_program_ns = c.max_program_ns;
    const DataGenerator dg(tinyGpu(), vf, gen);
    const KernelProfile& kernel = workloadByName(c.workload);
    const ReferenceRun want =
        referenceGenerate(tinyGpu(), vf, gen, kernel, 11, c.feature_phase);
    ASSERT_FALSE(want.data.empty());
    expectSameCorpus(dg.generateForWorkload(kernel, 11, c.feature_phase),
                     want.data);
    ThreadPool pool(4);
    expectSameCorpus(
        dg.generateForWorkload(kernel, 11, c.feature_phase, &pool),
        want.data);
    retired += want.retired_in_horizon;
    invalid += want.invalid_replays;
  }
  // The cases reach the protocol's two early exits: a program retiring
  // inside a reference horizon, and low-level replays that cannot match
  // the reference work within a zero extra-epoch budget.
  EXPECT_GT(retired, 0);
  EXPECT_GT(invalid, 0);
}

TEST(Generator, FeatureLevelScheduleCoversTable) {
  // With vary_feature_level, the recorded feature-window frequencies must
  // span multiple operating points (the fix for runtime distribution
  // coverage — see DESIGN.md).
  const DataGenerator dg(tinyGpu(), VfTable::titanX(), tinyGen());
  Dataset all;
  for (int run = 0; run < 3; ++run)
    all.append(dg.generateForWorkload(workloadByName("spmv"),
                                      100 + static_cast<std::uint64_t>(run),
                                      run));
  std::set<double> freqs;
  for (const auto& p : all.points())
    freqs.insert(p.counters[static_cast<std::size_t>(CounterId::kFreqMhz)]);
  EXPECT_GE(freqs.size(), 4u);
  // The default point must be among them (it leads the schedule).
  EXPECT_TRUE(freqs.count(1165.0));
}

}  // namespace
}  // namespace ssm
