#include "datagen/generator.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/check.hpp"
#include "engine/fork.hpp"
#include "sched/thread_pool.hpp"

namespace ssm {

DataGenerator::DataGenerator(GpuConfig gpu_cfg, VfTable vf, GenConfig gen_cfg)
    : gpu_cfg_(gpu_cfg), vf_(std::move(vf)), gen_(gen_cfg) {
  SSM_CHECK(gen_.epochs_per_breakpoint >= 1);
  SSM_CHECK(gen_.horizon_epochs >= 2,
            "horizon must cover feature + scaling windows");
  SSM_CHECK(gen_.clusters_sampled >= 1);
  SSM_CHECK(gen_.runs_per_workload >= 1);
}

namespace {

/// §III.A work matching, shared by every branch of a breakpoint. Epoch `k`
/// of the branch (1-based from the snapshot; matching starts at k = 2, the
/// scaling window) moved its cumulative instruction count from `before` to
/// `after`. Once that reaches `target_insts`, the reference horizon's work,
/// returns T_f: the time from the snapshot until the branch completed it,
/// interpolated linearly within epoch k.
std::optional<double> matchedTimeNs(int k, std::int64_t before,
                                    std::int64_t after,
                                    std::int64_t target_insts,
                                    TimeNs epoch_ns) {
  if (after < target_insts) return std::nullopt;
  const std::int64_t gained = after - before;
  const double frac = gained > 0
                          ? static_cast<double>(target_insts - before) /
                                static_cast<double>(gained)
                          : 1.0;
  return static_cast<double>(static_cast<TimeNs>(k - 1) * epoch_ns) +
         frac * static_cast<double>(epoch_ns);
}

/// One scaling level's branch of a breakpoint: the time to complete the
/// reference work and the per-cluster scaling-window observations.
struct ReplayOutcome {
  double t_f_ns = 0.0;
  bool valid = false;
  GpuEpochReport scaling_report;
};

/// Branches the breakpoint's post-feature machine through the shared fork
/// engine (copying into the fork is the §III.A snapshot, stepping it is the
/// replay): the scaling window at `scaling_level`, then the default point
/// until the branch has done `target_insts` of work or `budget` epochs.
ReplayOutcome replayScaling(const Gpu& post_feature, VfLevel scaling_level,
                            VfLevel default_level, std::int64_t target_insts,
                            int budget) {
  ReplayOutcome out;
  engine::GpuFork rep(post_feature);
  const TimeNs epoch_ns = rep.config().epoch_ns;
  std::int64_t before = rep.totalInstructions();
  out.scaling_report = rep.stepUniform(scaling_level);
  for (int k = 2;; ++k) {
    if (const auto t_f = matchedTimeNs(k, before, rep.totalInstructions(),
                                       target_insts, epoch_ns)) {
      out.t_f_ns = *t_f;
      out.valid = true;
      return out;
    }
    // Invalid: out of budget, or retired without reaching the target work.
    if (k >= budget || rep.allDone()) return out;
    before = rep.totalInstructions();
    rep.stepUniform(default_level);
  }
}

/// The default level's branch is the reference pass itself (its scaling
/// window ran at the default point), so its outcome comes from the pass's
/// recorded cumulative instruction counts, `insts[k - 1]` after epoch k.
ReplayOutcome referenceOutcome(std::span<const std::int64_t> insts,
                               GpuEpochReport scaling_report,
                               std::int64_t target_insts, TimeNs epoch_ns,
                               int budget) {
  ReplayOutcome out;
  out.scaling_report = std::move(scaling_report);
  for (int k = 2; k <= static_cast<int>(insts.size()); ++k) {
    if (const auto t_f =
            matchedTimeNs(k, insts[static_cast<std::size_t>(k - 2)],
                          insts[static_cast<std::size_t>(k - 1)],
                          target_insts, epoch_ns)) {
      out.t_f_ns = *t_f;
      out.valid = true;
      return out;
    }
    if (k >= budget) return out;
  }
  return out;
}

}  // namespace

Dataset DataGenerator::generateForWorkload(const KernelProfile& kernel,
                                           std::uint64_t seed,
                                           int feature_phase,
                                           ThreadPool* pool) const {
  Dataset out;
  const VfLevel default_level = vf_.defaultLevel();
  const int num_levels = static_cast<int>(vf_.size());
  const TimeNs epoch_ns = gpu_cfg_.epoch_ns;
  const int budget = gen_.horizon_epochs + gen_.max_extra_epochs;

  // Feature-window level schedule: alternate ends of the table first
  // (default, min, next-to-default, …) so even a program with two or three
  // breakpoints yields feature rows at the levels the runtime visits most.
  std::vector<VfLevel> level_order;
  level_order.reserve(static_cast<std::size_t>(num_levels));
  for (int i = 0; i < num_levels; ++i)
    level_order.push_back(i % 2 == 0 ? num_levels - 1 - i / 2 : i / 2);

  engine::GpuFork cursor(Gpu(gpu_cfg_, vf_, kernel, seed,
                             ChipPowerModel(gpu_cfg_.num_clusters)));

  const int stride = std::max(
      1, gpu_cfg_.num_clusters / std::max(1, gen_.clusters_sampled));

  int breakpoint_index = 0;
  while (!cursor.allDone() && cursor.nowNs() < gen_.max_program_ns) {
    // Feature-window level for this breakpoint (default, or cycling through
    // the table so training covers the runtime counter distribution).
    const VfLevel feature_level =
        gen_.vary_feature_level
            ? level_order[static_cast<std::size_t>(
                  (breakpoint_index + feature_phase) % num_levels)]
            : default_level;
    ++breakpoint_index;

    // --- Feature window, simulated once: every branch below starts from
    // the machine after it. -------------------------------------------------
    engine::GpuFork feature(cursor.gpu());
    const GpuEpochReport feature_report = feature.stepUniform(feature_level);

    // --- Reference pass: the rest of the horizon at the default point
    // (scaling window = default), recording the cumulative work per epoch.
    engine::GpuFork ref(feature.gpu());
    std::vector<std::int64_t> ref_insts{ref.totalInstructions()};
    GpuEpochReport ref_scaling = ref.stepUniform(default_level);
    ref_insts.push_back(ref.totalInstructions());
    for (int e = 2; e < gen_.horizon_epochs; ++e) {
      ref.stepUniform(default_level);
      ref_insts.push_back(ref.totalInstructions());
    }
    if (ref.allDone()) break;  // not enough work left for a clean horizon
    const std::int64_t target_insts = ref_insts.back();
    const double t0_ns =
        static_cast<double>(gen_.horizon_epochs) *
        static_cast<double>(epoch_ns);

    // --- One branch per operating point. The default level's is the
    // reference pass; every other level forks the post-feature machine as
    // an independent job, run on the pool when one is given. Rows are
    // emitted below in level order either way, so parallel and serial
    // datasets are identical.
    std::vector<ReplayOutcome> replays(static_cast<std::size_t>(num_levels));
    replays[static_cast<std::size_t>(default_level)] =
        referenceOutcome(ref_insts, std::move(ref_scaling), target_insts,
                         epoch_ns, budget);
    const auto replay_one = [&](std::size_t level) {
      if (static_cast<VfLevel>(level) == default_level) return;
      replays[level] =
          replayScaling(feature.gpu(), static_cast<VfLevel>(level),
                        default_level, target_insts, budget);
    };
    if (pool != nullptr) {
      pool->parallelFor(static_cast<std::size_t>(num_levels), replay_one);
    } else {
      for (int level = 0; level < num_levels; ++level)
        replay_one(static_cast<std::size_t>(level));
    }

    for (int level = 0; level < num_levels; ++level) {
      const ReplayOutcome& rep = replays[static_cast<std::size_t>(level)];
      if (!rep.valid) continue;
      // Work-matching interpolation can report a marginally negative loss
      // on frequency-insensitive windows; physically T_f >= T_0, so clamp.
      const double loss = std::max(
          0.0, (rep.t_f_ns - t0_ns) / static_cast<double>(epoch_ns));

      for (int c = 0; c < gpu_cfg_.num_clusters; c += stride) {
        const auto& feat =
            feature_report.clusters[static_cast<std::size_t>(c)];
        const auto& scal =
            rep.scaling_report.clusters[static_cast<std::size_t>(c)];
        if (feat.cluster_done) continue;  // no live work: nothing to learn
        DataPoint p;
        const auto raw = feat.counters.raw();
        std::copy(raw.begin(), raw.end(), p.counters.begin());
        p.perf_loss = loss;
        p.level = level;
        p.insts_k = static_cast<double>(scal.instructions) / 1000.0;
        p.workload = kernel.name;
        out.add(std::move(p));
      }
    }

    // --- Advance the cursor to the next breakpoint. ----------------------
    for (int e = 0; e < gen_.epochs_per_breakpoint && !cursor.allDone(); ++e)
      cursor.stepUniform(default_level);
  }
  return out;
}

Dataset DataGenerator::generate(const std::vector<KernelProfile>& workloads,
                                ThreadPool* pool) const {
  // Seeds are drawn serially up front in the exact order the serial loop
  // would draw them; shard results are appended in that same order. The
  // corpus is therefore independent of scheduling.
  struct Shard {
    const KernelProfile* kernel = nullptr;
    std::uint64_t seed = 0;
    int run = 0;
  };
  std::vector<Shard> shards;
  shards.reserve(workloads.size() *
                 static_cast<std::size_t>(gen_.runs_per_workload));
  Rng seeder(gen_.seed);
  for (const auto& kernel : workloads)
    for (int run = 0; run < gen_.runs_per_workload; ++run)
      shards.push_back({&kernel, seeder.nextU64(), run});

  std::vector<Dataset> parts(shards.size());
  const auto run_shard = [&](std::size_t i) {
    // Shard-level parallelism already saturates the pool; the per-level
    // replays inside each shard stay serial (pass no pool down).
    parts[i] = generateForWorkload(*shards[i].kernel, shards[i].seed,
                                   shards[i].run);
  };
  if (pool != nullptr) {
    pool->parallelFor(shards.size(), run_shard);
  } else {
    for (std::size_t i = 0; i < shards.size(); ++i) run_shard(i);
  }

  Dataset all;
  for (const auto& part : parts) all.append(part);
  SSM_CHECK(!all.empty(), "data generation produced no samples");
  return all;
}

}  // namespace ssm
