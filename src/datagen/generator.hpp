// The §III.A data-generation protocol, run on the simulator.
//
// For each benchmark, executed at the default V/f point:
//   * every ~100 µs a breakpoint snapshots the full simulator state;
//   * a 10 µs feature-collection window runs at the default point and
//     yields each cluster's 47 counters — simulated once per breakpoint,
//     since every branch below shares it;
//   * the following 10 µs frequency-scaling window is replayed once per
//     V/f level from a snapshot of the post-feature machine (bit-identical
//     up to the excursion), recording each cluster's instruction count.
//     The default level's branch is the reference pass itself;
//   * execution continues at the default point until the replay has
//     completed the same work as the reference horizon (~100 µs), so
//     delayed effects of the excursion are captured (the paper's reason
//     for the 100 µs collection span);
//   * performance loss = (T_f - T_0) / 10 µs, window-relative.
#pragma once

#include <vector>

#include "datagen/dataset.hpp"
#include "gpusim/gpu.hpp"
#include "workloads/kernel_profile.hpp"

namespace ssm {

class ThreadPool;

struct GenConfig {
  /// Distance between breakpoints, in epochs (10 epochs = 100 µs).
  int epochs_per_breakpoint = 10;
  /// Collection-horizon length in epochs (the paper's 100 µs span).
  int horizon_epochs = 10;
  /// Safety bound on extra epochs when matching the reference work.
  int max_extra_epochs = 24;
  /// Number of clusters contributing feature rows per breakpoint.
  int clusters_sampled = 12;
  /// Independent executions (seeds) per workload.
  int runs_per_workload = 3;
  /// Hard cap on simulated program time.
  TimeNs max_program_ns = 3 * kNsPerMs;
  std::uint64_t seed = 0xda7aULL;
  /// If true, the feature-collection window's V/f level cycles through the
  /// table across breakpoints instead of always using the default point.
  /// The paper collects features at the default point only; at runtime,
  /// however, counters arrive from epochs run at whatever level the
  /// governor chose, so training must cover that distribution. The loss
  /// reference shares the same feature-window level, which keeps the
  /// scaling-window effect isolated. See DESIGN.md.
  bool vary_feature_level = true;
};

class DataGenerator {
 public:
  DataGenerator(GpuConfig gpu_cfg, VfTable vf, GenConfig gen_cfg = {});

  /// Runs the protocol for one workload (one execution at the given seed).
  /// `feature_phase` rotates the feature-window level schedule so repeated
  /// runs of a short program still cover every level (short programs have
  /// few breakpoints). With a pool, each breakpoint's non-default V/f
  /// replays run as independent jobs; rows are still emitted in level
  /// order, so the dataset is byte-identical to the serial result.
  [[nodiscard]] Dataset generateForWorkload(const KernelProfile& kernel,
                                            std::uint64_t seed,
                                            int feature_phase = 0,
                                            ThreadPool* pool = nullptr) const;

  /// Runs the protocol over a workload list, runs_per_workload seeds each.
  /// With a pool, each (workload, run) pair is one job; run seeds are
  /// pre-drawn in serial order and shards are appended in job order, so
  /// the corpus matches the serial corpus exactly.
  [[nodiscard]] Dataset generate(const std::vector<KernelProfile>& workloads,
                                 ThreadPool* pool = nullptr) const;

  [[nodiscard]] const VfTable& vfTable() const noexcept { return vf_; }
  [[nodiscard]] const GenConfig& config() const noexcept { return gen_; }

 private:
  GpuConfig gpu_cfg_;
  VfTable vf_;
  GenConfig gen_;
};

}  // namespace ssm
