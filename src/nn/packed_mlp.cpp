// Compile side of the packed inference engine. Everything that allocates
// lives here: the hot forward loops are inline in packed_mlp.hpp, which is
// a designated `hot-path-alloc` file for ssm_lint.
#include "nn/packed_mlp.hpp"

#include <numeric>

#include "nn/quantize.hpp"

namespace ssm {

void PackedMlp::packLayer(std::span<const double> weights,
                          std::span<const double> bias, int in_dim,
                          int out_dim) {
  SSM_CHECK(in_dim > 0 && out_dim > 0, "layer dims must be positive");
  SSM_CHECK(weights.size() == static_cast<std::size_t>(in_dim) *
                                  static_cast<std::size_t>(out_dim),
            "weight count mismatch");
  SSM_CHECK(bias.size() == static_cast<std::size_t>(out_dim),
            "bias count mismatch");

  const int ngroups = (out_dim + 3) / 4;
  const auto padded_out = static_cast<std::size_t>(4 * ngroups);
  const auto rowAt = [&](int o) {
    return weights.data() +
           static_cast<std::size_t>(o) * static_cast<std::size_t>(in_dim);
  };

  Layer l;
  l.in = in_dim;
  l.out = out_dim;
  l.bbias_off = blk_bias_.size();
  for (std::size_t o = 0; o < padded_out; ++o)
    blk_bias_.push_back(o < bias.size() ? bias[o] : 0.0);

  // Stored non-zeros per row (padding rows past out_dim count none):
  // applyMask() forces pruned weights to exactly 0.0, so exact zeros are
  // precisely the terms a dense matvec adds as no-ops and SELL-4 may skip
  // without changing the result. A SELL-4 group is as wide as its longest
  // row.
  std::vector<std::int64_t> row_nnz(padded_out, 0);
  for (int o = 0; o < out_dim; ++o)
    row_nnz[static_cast<std::size_t>(o)] =
        std::count_if(rowAt(o), rowAt(o) + in_dim,
                      [](double w) { return w != 0.0; });
  std::vector<std::int64_t> width(static_cast<std::size_t>(ngroups));
  for (std::size_t g = 0; g < width.size(); ++g)
    width[g] = *std::max_element(&row_nnz[4 * g], &row_nnz[4 * g] + 4);

  // Kernel choice. A SELL slot (4-lane gather + liveness blend) costs
  // roughly 2.5x a dense-panel slot (contiguous load + broadcast), so SELL
  // must cut the slot count below 40% of the dense walk to win: true for
  // large sparse layers, false for the tiny pruned Decision-maker layers
  // where gather overhead dominates. Only the chosen layout is stored.
  const std::int64_t sell_slots =
      std::accumulate(width.begin(), width.end(), std::int64_t{0});
  const std::int64_t dense_slots =
      static_cast<std::int64_t>(ngroups) * static_cast<std::int64_t>(in_dim);
  l.sell = 5 * sell_slots < 2 * dense_slots;

  if (l.sell) {
    // SELL-4: rows grouped in fours, slot-major interleave (slot s holds
    // each lane's s-th stored weight). Dead slots store val 0 / col 0 but
    // are masked out by the true per-row nnz counts, never added.
    l.sell_off = sell_vals_.size();
    l.grp_off = sell_grpoff_.size();
    l.nnz_off = sell_nnz_.size();
    sell_nnz_.insert(sell_nnz_.end(), row_nnz.begin(), row_nnz.end());
    std::size_t rel = 0;
    sell_grpoff_.push_back(rel);
    for (int g = 0; g < ngroups; ++g) {
      const std::int64_t group_width = width[static_cast<std::size_t>(g)];
      std::int32_t cursor[4] = {0, 0, 0, 0};  // next column per lane
      for (std::int64_t s = 0; s < group_width; ++s) {
        for (int lane = 0; lane < 4; ++lane) {
          const int o = 4 * g + lane;
          double val = 0.0;
          std::int32_t col = 0;
          if (s < row_nnz[static_cast<std::size_t>(o)]) {
            // Advance this lane's cursor to its s-th stored weight.
            const double* row = rowAt(o);
            std::int32_t c = cursor[lane];
            while (row[c] == 0.0) ++c;
            val = row[c];
            col = c;
            cursor[lane] = c + 1;
          }
          sell_vals_.push_back(val);
          sell_cols_.push_back(col);
        }
      }
      rel += static_cast<std::size_t>(4 * group_width);
      sell_grpoff_.push_back(rel);
    }
  } else {
    // Blocked-interleaved dense panels: for each 4-row output block, the
    // panel stores in_dim groups of 4 lane weights (tail rows zero-padded)
    // so the kernel streams one contiguous buffer per block.
    l.blk_off = blk_w_.size();
    blk_w_.reserve(blk_w_.size() +
                   padded_out * static_cast<std::size_t>(in_dim));
    for (int g = 0; g < ngroups; ++g)
      for (int i = 0; i < in_dim; ++i)
        for (int lane = 0; lane < 4; ++lane) {
          const int o = 4 * g + lane;
          blk_w_.push_back(o < out_dim ? rowAt(o)[i] : 0.0);
        }
  }

  padded_width_ = std::max(padded_width_, std::max(in_dim, 4 * ngroups));
  layers_.push_back(l);
}

PackedMlp::PackedMlp(const Mlp& net)
    : head_(net.head()),
      input_dim_(net.inputDim()),
      output_dim_(net.outputDim()) {
  SSM_CHECK(net.layerCount() > 0, "cannot pack an empty network");
  layers_.reserve(net.layerCount());
  for (std::size_t l = 0; l < net.layerCount(); ++l) {
    const DenseLayer& src = net.layer(l);
    packLayer(src.weights().flat(), src.bias(), src.inDim(), src.outDim());
    layers_.back().post.relu = l + 1 < net.layerCount();
  }
  kernels_ = activeKernels();
}

PackedMlp::PackedMlp(const QuantizedMlp& net)
    : head_(net.head()), input_dim_(net.inputDim()) {
  SSM_CHECK(!net.layers().empty(), "cannot pack an empty network");
  const double act_qmax =
      net.weightBits() == QuantBits::kInt8 ? 127.0 : 32767.0;
  output_dim_ = net.layers().back().out_dim;
  layers_.reserve(net.layers().size());
  std::vector<double> dequant;
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    const QuantLayer& src = net.layers()[l];
    // Pre-dequantize: QuantizedMlp::forward evaluates
    //   acc += (double(w_q) * weight_scale) * act[i]
    // left to right, so hoisting (w_q * weight_scale) out of the inner
    // loop reproduces it exactly.
    dequant.resize(src.weights.size());
    for (std::size_t i = 0; i < src.weights.size(); ++i)
      dequant[i] = static_cast<double>(src.weights[i]) * src.weight_scale;
    packLayer(dequant, src.bias, src.in_dim, src.out_dim);
    layers_.back().post = {.relu = l + 1 < net.layers().size(),
                           .requant = net.activationsQuantized(),
                           .act_scale = src.act_scale,
                           .act_qmax = act_qmax};
  }
  kernels_ = activeKernels();
}

std::int64_t PackedMlp::flopsExecuted() const noexcept {
  std::int64_t total = 0;
  for (const Layer& l : layers_) {
    std::int64_t macs = static_cast<std::int64_t>(l.in) * l.out;
    if (l.sell) {
      const std::int64_t* nnz = sell_nnz_.data() + l.nnz_off;
      macs = std::accumulate(nnz, nnz + l.out, std::int64_t{0});
    }
    total += 2 * macs;
    total += l.out;                    // bias adds
    if (l.post.relu) total += l.out;   // hidden ReLUs
  }
  return total;
}

PackedMlp::Scratch PackedMlp::makeScratch() const {
  SSM_CHECK(compiled(), "PackedMlp not compiled");
  Scratch s;
  s.ping.resize(static_cast<std::size_t>(padded_width_));
  s.pong.resize(static_cast<std::size_t>(padded_width_));
  s.head.resize(static_cast<std::size_t>(output_dim_));
  return s;
}

void PackedMlp::reserveBatchScratch(Scratch& s, std::size_t rows) const {
  SSM_CHECK(compiled(), "PackedMlp not compiled");
  const std::size_t need =
      std::max<std::size_t>(rows, 1) * static_cast<std::size_t>(padded_width_);
  if (s.ping.size() < need) s.ping.resize(need);
  if (s.pong.size() < need) s.pong.resize(need);
  if (s.head.size() < static_cast<std::size_t>(output_dim_))
    s.head.resize(static_cast<std::size_t>(output_dim_));
}

void PackedMlp::forwardBatch(const Matrix& rows, Scratch& s,
                             Matrix& out) const {
  SSM_CHECK(compiled(), "PackedMlp not compiled");
  SSM_CHECK(static_cast<int>(rows.cols()) == input_dim_,
            "input width mismatch");
  SSM_CHECK(out.rows() == rows.rows() &&
                static_cast<int>(out.cols()) == output_dim_,
            "output matrix shape mismatch");
  const std::size_t n = rows.rows();
  if (n == 0) return;
  reserveBatchScratch(s, n);

  const std::size_t stride = static_cast<std::size_t>(padded_width_);
  double* a = s.ping.data();
  double* b = s.pong.data();
  for (std::size_t r = 0; r < n; ++r) {
    const auto src = rows.row(r);
    double* dst = a + r * stride;
    for (int i = 0; i < input_dim_; ++i)
      dst[i] = src[static_cast<std::size_t>(i)];
  }
  // Layer-outer / row-inner: one traversal of each layer's weight stream
  // serves the whole batch. Per row this runs the exact same layerForward
  // as the single-row path, so results match row-by-row bit-for-bit.
  for (const Layer& l : layers_) {
    for (std::size_t r = 0; r < n; ++r)
      layerForward(l, a + r * stride, b + r * stride);
    std::swap(a, b);
  }
  for (std::size_t r = 0; r < n; ++r) {
    const double* src = a + r * stride;
    const auto dst = out.row(r);
    for (int o = 0; o < output_dim_; ++o)
      dst[static_cast<std::size_t>(o)] = src[o];
    finishHead(dst.data());
  }
}

}  // namespace ssm
