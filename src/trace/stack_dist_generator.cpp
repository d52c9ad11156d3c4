#include "src/trace/stack_dist_generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/check.hpp"
#include "src/common/error.hpp"

namespace capart::trace {
namespace {

constexpr std::uint32_t kLineBytes = 64;

/// `table`'s value at lattice index `k`, or the libm draw's where the table
/// declines or there is none.
template <class Libm>
std::uint64_t tabulated(const ThresholdTable* table, std::uint64_t k,
                        const DrawParams& params, Libm libm) {
  if (table != nullptr) {
    const std::uint32_t value = table->lookup(k);
    if (value != ThresholdTable::kUndecided) return value;
  }
  return libm(k, params);
}

void require_finite(double v, const char* field) {
  if (!std::isfinite(v)) {
    throw ConfigError(std::string("gen.") + field,
                      std::string(field) + " must be finite");
  }
}

void require_rate(double v, const char* field) {
  require_finite(v, field);
  if (v < 0.0 || v > 1.0) {
    throw ConfigError(std::string("gen.") + field,
                      std::string(field) + " must be in [0, 1] (got " +
                          std::to_string(v) + ")");
  }
}

}  // namespace

void GenParams::validate() const {
  require_finite(mem_ratio, "mem_ratio");
  if (mem_ratio <= 0.0 || mem_ratio > 1.0) {
    throw ConfigError("gen.mem_ratio",
                      "mem_ratio must be in (0, 1] (got " +
                          std::to_string(mem_ratio) + ")");
  }
  require_finite(reuse_skew, "reuse_skew");
  if (reuse_skew <= 0.0) {
    throw ConfigError("gen.reuse_skew", "reuse_skew must be positive (got " +
                                            std::to_string(reuse_skew) + ")");
  }
  require_finite(shared_skew, "shared_skew");
  if (shared_skew <= 0.0) {
    throw ConfigError("gen.shared_skew",
                      "shared_skew must be positive (got " +
                          std::to_string(shared_skew) + ")");
  }
  require_rate(p_new, "p_new");
  require_rate(share_fraction, "share_fraction");
  require_rate(write_fraction, "write_fraction");
  if (working_set_blocks < 1) {
    throw ConfigError("gen.working_set_blocks",
                      "working set must hold at least one block");
  }
  if (share_fraction > 0.0 && shared_region_blocks < 1) {
    throw ConfigError("gen.shared_region_blocks",
                      "shared accesses need a non-empty shared region "
                      "(share_fraction > 0 with shared_region_blocks == 0)");
  }
}

StackDistGenerator::StackDistGenerator(const GenParams& params, Rng rng,
                                       Addr private_base, Addr shared_base)
    : StackDistGenerator(params, DrawTableRegistry::process().tables(params),
                         rng, private_base, shared_base) {}

StackDistGenerator::StackDistGenerator(const GenParams& params,
                                       const DrawTables& tables, Rng rng,
                                       Addr private_base, Addr shared_base)
    : params_(params),
      rng_(rng),
      tables_(tables),
      private_base_(private_base),
      shared_base_(shared_base) {
  params_.validate();
  refresh_param_cache();
}

void StackDistGenerator::refresh_param_cache() {
  draw_ = DrawParams(params_);
  shared_ = LatticeChance(params_.share_fraction);
  fresh_ = LatticeChance(params_.p_new);
  write_ = LatticeChance(params_.write_fraction);
}

void StackDistGenerator::set_params(const GenParams& params) {
  set_params(params, DrawTableRegistry::process().tables(params));
}

void StackDistGenerator::set_params(const GenParams& params,
                                    const DrawTables& tables) {
  params.validate();
  params_ = params;
  tables_ = tables;
  refresh_param_cache();
  // Shrinking the working set drops the least recently used blocks: the
  // program stopped touching them.
  if (stack_.size() > params_.working_set_blocks) {
    stack_.drop_lru(stack_.size() - params_.working_set_blocks);
  }
}

void StackDistGenerator::reserve(std::uint32_t blocks) {
  // The stack never holds more than the working set.
  stack_.reserve(blocks);
}

Instructions StackDistGenerator::draw_gap() {
  // Geometric gap with mean (1-m)/m so memory ops are an m-fraction of
  // instructions; inversion sampling.
  return tabulated(tables_.gap, rng_.lattice(), draw_, gap_of);
}

std::uint64_t StackDistGenerator::draw_depth() {
  // Depths are drawn over the *configured* working set, not the blocks seen
  // so far; a draw beyond the current stack is a cold touch, which is what
  // lets the footprint grow toward W even with p_new = 0.
  return tabulated(tables_.depth, rng_.lattice(), draw_, depth_of);
}

Addr StackDistGenerator::shared_access() {
  const std::uint64_t block =
      tabulated(tables_.shared, rng_.lattice(), draw_, shared_block_of);
  return shared_base_ + block * kLineBytes;
}

Addr StackDistGenerator::private_access(std::uint64_t depth, bool& was_new) {
  std::uint32_t block;
  was_new = false;
  if (depth >= 1 && depth <= stack_.size()) {
    // Re-reference the block at stack depth `depth` (1 = MRU) and move it to
    // the MRU position.
    block = stack_.touch(static_cast<std::size_t>(depth));
  } else {
    // Streaming / beyond-working-set access: a fresh block. A full stack
    // drops its LRU block first, which leaves what pushing and then
    // dropping leaves, without a working set of the top tier's size ever
    // spilling.
    was_new = true;
    block = next_block_++;
    if (stack_.size() >= params_.working_set_blocks) stack_.drop_lru(1);
    stack_.push(block);
  }
  return private_base_ + static_cast<Addr>(block) * kLineBytes;
}

std::size_t StackDistGenerator::fill(NextOp* out, std::size_t n,
                                     Instructions& position,
                                     Instructions stop) {
  n = std::min(n, kBatchOps);
  // Pass 1: the draws. A private op's block depends on the stack as the
  // batch's earlier ops leave it, so it only records its depth here (0 for
  // a forced fresh block). The stack is empty only before the first private
  // op ever, and no depth is drawn then.
  bool stack_empty = stack_.size() == 0;
  std::size_t privates = 0;
  std::size_t i = 0;
  while (i < n) {
    NextOp& op = out[i];
    op = NextOp{};
    op.gap = draw_gap();
    if (shared_(rng_)) {
      op.addr = shared_access();
    } else {
      const bool force_new = fresh_(rng_);
      pending_[privates++] = {static_cast<std::uint32_t>(i),
                              (force_new || stack_empty) ? 0 : draw_depth()};
      stack_empty = false;
    }
    op.type = write_(rng_) ? AccessType::kWrite : AccessType::kRead;
    position += op.gap + 1;
    ++i;
    if (position >= stop) break;
  }
  // Pass 2: the private ops' LRU-stack moves, in op order.
  for (std::size_t k = 0; k < privates; ++k) {
    NextOp& op = out[pending_[k].slot];
    bool was_new = false;
    op.addr = private_access(pending_[k].depth, was_new);
    op.prefetchable = was_new && params_.prefetch_friendly_streams;
  }
  return i;
}

NextOp StackDistGenerator::next() {
  NextOp op;
  Instructions position = 0;
  (void)fill(&op, 1, position, ~Instructions{0});
  return op;
}

}  // namespace capart::trace
