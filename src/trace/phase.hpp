// Phase behaviour: programs move through execution phases with different
// memory characteristics (paper §IV-A1, Figs 6-7). A PhasedGenerator wraps a
// StackDistGenerator with a cyclic schedule of (parameters, duration) phases
// measured in the thread's own retired instructions.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/check.hpp"
#include "src/trace/op_source.hpp"
#include "src/trace/stack_dist_generator.hpp"

namespace capart::trace {

/// One phase: behaviour `params` lasting `duration` instructions.
struct Phase {
  GenParams params;
  Instructions duration = 1'000'000;
};

/// Cyclic phase schedule for one thread.
class PhaseSchedule {
 public:
  explicit PhaseSchedule(std::vector<Phase> phases);

  /// Phase active at thread-instruction position `pos` (schedule cycles).
  const Phase& at(Instructions pos) const noexcept;

  /// Index (into the phase list) active at `pos`.
  std::size_t index_at(Instructions pos) const noexcept;

  /// Where the phase active at `pos` ends: the first position after `pos`
  /// at which index_at() may change.
  Instructions phase_end(Instructions pos) const noexcept;

  std::size_t size() const noexcept { return phases_.size(); }
  const std::vector<Phase>& phases() const noexcept { return phases_; }

 private:
  std::vector<Phase> phases_;
  Instructions cycle_length_ = 0;
};

/// A trace generator that switches parameters at phase boundaries.
class PhasedGenerator final : public OpSource {
 public:
  /// Validates every phase's parameters and fetches their draw tables from
  /// the process-wide registry (draw_table.hpp), building missing ones, so
  /// fill() never builds a table or takes the registry's lock.
  PhasedGenerator(PhaseSchedule schedule, Rng rng, Addr private_base,
                  Addr shared_base);

  /// Writes the next `n` (gap, access) units to `out` and returns `n`.
  /// Phase boundaries are honoured at operation granularity (a boundary
  /// inside a gap run takes effect at the next op): each batch of the
  /// underlying generator ends after the op that crosses one.
  std::size_t fill(NextOp* out, std::size_t n) override;

  /// The next unit: a one-op fill().
  NextOp next() override;

  /// Sizes the generator's storage for every phase of the schedule, so
  /// fill() never allocates (a source filled on a helper thread then leaves
  /// nothing in that thread's allocator). The stream is unchanged.
  void reserve();

  /// Current position in the thread's instruction stream.
  Instructions position() const noexcept { return position_; }

  const GenParams& current_params() const noexcept {
    return generator_.params();
  }

 private:
  PhaseSchedule schedule_;
  /// Each phase's draw tables, in schedule order.
  std::vector<DrawTables> tables_;
  StackDistGenerator generator_;
  Instructions position_ = 0;
  std::size_t current_phase_;
  /// End of the phase the generator's params belong to.
  Instructions phase_end_;
};

}  // namespace capart::trace
