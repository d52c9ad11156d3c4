#include "src/trace/phase.hpp"

#include <algorithm>

namespace capart::trace {
namespace {

std::vector<DrawTables> phase_tables(const PhaseSchedule& schedule) {
  std::vector<DrawTables> tables;
  tables.reserve(schedule.size());
  for (const Phase& phase : schedule.phases()) {
    tables.push_back(DrawTableRegistry::process().tables(phase.params));
  }
  return tables;
}

}  // namespace

PhaseSchedule::PhaseSchedule(std::vector<Phase> phases)
    : phases_(std::move(phases)) {
  CAPART_CHECK(!phases_.empty(), "phase schedule needs at least one phase");
  for (const Phase& p : phases_) {
    CAPART_CHECK(p.duration > 0, "phase duration must be positive");
    cycle_length_ += p.duration;
  }
}

std::size_t PhaseSchedule::index_at(Instructions pos) const noexcept {
  Instructions offset = pos % cycle_length_;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (offset < phases_[i].duration) return i;
    offset -= phases_[i].duration;
  }
  return phases_.size() - 1;  // unreachable: offset < cycle_length_
}

Instructions PhaseSchedule::phase_end(Instructions pos) const noexcept {
  const Instructions offset = pos % cycle_length_;
  Instructions end = 0;
  for (const Phase& phase : phases_) {
    end += phase.duration;
    if (offset < end) break;
  }
  return pos - offset + end;
}

const Phase& PhaseSchedule::at(Instructions pos) const noexcept {
  return phases_[index_at(pos)];
}

PhasedGenerator::PhasedGenerator(PhaseSchedule schedule, Rng rng,
                                 Addr private_base, Addr shared_base)
    : schedule_(std::move(schedule)),
      tables_(phase_tables(schedule_)),
      generator_(schedule_.at(0).params, tables_[schedule_.index_at(0)], rng,
                 private_base, shared_base),
      current_phase_(schedule_.index_at(0)),
      phase_end_(schedule_.phase_end(0)) {}

void PhasedGenerator::reserve() {
  std::uint32_t blocks = 0;
  for (const Phase& phase : schedule_.phases()) {
    blocks = std::max(blocks, phase.params.working_set_blocks);
  }
  generator_.reserve(blocks);
}

std::size_t PhasedGenerator::fill(NextOp* out, std::size_t n) {
  for (std::size_t done = 0; done < n;) {
    if (position_ >= phase_end_) {
      const std::size_t phase = schedule_.index_at(position_);
      if (phase != current_phase_) {
        current_phase_ = phase;
        generator_.set_params(schedule_.phases()[phase].params,
                              tables_[phase]);
      }
      phase_end_ = schedule_.phase_end(position_);
    }
    done += generator_.fill(out + done, n - done, position_, phase_end_);
  }
  return n;
}

NextOp PhasedGenerator::next() {
  NextOp op;
  (void)fill(&op, 1);
  return op;
}

}  // namespace capart::trace
