// A deliberately naive reference model of the shared cache of paper §V, and
// of the UMON shadow directory, for differential tests of the optimized
// structures (CacheCore, BankedL2, UtilityMonitor).
//
// Everything here is written for obviousness, not speed: each set is a
// vector of lines searched linearly, true LRU is a per-line timestamp
// (victim = smallest stamp), tree-PLRU keeps its node bits in an explicit
// per-set vector and SRRIP its RRPVs on the lines, and victim choice applies
// the enforcement rule as §V states it:
//
//   * a free (invalid) way is used first, the lowest-numbered one — under
//     CLOS masks only a free way inside the thread's mask;
//   * otherwise the replacement policy picks among the eligible lines:
//       none / set coloring   every line;
//       eviction control and  a thread below its way target evicts among
//       flush-reconfigure     lines it does not own, a thread at or above
//                             its target among its own lines;
//       CLOS masks            the lines inside the thread's mask.
//
// Hits are unrestricted in every mode. Flush-reconfigure additionally
// invalidates, on every retarget, each shrinking thread's policy victims
// among its own lines until it holds no more than its new target in every
// set. There is no block index, no single-thread fast path and no fill
// counter.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/types.hpp"
#include "src/mem/cache_core.hpp"
#include "src/mem/clos.hpp"
#include "src/mem/replacement.hpp"

namespace capart::ref {

struct RefResult {
  bool hit = false;
  bool inter_thread_hit = false;
  bool inter_thread_eviction = false;
};

/// Per-thread counters, mirroring mem::ThreadCacheCounters.
struct RefCounters {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inter_thread_hits = 0;
  std::uint64_t inter_thread_evictions_caused = 0;
  std::uint64_t inter_thread_evictions_suffered = 0;
  std::uint64_t intra_thread_evictions = 0;
  std::uint64_t writebacks = 0;
};

class ReferenceCache {
 public:
  ReferenceCache(std::uint32_t sets, std::uint32_t ways, ThreadId threads,
                 mem::ReplacementKind repl,
                 mem::PartitionEnforcement enforcement)
      : ways_(ways),
        repl_(repl),
        enforcement_(enforcement),
        sets_(sets, std::vector<Line>(ways)),
        plru_bits_(sets, std::vector<bool>(std::bit_ceil(ways) - 1, false)),
        targets_(threads, ways / threads),
        masks_(threads, mem::WayMask{.low_way = 0, .nr_ways = ways}),
        counters_(threads) {
    for (ThreadId t = 0; t < ways % threads; ++t) targets_[t] += 1;
  }

  /// One access to the set the block's low bits select.
  RefResult access(ThreadId thread, std::uint64_t block, AccessType type) {
    return access_in_set(
        thread, block, static_cast<std::uint32_t>(block % sets_.size()), type);
  }

  RefResult access_in_set(ThreadId thread, std::uint64_t block,
                          std::uint32_t set, AccessType type) {
    std::vector<Line>& lines = sets_[set];
    RefCounters& mine = counters_[thread];
    ++mine.accesses;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Line& line = lines[w];
      if (!line.valid || line.block != block) continue;
      RefResult result{.hit = true};
      ++mine.hits;
      if (line.last != thread) {
        result.inter_thread_hit = true;
        ++mine.inter_thread_hits;
      }
      line.last = thread;
      if (type == AccessType::kWrite) line.dirty = true;
      touch(set, w, /*fill=*/false);
      return result;
    }

    ++mine.misses;
    RefResult result;
    const std::uint32_t w = victim_for(set, thread);
    Line& line = lines[w];
    if (line.valid) {
      if (line.dirty) ++mine.writebacks;
      if (line.last != thread) {
        result.inter_thread_eviction = true;
        ++mine.inter_thread_evictions_caused;
        ++counters_[line.last].inter_thread_evictions_suffered;
      } else {
        ++mine.intra_thread_evictions;
      }
    }
    line.valid = true;
    line.block = block;
    line.owner = thread;
    line.last = thread;
    line.dirty = type == AccessType::kWrite;
    touch(set, w, /*fill=*/true);
    return result;
  }

  /// Installs per-thread way targets (eviction control / flush-reconfigure).
  void set_targets(const std::vector<std::uint32_t>& targets) {
    flushed_ = 0;
    if (enforcement_ == mem::PartitionEnforcement::kWayFlushReconfigure) {
      for (std::uint32_t s = 0; s < sets_.size(); ++s) {
        for (ThreadId t = 0; t < targets.size(); ++t) {
          if (targets[t] >= targets_[t]) continue;
          while (owned_in_set(s, t) > targets[t]) {
            const std::uint32_t w = policy_victim(s, [&](std::uint32_t way) {
              return sets_[s][way].owner == t;
            });
            sets_[s][w].valid = false;
            ++flushed_;
          }
        }
      }
    }
    targets_ = targets;
  }

  /// Installs per-thread CLOS way masks.
  void set_way_ranges(const std::vector<mem::WayMask>& masks) {
    masks_ = masks;
  }

  /// Drops every line and all replacement state (counters are kept).
  void flush() {
    for (std::vector<Line>& lines : sets_) {
      for (Line& line : lines) line = Line{};
    }
    for (std::vector<bool>& bits : plru_bits_) {
      std::fill(bits.begin(), bits.end(), false);
    }
  }

  /// The blocks resident in `set`, ascending.
  std::vector<std::uint64_t> resident(std::uint32_t set) const {
    std::vector<std::uint64_t> blocks;
    for (const Line& line : sets_[set]) {
      if (line.valid) blocks.push_back(line.block);
    }
    std::sort(blocks.begin(), blocks.end());
    return blocks;
  }

  std::uint32_t owned_in_set(std::uint32_t set, ThreadId thread) const {
    std::uint32_t n = 0;
    for (const Line& line : sets_[set]) {
      if (line.valid && line.owner == thread) ++n;
    }
    return n;
  }

  std::uint64_t owned_total(ThreadId thread) const {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < sets_.size(); ++s) {
      n += owned_in_set(s, thread);
    }
    return n;
  }

  std::uint64_t flushed_on_last_retarget() const { return flushed_; }
  const RefCounters& counters(ThreadId thread) const {
    return counters_[thread];
  }

 private:
  struct Line {
    bool valid = false;
    std::uint64_t block = 0;
    ThreadId owner = 0;
    ThreadId last = 0;
    bool dirty = false;
    std::uint64_t stamp = 0;  ///< true LRU: time of the last touch
    std::uint8_t rrpv = 3;    ///< SRRIP re-reference prediction
  };

  /// The way a miss by `thread` in `set` fills.
  std::uint32_t victim_for(std::uint32_t set, ThreadId thread) {
    const std::vector<Line>& lines = sets_[set];
    std::uint32_t lo = 0;
    std::uint32_t hi = ways_;
    if (enforcement_ == mem::PartitionEnforcement::kClosWayMask) {
      lo = masks_[thread].low_way;
      hi = masks_[thread].high_way();
    }
    for (std::uint32_t w = lo; w < hi; ++w) {
      if (!lines[w].valid) return w;
    }
    switch (enforcement_) {
      case mem::PartitionEnforcement::kNone:
      case mem::PartitionEnforcement::kSetColoring:
        return policy_victim(set, [](std::uint32_t) { return true; });
      case mem::PartitionEnforcement::kClosWayMask:
        return policy_victim(
            set, [&](std::uint32_t w) { return w >= lo && w < hi; });
      case mem::PartitionEnforcement::kWayEvictionControl:
      case mem::PartitionEnforcement::kWayFlushReconfigure:
        break;
    }
    const std::uint32_t own = owned_in_set(set, thread);
    // Below target: take a line from another thread, if there is one.
    if (own < targets_[thread] && own < ways_) {
      return policy_victim(
          set, [&](std::uint32_t w) { return lines[w].owner != thread; });
    }
    if (own > 0) {
      return policy_victim(
          set, [&](std::uint32_t w) { return lines[w].owner == thread; });
    }
    return policy_victim(set, [](std::uint32_t) { return true; });
  }

  /// The replacement policy's pick among the valid lines of `set` that
  /// `allowed` admits.
  template <class Allowed>
  std::uint32_t policy_victim(std::uint32_t set, Allowed allowed) {
    std::vector<Line>& lines = sets_[set];
    const auto eligible = [&](std::uint32_t w) {
      return w < ways_ && lines[w].valid && allowed(w);
    };
    switch (repl_) {
      case mem::ReplacementKind::kTrueLru: {
        std::uint32_t best = ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
          if (eligible(w) &&
              (best == ways_ || lines[w].stamp < lines[best].stamp)) {
            best = w;
          }
        }
        return best;
      }
      case mem::ReplacementKind::kTreePlru: {
        // Walk from the root toward the side each node points at, turning
        // to the other side when the pointed-at subtree holds no eligible
        // way.
        const std::vector<bool>& bits = plru_bits_[set];
        std::uint32_t node = 0;
        std::uint32_t lo = 0;
        std::uint32_t span = std::bit_ceil(ways_);
        while (span > 1) {
          const std::uint32_t half = span / 2;
          const bool right_first = bits[node];
          bool left_ok = false;
          bool right_ok = false;
          for (std::uint32_t w = lo; w < lo + half; ++w) {
            left_ok = left_ok || eligible(w);
          }
          for (std::uint32_t w = lo + half; w < lo + span; ++w) {
            right_ok = right_ok || eligible(w);
          }
          const bool go_right = right_first ? right_ok : !left_ok;
          if (go_right) lo += half;
          node = 2 * node + (go_right ? 2 : 1);
          span = half;
        }
        return lo;
      }
      case mem::ReplacementKind::kSrrip: {
        while (true) {
          for (std::uint32_t w = 0; w < ways_; ++w) {
            if (eligible(w) && lines[w].rrpv == 3) return w;
          }
          for (std::uint32_t w = 0; w < ways_; ++w) {
            if (eligible(w)) ++lines[w].rrpv;
          }
        }
      }
    }
    return ways_;
  }

  void touch(std::uint32_t set, std::uint32_t way, bool fill) {
    Line& line = sets_[set][way];
    line.stamp = ++clock_;
    line.rrpv = fill ? 2 : 0;
    // Every node on the root-to-leaf path points away from the touched way.
    std::vector<bool>& bits = plru_bits_[set];
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t span = std::bit_ceil(ways_);
    while (span > 1) {
      const std::uint32_t half = span / 2;
      const bool in_right = way >= lo + half;
      bits[node] = !in_right;
      if (in_right) lo += half;
      node = 2 * node + (in_right ? 2 : 1);
      span = half;
    }
  }

  std::uint32_t ways_;
  mem::ReplacementKind repl_;
  mem::PartitionEnforcement enforcement_;
  std::vector<std::vector<Line>> sets_;
  std::vector<std::vector<bool>> plru_bits_;
  std::vector<std::uint32_t> targets_;
  std::vector<mem::WayMask> masks_;
  std::vector<RefCounters> counters_;
  std::uint64_t clock_ = 0;
  std::uint64_t flushed_ = 0;
};

/// The UMON shadow directory (Suh et al.), naively: per thread and sampled
/// set, the resident blocks with the time of their last touch. A hit's
/// depth is the number of blocks in the set touched more recently; a miss
/// fills a free way, or replaces the least recently touched block.
class ReferenceUmon {
 public:
  ReferenceUmon(std::uint32_t sets, std::uint32_t ways, ThreadId threads,
                std::uint32_t sampling_shift)
      : sets_(sets),
        ways_(ways),
        shift_(sampling_shift),
        shadow_(threads,
                std::vector<std::vector<Entry>>(sets >> sampling_shift)),
        depth_hits_(threads, std::vector<std::uint64_t>(ways, 0)),
        accesses_(threads, 0),
        misses_(threads, 0) {}

  void observe(ThreadId thread, std::uint64_t block) {
    const auto set = static_cast<std::uint32_t>(block % sets_);
    if (set % (1u << shift_) != 0) return;
    std::vector<Entry>& entries = shadow_[thread][set >> shift_];
    ++accesses_[thread];
    for (Entry& e : entries) {
      if (e.block != block) continue;
      std::uint32_t depth = 0;
      for (const Entry& other : entries) {
        if (other.stamp > e.stamp) ++depth;
      }
      ++depth_hits_[thread][depth];
      e.stamp = ++clock_;
      return;
    }
    ++misses_[thread];
    if (entries.size() < ways_) {
      entries.push_back({block, ++clock_});
      return;
    }
    Entry* oldest = &entries.front();
    for (Entry& e : entries) {
      if (e.stamp < oldest->stamp) oldest = &e;
    }
    *oldest = {block, ++clock_};
  }

  void reset_interval() {
    for (std::vector<std::uint64_t>& hits : depth_hits_) {
      std::fill(hits.begin(), hits.end(), 0);
    }
    std::fill(accesses_.begin(), accesses_.end(), 0);
    std::fill(misses_.begin(), misses_.end(), 0);
  }

  std::uint64_t hits_at_depth(ThreadId thread, std::uint32_t depth) const {
    return depth_hits_[thread][depth];
  }
  std::uint64_t sampled_accesses(ThreadId thread) const {
    return accesses_[thread];
  }
  std::uint64_t sampled_misses(ThreadId thread) const {
    return misses_[thread];
  }

 private:
  struct Entry {
    std::uint64_t block;
    std::uint64_t stamp;
  };

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t shift_;
  std::vector<std::vector<std::vector<Entry>>> shadow_;
  std::vector<std::vector<std::uint64_t>> depth_hits_;
  std::vector<std::uint64_t> accesses_;
  std::vector<std::uint64_t> misses_;
  std::uint64_t clock_ = 0;
};

}  // namespace capart::ref
