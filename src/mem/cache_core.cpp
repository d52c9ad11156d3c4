#include "src/mem/cache_core.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/mem/simd.hpp"

namespace capart::mem {

std::string_view to_string(PartitionEnforcement enforcement) noexcept {
  switch (enforcement) {
    case PartitionEnforcement::kNone: return "none";
    case PartitionEnforcement::kWayEvictionControl: return "eviction-control";
    case PartitionEnforcement::kWayFlushReconfigure: return "flush-reconfigure";
    case PartitionEnforcement::kSetColoring: return "set-coloring";
    case PartitionEnforcement::kClosWayMask: return "clos-way-mask";
  }
  return "unknown";
}

CacheCore::CacheCore(const CacheGeometry& geometry, ThreadId num_threads,
                     PartitionEnforcement enforcement)
    : geometry_(geometry),
      num_threads_(num_threads),
      enforcement_(enforcement),
      stats_(num_threads) {
  geometry_.validate();
  CAPART_CHECK(num_threads_ > 0, "cache core needs >= 1 thread");
  mono_ = num_threads_ == 1 &&
          enforcement_ != PartitionEnforcement::kClosWayMask;
  const std::size_t lines =
      static_cast<std::size_t>(geometry_.sets) * geometry_.ways;
  repl_ = make_replacement(geometry_.repl, geometry_.sets, geometry_.ways);
  lru_fast_ = repl_->lru_list();
  tags_.assign(lines, kInvalidTag);
  dirty_.assign(lines, 0);
  fill_count_.assign(geometry_.sets, 0);
  if (!mono_) {
    // A mono core never reads its sharing metadata (see mono_).
    owner_.assign(lines, kNoThread);
    last_accessor_.assign(lines, kNoThread);
    owned_.assign(static_cast<std::size_t>(geometry_.sets) * num_threads_, 0);
    owned_totals_.assign(num_threads_, 0);
  }
  if (use_block_index(geometry_.ways)) {
    index_ = std::make_unique<BlockWayIndex>(geometry_.sets, geometry_.ways);
  }
  // Start from an equal split (paper Fig 13 initialization). Recorded in all
  // modes so current_targets() reads sensibly even without enforcement.
  targets_.assign(num_threads_, geometry_.ways / num_threads_);
  std::uint32_t leftover = geometry_.ways % num_threads_;
  for (std::uint32_t t = 0; t < leftover; ++t) targets_[t] += 1;
  if (enforcement_ == PartitionEnforcement::kClosWayMask) {
    // Full-cache masks until the owner installs real ones.
    ranges_.assign(num_threads_,
                   WayMask{.low_way = 0, .nr_ways = geometry_.ways});
  }
}

void CacheCore::set_way_ranges(std::span<const WayMask> per_thread) {
  CAPART_CHECK(enforcement_ == PartitionEnforcement::kClosWayMask,
               "set_way_ranges is only meaningful with clos enforcement");
  CAPART_CHECK(per_thread.size() == num_threads_,
               "one way mask per thread required");
  for (const WayMask& m : per_thread) {
    CAPART_CHECK(m.nr_ways >= 1, "every thread's CLOS keeps at least one way");
    CAPART_CHECK(m.high_way() <= geometry_.ways,
                 "way mask beyond the cache's ways");
  }
  ranges_.assign(per_thread.begin(), per_thread.end());
}

void CacheCore::set_targets(std::span<const std::uint32_t> targets) {
  CAPART_CHECK(enforcement_ == PartitionEnforcement::kWayEvictionControl ||
                   enforcement_ == PartitionEnforcement::kWayFlushReconfigure,
               "set_targets is only meaningful with eviction control");
  CAPART_CHECK(targets.size() == num_threads_,
               "one way target per thread required");
  std::uint32_t sum = 0;
  for (std::uint32_t t : targets) {
    CAPART_CHECK(t >= 1, "every thread must keep at least one way");
    sum += t;
  }
  CAPART_CHECK(sum == geometry_.ways, "way targets must sum to total ways");

  flushed_on_last_retarget_ = 0;
  if (enforcement_ == PartitionEnforcement::kWayFlushReconfigure) {
    // Reconfiguration removes ways from the shrinking threads immediately:
    // in every set, each shrinking thread loses its replacement-policy
    // victims (its LRU lines, under true LRU) down to the new target — the
    // data loss §V argues against. The gradual mechanism
    // (kWayEvictionControl) never flushes.
    bool any = false;
    for (ThreadId t = 0; t < num_threads_; ++t) {
      any = any || targets[t] < targets_[t];
    }
    if (any) {
      for (std::uint32_t s = 0; s < geometry_.sets; ++s) {
        const std::size_t base = line_index(s, 0);
        for (ThreadId t = 0; t < num_threads_; ++t) {
          if (targets[t] >= targets_[t]) continue;
          while (owned(s, t) > targets[t]) {
            const ReplacementPolicy::Eligible own_lines{
                .tags = &tags_[base],
                .owner = &owner_[base],
                .scope = ReplacementPolicy::Eligible::Scope::kOwnedBy,
                .thread = t};
            const std::uint32_t way = repl_->victim(s, own_lines);
            invalidate_line(s, way);
            ++flushed_on_last_retarget_;
          }
        }
      }
    }
  }
  targets_.assign(targets.begin(), targets.end());
}

void CacheCore::invalidate_line(std::uint32_t set, std::uint32_t way) {
  const std::size_t idx = line_index(set, way);
  CAPART_DCHECK(!mono_, "a single-thread cache never invalidates a line");
  CAPART_DCHECK(tags_[idx] != kInvalidTag, "invalidating an invalid line");
  if (index_ != nullptr) index_->erase(set, tags_[idx]);
  tags_[idx] = kInvalidTag;
  fill_count_[set] -= 1;
  owned(set, owner_[idx]) -= 1;
  --owned_totals_[owner_[idx]];
}

std::uint32_t CacheCore::choose_victim(std::uint32_t set, ThreadId thread) {
  const std::size_t base = line_index(set, 0);
  const std::uint64_t* tags = &tags_[base];
  if (enforcement_ == PartitionEnforcement::kClosWayMask) {
    // CAT semantics: fill and victimize strictly within the thread's mask.
    // The global first-invalid fast path below would escape the mask, so the
    // invalid scan is bounded to the mask here.
    const WayMask& m = ranges_[thread];
    if (fill_count_[set] < geometry_.ways) {
      const std::uint32_t w =
          simd::find_tag(tags + m.low_way, m.nr_ways, kInvalidTag);
      if (w < m.nr_ways) return m.low_way + w;
    }
    // Every way of the mask holds a valid line (whoever owns it) — evict the
    // replacement policy's pick among them.
    const ReplacementPolicy::Eligible in_mask{
        .tags = tags,
        .owner = &owner_[base],
        .scope = ReplacementPolicy::Eligible::Scope::kWayRange,
        .thread = thread,
        .range_lo = m.low_way,
        .range_hi = m.high_way()};
    return repl_->victim(set, in_mask);
  }
  // The fill count skips the first-invalid scan once the set is full — the
  // steady state of every long run. A partially filled set of a mono cache
  // has its first empty way at its fill count (see mono_); a shared cache's
  // (warmup, or holes a flush-reconfiguration retarget left) takes the
  // bounded probe.
  if (fill_count_[set] < geometry_.ways) {
    if (mono_) {
      CAPART_DCHECK(tags[fill_count_[set]] == kInvalidTag,
                    "a single-thread cache's first empty way is its fill count");
      return fill_count_[set];
    }
    const std::uint32_t w =
        simd::find_tag(tags, geometry_.ways, kInvalidTag);
    if (w < geometry_.ways) return w;
  }

  // All lines valid: ask the replacement policy within the enforcement scope.
  using Scope = ReplacementPolicy::Eligible::Scope;
  Scope scope = Scope::kAnyValid;
  if (!mono_ &&
      (enforcement_ == PartitionEnforcement::kWayEvictionControl ||
       enforcement_ == PartitionEnforcement::kWayFlushReconfigure)) {
    // §V eviction control. All lines are valid here, so if the thread is
    // below target a foreign line must exist (owned < target <= ways), and
    // at-or-above target it owns at least one line (target >= 1); the
    // fallbacks are defensive.
    const std::uint32_t own = owned(set, thread);
    if (own < targets_[thread]) {
      scope = own < geometry_.ways ? Scope::kNotOwnedBy : Scope::kOwnedBy;
    } else {
      scope = own > 0 ? Scope::kOwnedBy : Scope::kAnyValid;
    }
    // The ownership scope degenerates to "any valid line" when the thread
    // owns nothing (every line is foreign) or everything (every line is its
    // own): the eligibility predicate then agrees with kAnyValid on every
    // way, so the policy's pick is unchanged and the cheaper scope (and the
    // LRU tail shortcut below) applies.
    if ((scope == Scope::kNotOwnedBy && own == 0) ||
        (scope == Scope::kOwnedBy && own == geometry_.ways)) {
      scope = Scope::kAnyValid;
    }
  }
  if (scope == Scope::kAnyValid && lru_fast_ != nullptr) {
    // Full set, every way eligible: true LRU's victim is the recency tail —
    // exactly what find_from_lru returns on its first probe, minus the
    // virtual dispatch and the walk setup. This is the steady-state victim
    // path of every unpartitioned cache.
    return lru_fast_->lru_way(set);
  }
  // A mono core keeps no owners; its kAnyValid scope never reads them.
  const ReplacementPolicy::Eligible eligible{
      .tags = tags,
      .owner = mono_ ? nullptr : &owner_[base],
      .scope = scope,
      .thread = thread};
  return repl_->victim(set, eligible);
}

CacheCore::AccessResult CacheCore::access(ThreadId thread, Addr addr,
                                          AccessType type) {
  const std::uint64_t block = geometry_.block_of(addr);
  return access_in_set(thread, block, geometry_.set_of_block(block), type);
}

std::uint32_t CacheCore::find_way(std::uint32_t set, std::uint64_t block,
                                  std::uint32_t& probes) const noexcept {
  if (index_ != nullptr) return index_->lookup(set, block, &probes);
  const std::size_t base =
      static_cast<std::size_t>(set) * geometry_.ways;
  // Pure contiguous tag compare: empty ways hold kInvalidTag, which no real
  // block can equal, so validity needs no separate check. The probes
  // telemetry counts the ways examined up to and including the hit, all of
  // them on a miss.
  const std::uint32_t w =
      simd::find_tag(&tags_[base], geometry_.ways, block);
  if (w < geometry_.ways) {
    probes = w + 1;
    return w;
  }
  probes = geometry_.ways;
  return BlockWayIndex::kNotFound;
}

CacheCore::AccessResult CacheCore::access_in_set(ThreadId thread,
                                                 std::uint64_t block,
                                                 std::uint32_t set,
                                                 AccessType type) {
  CAPART_DCHECK(thread < num_threads_, "thread id out of range");
  CAPART_DCHECK(block != kInvalidTag, "block collides with the empty-way tag");
  ThreadCacheCounters& mine = stats_.thread(thread);
  ++mine.accesses;

  const std::size_t base = line_index(set, 0);
  std::uint32_t probes = 0;
  const std::uint32_t w = find_way(set, block, probes);
  note_lookup(probes);
  if (mono_) {
    // Lean single-thread path: the sole thread is always the inserter and
    // the last toucher, so the sharing checks cannot fire and the
    // owner/accessor/ownership bookkeeping is dead weight. Counters that can
    // change (hits/misses/writebacks/intra_thread_evictions) are maintained
    // identically to the general path.
    if (w != BlockWayIndex::kNotFound) {
      ++mine.hits;
      if (lru_fast_ != nullptr) {
        lru_fast_->touch(set, w);
      } else {
        repl_->on_hit(set, w);
      }
      if (type == AccessType::kWrite) dirty_[base + w] = 1;
      return AccessResult{.hit = true};
    }
    ++mine.misses;
    const std::uint32_t way = choose_victim(set, thread);
    const std::size_t idx = base + way;
    if (tags_[idx] != kInvalidTag) {
      if (index_ != nullptr) index_->erase(set, tags_[idx]);
      if (dirty_[idx] != 0) ++mine.writebacks;
      ++mine.intra_thread_evictions;
    } else {
      fill_count_[set] += 1;
    }
    tags_[idx] = block;
    dirty_[idx] = (type == AccessType::kWrite) ? 1 : 0;
    if (index_ != nullptr) index_->insert(set, block, way);
    if (lru_fast_ != nullptr) {
      lru_fast_->touch(set, way);
    } else {
      repl_->on_fill(set, way);
    }
    return AccessResult{};
  }
  if (w != BlockWayIndex::kNotFound) {
    AccessResult result{.hit = true};
    ++mine.hits;
    if (last_accessor_[base + w] != thread) {
      result.inter_thread_hit = true;
      ++mine.inter_thread_hits;
    }
    if (lru_fast_ != nullptr) {
      lru_fast_->touch(set, w);
    } else {
      repl_->on_hit(set, w);
    }
    last_accessor_[base + w] = thread;
    if (type == AccessType::kWrite) dirty_[base + w] = 1;
    return result;
  }

  // Miss: choose a victim under the replacement policy and fill.
  ++mine.misses;
  AccessResult result{};
  const std::uint32_t way = choose_victim(set, thread);
  const std::size_t idx = base + way;
  if (tags_[idx] != kInvalidTag) {
    owned(set, owner_[idx]) -= 1;
    --owned_totals_[owner_[idx]];
    if (index_ != nullptr) index_->erase(set, tags_[idx]);
    if (dirty_[idx] != 0) ++mine.writebacks;
    if (last_accessor_[idx] != thread) {
      result.inter_thread_eviction = true;
      ++mine.inter_thread_evictions_caused;
      ++stats_.thread(last_accessor_[idx]).inter_thread_evictions_suffered;
    } else {
      ++mine.intra_thread_evictions;
    }
  } else {
    fill_count_[set] += 1;
  }
  tags_[idx] = block;
  owner_[idx] = thread;
  last_accessor_[idx] = thread;
  dirty_[idx] = (type == AccessType::kWrite) ? 1 : 0;
  owned(set, thread) += 1;
  ++owned_totals_[thread];
  if (index_ != nullptr) index_->insert(set, block, way);
  if (lru_fast_ != nullptr) {
    lru_fast_->touch(set, way);
  } else {
    repl_->on_fill(set, way);
  }
  return result;
}

void CacheCore::flush() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
  std::fill(owned_.begin(), owned_.end(), std::uint16_t{0});
  std::fill(fill_count_.begin(), fill_count_.end(), std::uint16_t{0});
  std::fill(owned_totals_.begin(), owned_totals_.end(), std::uint64_t{0});
  if (index_ != nullptr) index_->clear();
  repl_->reset();
}

bool CacheCore::contains(Addr addr) const noexcept {
  const std::uint64_t block = geometry_.block_of(addr);
  return contains_block_in_set(block, geometry_.set_of_block(block));
}

bool CacheCore::contains_block_in_set(std::uint64_t block,
                                      std::uint32_t set) const noexcept {
  std::uint32_t probes = 0;
  return find_way(set, block, probes) != BlockWayIndex::kNotFound;
}

std::uint32_t CacheCore::recency_access(std::uint64_t block,
                                        std::uint32_t set) {
  CAPART_DCHECK(mono_ && lru_fast_ != nullptr,
                "recency_access needs a single-thread true-LRU cache");
  std::uint32_t probes = 0;
  const std::uint32_t w = find_way(set, block, probes);
  if (w != BlockWayIndex::kNotFound) {
    const std::uint32_t depth = lru_fast_->depth_of(set, w);
    lru_fast_->touch(set, w);
    return depth;
  }
  const std::uint32_t way = choose_victim(set, 0);
  const std::size_t idx = line_index(set, way);
  if (tags_[idx] == kInvalidTag) {
    fill_count_[set] += 1;
  } else if (index_ != nullptr) {
    index_->erase(set, tags_[idx]);
  }
  tags_[idx] = block;
  dirty_[idx] = 0;
  if (index_ != nullptr) index_->insert(set, block, way);
  lru_fast_->touch(set, way);
  return geometry_.ways;
}

std::uint32_t CacheCore::owned_in_set(std::uint32_t set,
                                      ThreadId thread) const {
  CAPART_CHECK(set < geometry_.sets && thread < num_threads_,
               "owned_in_set: index out of range");
  // Mono caches skip the ownership counters; every valid line is the sole
  // thread's, so the fill count is the ownership count.
  if (mono_) return fill_count_[set];
  return owned(set, thread);
}

std::uint64_t CacheCore::owned_total(ThreadId thread) const {
  CAPART_CHECK(thread < num_threads_, "owned_total: thread out of range");
  if (mono_) {
    std::uint64_t total = 0;
    for (const std::uint16_t filled : fill_count_) total += filled;
    return total;
  }
  return owned_totals_[thread];
}

}  // namespace capart::mem
