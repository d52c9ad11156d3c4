// Pluggable replacement policies for the unified cache core.
//
// Every cache structure in the simulator (private L1s, the shared L2 in all
// its partitioned organizations, the coloring cache's sets) victimizes
// through one of these policies. The paper's §V mechanism assumes true LRU;
// no real CMP implements true LRU at 64 ways, so the core also offers the
// two approximations hardware actually ships — tree-PLRU and SRRIP — to ask
// whether intra-application partitioning survives realistic replacement
// (the abl_replacement ablation; cf. the reuse-aware partitioning and LFOC
// lines of work in PAPERS.md).
//
// Partition enforcement composes with replacement through the `Eligible`
// filter: the cache core restricts the victim search to a subset of ways
// (foreign-owned, own, any) and the policy picks its preferred victim within
// that subset. For true LRU this is exactly "the LRU line among the subset";
// for PLRU and SRRIP it is the natural constrained generalization used by
// way-partitioning hardware (mask the tree walk / the RRPV scan).
//
// Metadata is compact and per-set — a linked recency list (LRU), a node-bit
// vector (PLRU), 2-bit RRPVs (SRRIP) — instead of the former per-line 64-bit
// stamps, which forced a full 64-stamp rescan on every miss.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/types.hpp"

namespace capart::mem {

/// Sentinel tag of an empty (invalid) way in the cache core's
/// struct-of-arrays tag store (the UMON shadow directories are cache cores
/// too): validity is folded into the tag array itself — a way is valid iff
/// its tag differs from kInvalidTag — so the hit probe is a pure contiguous
/// 64-bit compare loop (one cache line of tags for 8 ways) with no second
/// validity array to stride through (see simd.hpp). No real block can
/// collide: block numbers are addresses divided by the line size, and the
/// address space tops out far below 2^64 (the shared region base is 2^52;
/// cache_core DCHECKs the invariant on every access).
inline constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

/// Replacement policy of one cache structure. kTrueLru is the paper-faithful
/// configuration; kTreePlru and kSrrip are the hardware-realism extensions.
enum class ReplacementKind : std::uint8_t {
  kTrueLru,
  kTreePlru,
  kSrrip,
};

std::string_view to_string(ReplacementKind kind) noexcept;

/// Parses "lru" / "plru" / "srrip"; returns false on anything else.
bool parse_replacement(std::string_view name, ReplacementKind& out) noexcept;

/// All replacement kinds, in a stable order (for sweeps and tests).
inline constexpr ReplacementKind kAllReplacementKinds[] = {
    ReplacementKind::kTrueLru,
    ReplacementKind::kTreePlru,
    ReplacementKind::kSrrip,
};

/// Per-set true-LRU recency order, stored as an intrusive doubly-linked list
/// of the ways: move-to-front — the operation every single access performs —
/// is O(1) link surgery. It is the recency order of the cache core's LRU
/// policy, the shadow-tag utility monitor's included (its directories are
/// true-LRU cache cores, whatever the main cache runs); the monitor also
/// asks how deep in the order a hit landed (depth_of, through
/// CacheCore::recency_access).
class LruList {
 public:
  LruList(std::uint32_t sets, std::uint32_t ways);

  /// Moves `way` to the MRU position of `set` in O(1).
  void touch(std::uint32_t set, std::uint32_t way) noexcept {
    if (head_[set] == way) return;
    std::uint16_t* prev = &prev_[static_cast<std::size_t>(set) * ways_];
    std::uint16_t* next = &next_[static_cast<std::size_t>(set) * ways_];
    const std::uint16_t p = prev[way];  // valid: way is not the head
    if (way == tail_[set]) {
      tail_[set] = p;
    } else {
      prev[next[way]] = p;
    }
    next[p] = next[way];
    prev[head_[set]] = static_cast<std::uint16_t>(way);
    next[way] = head_[set];
    head_[set] = static_cast<std::uint16_t>(way);
  }

  /// Walks from the LRU end toward MRU and returns the first way satisfying
  /// `pred`, or `ways()` when none does.
  template <class Pred>
  std::uint32_t find_from_lru(std::uint32_t set, Pred&& pred) const {
    const std::uint16_t* prev = &prev_[static_cast<std::size_t>(set) * ways_];
    const std::uint32_t head = head_[set];
    std::uint32_t way = tail_[set];
    while (true) {
      if (pred(way)) return way;
      if (way == head) return ways_;
      way = prev[way];
    }
  }

  /// The LRU way of `set` in O(1) — what find_from_lru returns when every
  /// way is eligible, which lets the cache core's victim fast path skip the
  /// walk (and the virtual policy dispatch) entirely for true LRU.
  std::uint32_t lru_way(std::uint32_t set) const noexcept {
    return tail_[set];
  }

  /// Recency position of `way` in `set`: 0 = MRU, ways-1 = LRU. Walks from
  /// the MRU end, so it costs one step per more recent way.
  std::uint32_t depth_of(std::uint32_t set, std::uint32_t way) const noexcept {
    const std::uint16_t* next = &next_[static_cast<std::size_t>(set) * ways_];
    std::uint32_t depth = 0;
    for (std::uint32_t w = head_[set]; w != way; w = next[w]) ++depth;
    return depth;
  }

  /// Restores the initial order (way 0 MRU ... way ways-1 LRU) in every set.
  void reset();

  std::uint32_t ways() const noexcept { return ways_; }

 private:
  std::uint32_t ways_;
  std::vector<std::uint16_t> prev_;  // sets x ways; undefined at the head
  std::vector<std::uint16_t> next_;  // sets x ways; undefined at the tail
  std::vector<std::uint16_t> head_;  // per set, MRU way
  std::vector<std::uint16_t> tail_;  // per set, LRU way
};

/// Interface the cache core victimizes through.
class ReplacementPolicy {
 public:
  /// Victim-eligibility filter: a way qualifies when its line is valid (its
  /// tag is not kInvalidTag) and matches the ownership scope. The arrays view
  /// the candidate set's lines (cache-core storage is set-major, so these are
  /// spans of `ways` entries).
  struct Eligible {
    enum class Scope : std::uint8_t {
      kAnyValid,
      kOwnedBy,
      kNotOwnedBy,
      /// CAT-style way masks: only ways in [range_lo, range_hi) qualify,
      /// whoever owns them (CLOS masks constrain placement, not ownership).
      kWayRange,
    };

    const std::uint64_t* tags = nullptr;
    const ThreadId* owner = nullptr;
    Scope scope = Scope::kAnyValid;
    ThreadId thread = 0;
    std::uint32_t range_lo = 0;  ///< kWayRange only
    std::uint32_t range_hi = 0;  ///< kWayRange only, exclusive

    bool operator()(std::uint32_t way) const noexcept {
      if (tags[way] == kInvalidTag) return false;
      switch (scope) {
        case Scope::kAnyValid: return true;
        case Scope::kOwnedBy: return owner[way] == thread;
        case Scope::kNotOwnedBy: return owner[way] != thread;
        case Scope::kWayRange: return way >= range_lo && way < range_hi;
      }
      return false;
    }
  };

  virtual ~ReplacementPolicy() = default;

  virtual ReplacementKind kind() const noexcept = 0;

  /// The true-LRU policy's recency list, or nullptr for every other policy.
  /// Lets the cache core inline the per-access touch (on_hit == on_fill ==
  /// LruList::touch for true LRU) instead of paying a virtual dispatch on
  /// the hot path; victim selection stays virtual.
  virtual LruList* lru_list() noexcept { return nullptr; }

  /// A miss filled (set, way).
  virtual void on_fill(std::uint32_t set, std::uint32_t way) = 0;

  /// A hit touched (set, way).
  virtual void on_hit(std::uint32_t set, std::uint32_t way) = 0;

  /// Picks the replacement victim among the eligible ways of `set`. The
  /// caller guarantees at least one way is eligible.
  virtual std::uint32_t victim(std::uint32_t set, const Eligible& eligible) = 0;

  /// Drops all recency state (cache flush).
  virtual void reset() = 0;
};

std::unique_ptr<ReplacementPolicy> make_replacement(ReplacementKind kind,
                                                    std::uint32_t sets,
                                                    std::uint32_t ways);

}  // namespace capart::mem
