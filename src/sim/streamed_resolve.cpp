#include "src/sim/streamed_resolve.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/trace/trace_io.hpp"

namespace capart::sim {
namespace {

/// Ops per chunk: one driver ring refill (Driver::kRingCapacity).
constexpr std::size_t kChunkOps = 256;
/// Chunks a helper may resolve ahead of the driver, per thread.
constexpr std::uint64_t kRingChunks = 8;
/// Marks a chunk whose producer threw; the stream's error holds why.
constexpr std::uint32_t kFailedChunk = ~std::uint32_t{0};
/// Busy-wait rounds before a driver waiting on a helper's chunk starts
/// yielding its CPU.
constexpr std::uint32_t kSpinRounds = 1024;

std::atomic<bool> g_force_inline{false};
std::atomic<bool> g_fail_helper_chunks{false};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

struct Chunk {
  std::uint32_t count = 0;  ///< valid ops, or kFailedChunk
  std::array<trace::PackedOp, kChunkOps> ops;
};

/// One thread's stream. The resolver and the error belong to whoever holds
/// `producing` — a helper or the consuming driver; the flag's
/// acquire/release hands them over. Chunk `seq` lives in ring slot
/// seq % kRingChunks; producers publish through `produced`, the driver
/// frees slots through `consumed` (a single-producer-at-a-time,
/// single-consumer ring).
struct Stream {
  Stream(const ResolveSpec& spec, ThreadId t) : resolver(spec, t) {}

  ThreadResolver resolver;
  std::exception_ptr error;
  /// kRingChunks chunks; null when the stream resolves inline only.
  std::unique_ptr<Chunk[]> ring;
  std::atomic<bool> producing{false};
  /// Nothing left for helpers: the resolver is exhausted or failed.
  std::atomic<bool> closed{false};
  alignas(64) std::atomic<std::uint64_t> produced{0};
  alignas(64) std::atomic<std::uint64_t> consumed{0};
  /// Driver-side read position: the chunk being drained, if any.
  const Chunk* current = nullptr;
  std::uint32_t read_pos = 0;

  // seq_cst, like `consumed` and the pool's idle count, so that a helper
  // going idle cannot miss both a chunk the driver consumed and the claim it
  // released (ResolvePool::chunk_consumed).
  bool try_claim() noexcept {
    bool expected = false;
    return producing.compare_exchange_strong(expected, true);
  }
  void unclaim() noexcept { producing.store(false); }
};

/// The streams of the last pooled run this thread drove. Helpers write a
/// stream's generator and caches until its run ends; freed right then, that
/// memory is what the thread's next PreparedExperiment allocates, and
/// preparing a run there took twice as long, since each cache line it
/// writes must first come from a helper's core. Kept until the thread starts
/// its next streamed run, they are freed after that run's preparation.
thread_local std::vector<std::unique_ptr<Stream>> t_retired;

class StreamGroup;

/// The process-wide helper pool. Helpers pick work under `mutex_` and
/// resolve outside it; a helper claims a stream only while its group is
/// attached, so detach() followed by waiting out the claims it saw is
/// enough to free a group.
class ResolvePool {
 public:
  static ResolvePool& instance() {
    // Leaked on purpose, helper threads included: they wait on its
    // condition variables until the process exits, so it must outlive every
    // static destructor. They touch nothing else but the streams of
    // attached groups, which detach() waits out.
    static ResolvePool* const pool = new ResolvePool();
    return *pool;
  }

  unsigned capacity() const noexcept { return capacity_; }

  void attach(StreamGroup* group);
  void detach(StreamGroup* group);
  /// Driver hook after it consumed a chunk: wakes helpers idle for want of
  /// work once at most half the stream's ring is ready, so they refill in
  /// batches rather than one wake-up per chunk.
  void chunk_consumed(const Stream& stream);

 private:
  ResolvePool();
  void helper_main(unsigned index);
  /// Under mutex_: helpers allowed to work while `groups_` are active —
  /// the CPUs the active drivers leave idle.
  unsigned allowed_locked() const noexcept;
  /// Under mutex_: claims the stream a helper should fill next, or null.
  Stream* claim_locked();

  unsigned cpus_ = 1;
  unsigned capacity_ = 0;
  std::mutex mutex_;
  /// Allowed helpers with no stream to fill wait on idle_cv_ (counted by
  /// idle_); helpers beyond allowed_locked() wait on parked_cv_.
  std::condition_variable idle_cv_;
  std::condition_variable parked_cv_;
  std::vector<StreamGroup*> groups_;  // guarded by mutex_
  std::vector<std::thread> helpers_;  // guarded by mutex_
  std::atomic<unsigned> idle_{0};
};

/// The streams of one run, shared by its per-thread sources, or of one
/// spool resolve. Streams are built on the first fill() or on drain().
class StreamGroup {
 public:
  /// Stream i resolves thread threads[i] of `spec`. A `retire` group's
  /// driver thread keeps its streams after it ends (see t_retired).
  StreamGroup(ResolveSpec spec, std::vector<ThreadId> threads, bool retire)
      : spec_(std::move(spec)), threads_(std::move(threads)), retire_(retire) {}
  ~StreamGroup() {
    if (pooled_) {
      ResolvePool::instance().detach(this);
      if (retire_) t_retired = std::move(streams_);
    }
  }
  StreamGroup(const StreamGroup&) = delete;
  StreamGroup& operator=(const StreamGroup&) = delete;

  /// Stream i's next ops, for the driver replaying it.
  std::size_t fill(std::size_t i, trace::NextOp* out, std::size_t n);
  /// Hands every stream's records to `sink`, chunk by chunk as they are
  /// resolved, until all are exhausted.
  void drain(const StreamSink& sink);

  std::vector<std::unique_ptr<Stream>>& streams() noexcept { return streams_; }

 private:
  void start();

  ResolveSpec spec_;
  std::vector<ThreadId> threads_;
  bool retire_;
  std::vector<std::unique_ptr<Stream>> streams_;
  bool pooled_ = false;
};

/// A helper's work unit: resolves stream `s`'s next chunk into its ring and
/// publishes it. The helper has claimed `s`; nothing happens when the ring
/// is full or the stream closed.
void produce_chunk(Stream& s) {
  if (s.closed.load(std::memory_order_relaxed)) return;
  const std::uint64_t seq = s.produced.load(std::memory_order_relaxed);
  if (seq - s.consumed.load(std::memory_order_acquire) >= kRingChunks) {
    return;
  }
  Chunk& chunk = s.ring[seq % kRingChunks];
  try {
    if (g_fail_helper_chunks.load(std::memory_order_relaxed)) {
      throw Error("streamed resolve: injected helper fault");
    }
    std::array<trace::NextOp, kChunkOps> ops;
    const std::size_t got = s.resolver.fill(ops.data(), ops.size());
    if (got == 0) {
      s.closed.store(true, std::memory_order_release);
      return;
    }
    for (std::size_t i = 0; i < got; ++i) chunk.ops[i] = trace::pack_op(ops[i]);
    chunk.count = static_cast<std::uint32_t>(got);
  } catch (...) {
    s.error = std::current_exception();
    chunk.count = kFailedChunk;
  }
  s.produced.store(seq + 1, std::memory_order_release);
  // Release: a consumer that sees the stream closed sees every chunk.
  if (chunk.count == kFailedChunk || s.resolver.exhausted()) {
    s.closed.store(true, std::memory_order_release);
  }
}

ResolvePool::ResolvePool() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus_ = static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
  } else {
    cpus_ = std::max(std::thread::hardware_concurrency(), 1u);
  }
  capacity_ = cpus_ - 1;
}

unsigned ResolvePool::allowed_locked() const noexcept {
  const auto active = static_cast<unsigned>(groups_.size());
  return active < cpus_ ? std::min(capacity_, cpus_ - active) : 0;
}

void ResolvePool::attach(StreamGroup* group) {
  std::lock_guard<std::mutex> lock(mutex_);
  groups_.push_back(group);
  // Started once per process, on the first streamed run.
  while (helpers_.size() < capacity_) {
    helpers_.emplace_back(&ResolvePool::helper_main, this,
                          static_cast<unsigned>(helpers_.size()));
  }
  idle_cv_.notify_all();
  parked_cv_.notify_all();
}

void ResolvePool::detach(StreamGroup* group) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    groups_.erase(std::find(groups_.begin(), groups_.end(), group));
    parked_cv_.notify_all();  // one driver fewer: more helpers may work
  }
  // No helper can claim the group's streams any more; wait out the claims
  // already made (one chunk each). The release store is a helper's last
  // touch of a stream, so nothing reaches it after this loop.
  for (const std::unique_ptr<Stream>& s : group->streams()) {
    while (s->producing.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

void ResolvePool::chunk_consumed(const Stream& stream) {
  // seq_cst pairs with an idle helper's increment and rescan: either the
  // rescan sees the consumed chunk, or this load sees the idle helper.
  if (idle_.load(std::memory_order_seq_cst) == 0) return;
  const std::uint64_t ready = stream.produced.load(std::memory_order_relaxed) -
                              stream.consumed.load(std::memory_order_relaxed);
  if (ready > kRingChunks / 2) return;
  std::lock_guard<std::mutex> lock(mutex_);
  idle_cv_.notify_all();
}

Stream* ResolvePool::claim_locked() {
  // The emptiest stream with a free slot: its driver runs dry soonest.
  Stream* best = nullptr;
  std::uint64_t best_ready = 0;
  for (StreamGroup* group : groups_) {
    for (const std::unique_ptr<Stream>& s : group->streams()) {
      if (s->closed.load(std::memory_order_relaxed) || s->producing.load()) {
        continue;
      }
      const std::uint64_t ready =
          s->produced.load(std::memory_order_relaxed) -
          s->consumed.load(std::memory_order_seq_cst);
      if (ready >= kRingChunks) continue;
      if (best == nullptr || ready < best_ready) {
        best = s.get();
        best_ready = ready;
      }
    }
  }
  return best != nullptr && best->try_claim() ? best : nullptr;
}

void ResolvePool::helper_main(unsigned index) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (index >= allowed_locked()) {
      parked_cv_.wait(lock);
      continue;
    }
    Stream* s = claim_locked();
    if (s == nullptr) {
      idle_.fetch_add(1, std::memory_order_seq_cst);
      s = claim_locked();
      if (s == nullptr) idle_cv_.wait(lock);
      idle_.fetch_sub(1, std::memory_order_relaxed);
      if (s == nullptr) continue;
    }
    lock.unlock();
    produce_chunk(*s);
    s->unclaim();
    lock.lock();
  }
}

/// The consumer's own chunk: with `s` claimed by the consumer and chunk
/// `seq` not published, resolves up to `n` ops straight into `out` as one
/// chunk that is produced and consumed at once, and releases the claim.
/// Returns how many ops (0 once the stream is exhausted); a failure closes
/// the stream and is rethrown.
std::size_t resolve_inline(Stream& s, std::uint64_t seq, trace::NextOp* out,
                           std::size_t n) {
  if (s.error) {
    s.unclaim();
    std::rethrow_exception(s.error);
  }
  std::size_t got = 0;
  try {
    got = s.resolver.fill(out, n);
  } catch (...) {
    s.error = std::current_exception();
    s.closed.store(true, std::memory_order_release);
    s.unclaim();
    throw;
  }
  if (got > 0) {
    s.produced.store(seq + 1, std::memory_order_relaxed);
    s.consumed.store(seq + 1, std::memory_order_seq_cst);
  }
  if (got == 0 || s.resolver.exhausted()) {
    s.closed.store(true, std::memory_order_release);
  }
  s.unclaim();
  // A helper that went idle while this stream was claimed here must learn
  // that it is free again.
  ResolvePool::instance().chunk_consumed(s);
  return got;
}

void StreamGroup::start() {
  t_retired.clear();
  streams_.reserve(threads_.size());
  for (const ThreadId t : threads_) {
    streams_.push_back(std::make_unique<Stream>(spec_, t));
  }
  ResolvePool& pool = ResolvePool::instance();
  if (g_force_inline.load(std::memory_order_relaxed) || pool.capacity() == 0) {
    return;
  }
  for (const std::unique_ptr<Stream>& s : streams_) {
    s->ring = std::make_unique<Chunk[]>(kRingChunks);
  }
  pooled_ = true;
  pool.attach(this);
}

std::size_t StreamGroup::fill(std::size_t i, trace::NextOp* out,
                              std::size_t n) {
  if (streams_.empty()) start();
  Stream& s = *streams_[i];
  if (s.ring == nullptr) {
    const std::size_t got = s.resolver.fill(out, n);
    CAPART_CHECK(got > 0, "streamed resolve: stream exhausted");
    return got;
  }
  for (std::uint32_t round = 0;; ++round) {
    if (s.current != nullptr) {
      const std::size_t take =
          std::min<std::size_t>(n, s.current->count - s.read_pos);
      const trace::PackedOp* records = s.current->ops.data() + s.read_pos;
      for (std::size_t k = 0; k < take; ++k) out[k] = trace::unpack_op(records[k]);
      s.read_pos += static_cast<std::uint32_t>(take);
      if (s.read_pos == s.current->count) {
        s.current = nullptr;
        s.consumed.fetch_add(1, std::memory_order_seq_cst);
        ResolvePool::instance().chunk_consumed(s);
      }
      return take;
    }
    const std::uint64_t seq = s.consumed.load(std::memory_order_relaxed);
    if (s.produced.load(std::memory_order_acquire) > seq) {
      const Chunk& chunk = s.ring[seq % kRingChunks];
      if (chunk.count == kFailedChunk) std::rethrow_exception(s.error);
      s.current = &chunk;
      s.read_pos = 0;
      continue;
    }
    if (s.try_claim()) {
      if (s.produced.load(std::memory_order_acquire) > seq) {
        s.unclaim();  // a helper published it meanwhile
        continue;
      }
      // Nobody is filling the next chunk: resolve it here, straight into
      // the driver's ring (which stays empty).
      const std::size_t got = resolve_inline(s, seq, out, n);
      CAPART_CHECK(got > 0, "streamed resolve: stream exhausted");
      return got;
    }
    // A helper is resolving exactly this chunk; it lands within one chunk's
    // work unless the helper is descheduled, so spin briefly, then yield.
    if (round < kSpinRounds) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

void StreamGroup::drain(const StreamSink& sink) {
  start();
  // One pass per round over the open streams: take each published chunk,
  // and resolve here the next chunk of any stream no helper is filling
  // (every chunk, without helpers). Only when helpers hold every open
  // stream and none has a chunk ready does this thread wait.
  std::array<trace::NextOp, kChunkOps> ops;
  std::array<trace::PackedOp, kChunkOps> packed;
  std::vector<bool> done(streams_.size(), false);
  std::size_t open = streams_.size();
  for (std::uint32_t idle_rounds = 0; open > 0;) {
    bool progressed = false;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (done[i]) continue;
      Stream& s = *streams_[i];
      const std::uint64_t seq = s.consumed.load(std::memory_order_relaxed);
      if (s.produced.load(std::memory_order_acquire) > seq) {
        const Chunk& chunk = s.ring[seq % kRingChunks];
        if (chunk.count == kFailedChunk) std::rethrow_exception(s.error);
        sink(i, std::span<const trace::PackedOp>(chunk.ops.data(), chunk.count));
        s.consumed.store(seq + 1, std::memory_order_seq_cst);
        ResolvePool::instance().chunk_consumed(s);
        progressed = true;
      } else if (s.closed.load(std::memory_order_acquire)) {
        // Closed after its last chunk was published, which is consumed once
        // `produced` has not moved past `seq`.
        if (s.produced.load(std::memory_order_relaxed) == seq) {
          done[i] = true;
          --open;
          progressed = true;
        }
      } else if (s.try_claim()) {
        if (s.produced.load(std::memory_order_acquire) > seq) {
          s.unclaim();  // a helper published it meanwhile
          continue;
        }
        const std::size_t got = resolve_inline(s, seq, ops.data(), ops.size());
        for (std::size_t k = 0; k < got; ++k) packed[k] = trace::pack_op(ops[k]);
        if (got > 0) sink(i, std::span<const trace::PackedOp>(packed.data(), got));
        progressed = true;
      }
    }
    if (progressed) {
      idle_rounds = 0;
    } else if (++idle_rounds < kSpinRounds) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

class StreamedSource final : public trace::OpSource {
 public:
  StreamedSource(std::shared_ptr<StreamGroup> group, ThreadId t)
      : group_(std::move(group)), thread_(t) {}

  trace::NextOp next() override {
    trace::NextOp op;
    (void)group_->fill(thread_, &op, 1);
    return op;
  }
  std::size_t fill(trace::NextOp* out, std::size_t n) override {
    return group_->fill(thread_, out, n);
  }

 private:
  std::shared_ptr<StreamGroup> group_;
  ThreadId thread_;
};

}  // namespace

ResolveSpec make_resolve_spec(const ExperimentConfig& config,
                              trace::BenchmarkProfile profile,
                              Instructions per_thread) {
  ResolveSpec spec;
  spec.profile = std::move(profile);
  spec.seed = config.seed;
  spec.per_thread = per_thread;
  spec.l1 = config.l1;
  if (config.enable_private_l2) spec.private_l2 = config.private_l2;
  return spec;
}

ThreadResolver::ThreadResolver(const ResolveSpec& spec, ThreadId t)
    : generator_(trace::PhaseSchedule(spec.profile.threads[t].phases),
                 Rng(spec.seed).fork(t), private_region_base(t),
                 shared_region_base()),
      l1_(spec.l1),
      per_thread_(spec.per_thread) {
  if (spec.private_l2) private_l2_.emplace(*spec.private_l2);
  // Allocate here, on the thread building the resolver: helpers that fill
  // its chunks later then never allocate.
  generator_.reserve();
}

std::size_t ThreadResolver::fill(trace::NextOp* out, std::size_t n) {
  if (pulled_ >= per_thread_) return 0;
  // Generate the batch first, then run its private-cache accesses. Ops
  // generated past the budget's end are dropped with the exhausted stream.
  const std::size_t generated = generator_.fill(out, n);
  std::size_t i = 0;
  for (; i < generated && pulled_ < per_thread_; ++i) {
    trace::NextOp& op = out[i];
    const bool executed = pulled_ + op.gap + 1 <= per_thread_;
    pulled_ += op.gap + 1;
    if (!executed) continue;
    if (l1_.access(op.addr, op.type)) {
      op.resolved = trace::ResolvedLevel::kL1Hit;
    } else if (private_l2_ && private_l2_->access(op.addr, op.type)) {
      op.resolved = trace::ResolvedLevel::kPrivateL2Hit;
    } else {
      op.resolved = trace::ResolvedLevel::kShared;
    }
  }
  return i;
}

std::vector<std::unique_ptr<trace::OpSource>> streamed_sources(
    const ExperimentConfig& config, const trace::BenchmarkProfile& profile,
    Instructions per_thread) {
  std::vector<std::unique_ptr<trace::OpSource>> sources;
  if (!config.trace_spool_dir.empty() || !config.migrations.empty()) {
    return sources;
  }
  std::vector<ThreadId> threads(config.num_threads);
  for (ThreadId t = 0; t < config.num_threads; ++t) threads[t] = t;
  auto group = std::make_shared<StreamGroup>(
      make_resolve_spec(config, profile, per_thread), std::move(threads),
      /*retire=*/true);
  sources.reserve(config.num_threads);
  for (ThreadId t = 0; t < config.num_threads; ++t) {
    sources.push_back(std::make_unique<StreamedSource>(group, t));
  }
  return sources;
}

void resolve_streams(ResolveSpec spec, std::vector<ThreadId> threads,
                     const StreamSink& sink) {
  StreamGroup group(std::move(spec), std::move(threads), /*retire=*/false);
  group.drain(sink);
}

unsigned streamed_resolve_helpers() {
  return ResolvePool::instance().capacity();
}

void force_inline_resolve_for_testing(bool force) noexcept {
  g_force_inline.store(force, std::memory_order_relaxed);
}

void fail_helper_chunks_for_testing(bool fail) noexcept {
  g_fail_helper_chunks.store(fail, std::memory_order_relaxed);
}

}  // namespace capart::sim
