#include "src/trace/recency_stack.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/trace/draw_table.hpp"
#include "src/trace/stack_dist_generator.hpp"

namespace capart::trace {
namespace {

unsigned select_by_loop(std::uint64_t word, unsigned rank) {
  for (unsigned bit = 0;; ++bit) {
    if ((word >> bit & 1) != 0 && rank-- == 0) return bit;
  }
}

void expect_select_matches(std::uint64_t word) {
  unsigned bits = 0;
  for (std::uint64_t m = word; m != 0; m &= m - 1) ++bits;
  for (unsigned rank = 0; rank < bits; ++rank) {
    ASSERT_EQ(select64(word, rank), select_by_loop(word, rank))
        << std::hex << "word 0x" << word << std::dec << " rank " << rank;
  }
}

TEST(RecencyStack, SelectMatchesABitLoop) {
  expect_select_matches(~std::uint64_t{0});
  for (unsigned bit = 0; bit < 64; ++bit) {
    expect_select_matches(std::uint64_t{1} << bit);
    expect_select_matches(~(std::uint64_t{1} << bit));
  }
  // Dense, even and sparse words.
  Rng rng(17);
  for (int i = 0; i < 4'000; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    for (const std::uint64_t word : {a, a | b, a & b, a & b & rng()}) {
      expect_select_matches(word);
    }
  }
}

/// The LRU stack as one vector, MRU at the back: a reuse erases and
/// pushes back, a drop erases from the front.
struct VectorModel {
  std::vector<std::uint32_t> blocks;

  std::uint32_t touch(std::size_t depth) {
    const auto it = blocks.end() - static_cast<std::ptrdiff_t>(depth);
    const std::uint32_t block = *it;
    blocks.erase(it);
    blocks.push_back(block);
    return block;
  }
  void drop_lru(std::size_t n) {
    blocks.erase(blocks.begin(), blocks.begin() + static_cast<std::ptrdiff_t>(n));
  }
};

TEST(RecencyStack, MatchesAVectorModel) {
  // The generator's own moves: a depth within the stack is a reuse, any
  // other a fresh block (the LRU one drops first when the stack holds the
  // working set). Depths follow the generator's law at three skews, plus
  // the tiers' edges; now and then a drop of up to the whole stack, after
  // which the whole order is compared, and the stack regrows. One stack is
  // reserved, one grows on demand.
  constexpr std::size_t kOps = 1'000'000;
  constexpr std::size_t kTop = RecencyStack::kTopBlocks;
  for (const std::uint32_t ws :
       {1u, 63u, 64u, 4'095u, 4'096u, 4'097u, 8'000u, 17'000u}) {
    // Depths drawn ahead, 2^16 per skew, so that pow does not set the
    // test's pace.
    Rng rng(ws);
    std::vector<std::size_t> law_depths;
    for (const double skew : {0.7, 1.4, 2.8}) {
      GenParams params;
      params.working_set_blocks = ws;
      params.reuse_skew = skew;
      const DrawParams law(params);
      for (int i = 0; i < 1 << 16; ++i) {
        law_depths.push_back(depth_of(rng.lattice(), law));
      }
    }
    VectorModel model;
    RecencyStack grown;
    RecencyStack reserved;
    reserved.reserve(ws);
    // Every block, in order: touching the LRU block moves it to the MRU
    // end, so size() deepest touches meet the blocks from the LRU end up
    // and leave the order as it was.
    const auto expect_order = [&](const char* when) {
      const std::size_t depth = model.blocks.size();
      for (std::size_t i = 0; i < depth; ++i) {
        ASSERT_EQ(grown.touch(depth), model.blocks[i]) << ws << " blocks, " << when;
        ASSERT_EQ(reserved.touch(depth), model.blocks[i]) << ws << " blocks, " << when;
      }
    };
    std::uint32_t next_block = 0;
    for (std::size_t op = 0; op < kOps; ++op) {
      const std::size_t size = model.blocks.size();
      if (op % 50'000 == 49'999) {
        const std::size_t n = op % 200'000 == 199'999 ? size : rng.below(size + 1);
        model.drop_lru(n);
        grown.drop_lru(n);
        reserved.drop_lru(n);
        expect_order("after a drop");
        ASSERT_FALSE(HasFatalFailure());
      } else {
        std::size_t depth = 0;
        const std::uint64_t pick = rng.below(100);
        if (pick < 5) {
          const std::size_t edges[] = {1, kTop, kTop + 1, size, size + 1};
          depth = edges[rng.below(5)];
        } else if (pick >= 10) {
          depth = law_depths[rng.below(law_depths.size())];
        }
        if (depth >= 1 && depth <= size) {
          const std::uint32_t want = model.touch(depth);
          ASSERT_EQ(grown.touch(depth), want) << ws << " blocks, op " << op;
          ASSERT_EQ(reserved.touch(depth), want) << ws << " blocks, op " << op;
        } else {
          model.blocks.push_back(next_block);
          if (model.blocks.size() > ws) model.drop_lru(1);
          for (RecencyStack* stack : {&grown, &reserved}) {
            if (stack->size() >= ws) stack->drop_lru(1);
            stack->push(next_block);
          }
          ++next_block;
        }
      }
      ASSERT_EQ(grown.size(), model.blocks.size()) << ws << " blocks, op " << op;
      ASSERT_EQ(reserved.size(), model.blocks.size()) << ws << " blocks, op " << op;
    }
    expect_order("at the end");
  }
}

}  // namespace
}  // namespace capart::trace
