// B+-tree structural property test. Random insert/delete programs with
// tiny node capacities (so every batch crosses page boundaries through
// splits and merges), and with page-derived capacities at and past the
// inline node-snapshot bound, are replayed against a std::map
// oracle: after every batch the tree must audit clean — sorted keys,
// uniform leaf depth, fill-factor bounds, consistent leaf chain — and its
// in-order digest must equal the digest folded over the oracle. The whole
// program runs on both the extent fast path and the scalar datapath
// (TELEPORT_SCALAR_DATAPATH equivalent via set_scalar_datapath) and must
// be bit-identical between them, content *and* virtual time.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ddc/memory_system.h"
#include "oltp/btree.h"
#include "oltp/workload.h"

namespace teleport {
namespace {

using oltp::BTree;
using oltp::Mix64;
using oltp::RecordMeta;

constexpr uint64_t kPage = 4096;

struct Scale {
  uint64_t key_range;
  int batches;
  int ops_per_batch;
  uint64_t page_bytes = kPage;
  // Entry caps; 0 derives them from the page size. The default tiny caps
  // force deep trees on small key sets, so every batch splits and merges.
  int max_leaf = 6;
  int max_inner = 5;
};

constexpr int kInlineLeaf = BTree::NodeWords::kInlineWords / 4;
constexpr int kInlineInner = BTree::NodeWords::kInlineWords / 2;

constexpr Scale kScales[] = {
    {64, 4, 48},   // small: shallow tree, heavy churn on few leaves
    {512, 6, 96},  // large: multi-level tree, splits and merges at depth
    // Page-derived capacities of a 4 KiB page: full nodes fill the inline
    // snapshot storage exactly.
    {2048, 3, 400, kPage, 0, 0},
    // A larger page with caps at the inline bound: still inline.
    {2048, 3, 400, 2 * kPage, kInlineLeaf, kInlineInner},
    // Page-derived capacities of an 8 KiB page: snapshots spill to the heap.
    {2048, 3, 400, 2 * kPage, 0, 0},
};

struct Outcome {
  uint64_t digest = 0;
  uint64_t records = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t height = 0;
  Nanos now = 0;
};

/// Digest of the oracle's content with the tree's own fold (in-order
/// Mix(key), Mix(value), Mix(meta) chain).
uint64_t OracleDigest(
    const std::map<uint64_t, std::pair<uint64_t, uint64_t>>& oracle) {
  uint64_t d = 0;
  for (const auto& [key, vm] : oracle) {
    d = Mix64(d ^ key);
    d = Mix64(d ^ vm.first);
    d = Mix64(d ^ vm.second);
  }
  return d;
}

void RunProgram(uint64_t seed, const Scale& scale, bool scalar,
                Outcome* out) {
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_cache_bytes = 64 * scale.page_bytes;
  cfg.memory_pool_bytes = 4096 * scale.page_bytes;
  sim::CostParams params = sim::CostParams::Default();
  params.page_size = scale.page_bytes;
  ddc::MemorySystem ms(cfg, params, 32 << 20);
  ms.set_scalar_datapath(scalar);
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);

  oltp::BTreeOptions opts;
  opts.arena_pages = 768;
  opts.max_leaf_entries = scale.max_leaf;
  opts.max_inner_entries = scale.max_inner;
  BTree tree(&ms, *ctx, opts);
  ms.SeedData();
  // Full nodes fit the inline snapshot storage unless the page is larger
  // than 4 KiB and the caps are derived from it.
  const bool spills = scale.page_bytes > kPage && scale.max_leaf == 0;
  EXPECT_EQ(tree.leaf_capacity() > kInlineLeaf, spills);
  EXPECT_EQ(tree.inner_capacity() > kInlineInner, spills);

  std::map<uint64_t, std::pair<uint64_t, uint64_t>> oracle;
  Rng rng(Mix64(seed) ^ 0xb7ee);

  for (int batch = 0; batch < scale.batches; ++batch) {
    for (int op = 0; op < scale.ops_per_batch; ++op) {
      const uint64_t key = rng.Next() % scale.key_range;
      if (rng.Next() % 10 < 6 || oracle.empty()) {
        const uint64_t value = rng.Next();
        const uint64_t meta = RecordMeta::Pack(rng.Next() % 16, true);
        const bool inserted = tree.Insert(*ctx, key, value, meta);
        EXPECT_EQ(inserted, oracle.find(key) == oracle.end())
            << "seed " << seed << " key " << key;
        oracle[key] = {value, meta};
      } else {
        const bool deleted = tree.Delete(*ctx, key);
        EXPECT_EQ(deleted, oracle.erase(key) == 1)
            << "seed " << seed << " key " << key;
      }
    }
    const BTree::Audit audit = tree.AuditStructure(*ctx);
    ASSERT_TRUE(audit.ok) << "seed " << seed << " batch " << batch << ": "
                          << audit.error;
    EXPECT_EQ(audit.records, oracle.size());
    EXPECT_EQ(audit.digest, OracleDigest(oracle))
        << "seed " << seed << " batch " << batch;
  }

  // Point lookups agree with the oracle (value word lives at slot + 8).
  for (int i = 0; i < 32; ++i) {
    const uint64_t key = rng.Next() % scale.key_range;
    const ddc::VAddr slot = tree.FindRecord(*ctx, key);
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_EQ(slot, 0u) << "seed " << seed << " key " << key;
    } else {
      ASSERT_NE(slot, 0u) << "seed " << seed << " key " << key;
      EXPECT_EQ(ctx->Load<uint64_t>(slot + 8), it->second.first);
      EXPECT_EQ(ctx->Load<uint64_t>(slot + 16), it->second.second);
    }
  }

  // Drain to empty (forces merges all the way back down), then regrow.
  while (!oracle.empty()) {
    const uint64_t key = oracle.begin()->first;
    EXPECT_TRUE(tree.Delete(*ctx, key));
    oracle.erase(key);
  }
  {
    const BTree::Audit audit = tree.AuditStructure(*ctx);
    ASSERT_TRUE(audit.ok) << "seed " << seed << " drained: " << audit.error;
    EXPECT_EQ(audit.records, 0u);
    EXPECT_EQ(tree.height(*ctx), 1u) << "empty tree must collapse to a "
                                        "single root leaf";
  }
  // Regrow past one leaf, so even page-sized nodes end at height 2.
  const uint64_t regrow =
      std::max<uint64_t>(40, 2 * static_cast<uint64_t>(tree.leaf_capacity()));
  for (uint64_t key = 0; key < regrow; ++key) {
    tree.Insert(*ctx, key, Mix64(key), RecordMeta::Pack(0, true));
    oracle[key] = {Mix64(key), RecordMeta::Pack(0, true)};
  }
  const BTree::Audit audit = tree.AuditStructure(*ctx);
  EXPECT_TRUE(audit.ok) << audit.error;
  EXPECT_EQ(audit.digest, OracleDigest(oracle));

  out->digest = audit.digest;
  out->records = audit.records;
  out->splits = tree.splits();
  out->merges = tree.merges();
  out->height = tree.height(*ctx);
  out->now = ctx->now();
}

TEST(BTreePropertyTest, RandomProgramsMatchOracleOnBothDatapaths) {
  for (uint64_t seed = 1; seed <= 9; ++seed) {
    for (const Scale& scale : kScales) {
      Outcome bulk;
      RunProgram(seed, scale, /*scalar=*/false, &bulk);
      EXPECT_GT(bulk.splits, 0u) << "every scale's key set must split";
      EXPECT_GT(bulk.merges, 0u) << "the drain phase must merge";
      EXPECT_GT(bulk.height, 1u) << "the program must have grown the tree";

      Outcome scalar;
      RunProgram(seed, scale, /*scalar=*/true, &scalar);
      EXPECT_EQ(bulk.digest, scalar.digest)
          << "seed " << seed << ": datapaths diverged on content";
      EXPECT_EQ(bulk.records, scalar.records);
      EXPECT_EQ(bulk.splits, scalar.splits);
      EXPECT_EQ(bulk.merges, scalar.merges);
      EXPECT_EQ(bulk.now, scalar.now)
          << "seed " << seed << ": scalar datapath must be virtual-time "
          << "bit-identical to the extent fast path";
    }
  }
}

/// Derived (page-sized) capacities: a few thousand records stay shallow,
/// and the audit digest still tracks the oracle.
TEST(BTreePropertyTest, PageSizedNodesStayShallow) {
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_cache_bytes = 64 * kPage;
  cfg.memory_pool_bytes = 4096 * kPage;
  ddc::MemorySystem ms(cfg, sim::CostParams::Default(), 32 << 20);
  auto ctx = ms.CreateContext(ddc::Pool::kCompute);
  oltp::BTreeOptions opts;  // capacities derived from the page size
  opts.arena_pages = 256;
  BTree tree(&ms, *ctx, opts);
  ms.SeedData();
  EXPECT_GE(tree.leaf_capacity(), 100);

  std::map<uint64_t, std::pair<uint64_t, uint64_t>> oracle;
  for (uint64_t i = 0; i < 2000; ++i) {
    const uint64_t key = Mix64(i) % 100000;
    const uint64_t meta = RecordMeta::Pack(0, true);
    tree.Insert(*ctx, key, i, meta);
    oracle[key] = {i, meta};
  }
  const BTree::Audit audit = tree.AuditStructure(*ctx);
  ASSERT_TRUE(audit.ok) << audit.error;
  EXPECT_EQ(audit.records, oracle.size());
  EXPECT_EQ(audit.digest, OracleDigest(oracle));
  EXPECT_LE(tree.height(*ctx), 3u);
}

}  // namespace
}  // namespace teleport
