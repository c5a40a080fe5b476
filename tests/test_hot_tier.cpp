// Unit tests for the in-memory LRU hot tier (service/hot_tier.h):
// eviction order, counter pins, the capacity contract, the attached
// canonical text of the parse-free hit, and hot-vs-disk byte-identity
// through the server's fetch path.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "service/cache.h"
#include "service/hot_tier.h"
#include "util/fault.h"

namespace sdf::svc {
namespace {

namespace fs = std::filesystem;

std::string payload_of(std::size_t bytes, char fill) {
  return std::string(bytes, fill);
}

TEST(HotTier, MissThenHitRoundTrips) {
  HotTier tier(1 << 20);
  EXPECT_FALSE(tier.lookup(1).has_value());
  tier.insert(1, "doc-one");
  const auto hit = tier.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "doc-one");

  const HotTierStats s = tier.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, 7);
}

TEST(HotTier, EvictsLeastRecentlyUsedFirst) {
  // Capacity fits exactly two 10-byte payloads.
  HotTier tier(20);
  tier.insert(1, payload_of(10, 'a'));
  tier.insert(2, payload_of(10, 'b'));
  // Touch key 1 so key 2 becomes the LRU entry.
  ASSERT_TRUE(tier.lookup(1).has_value());
  tier.insert(3, payload_of(10, 'c'));

  EXPECT_TRUE(tier.lookup(1).has_value()) << "recently used entry evicted";
  EXPECT_FALSE(tier.lookup(2).has_value()) << "LRU entry survived";
  EXPECT_TRUE(tier.lookup(3).has_value());

  const HotTierStats s = tier.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.bytes, 20);
}

TEST(HotTier, EvictsMultipleEntriesToFitOneLargePayload) {
  HotTier tier(40);
  tier.insert(1, payload_of(10, 'a'));
  tier.insert(2, payload_of(10, 'b'));
  tier.insert(3, payload_of(10, 'c'));
  tier.insert(4, payload_of(25, 'd'));  // must evict keys 1 AND 2

  EXPECT_FALSE(tier.lookup(1).has_value());
  EXPECT_FALSE(tier.lookup(2).has_value());
  EXPECT_TRUE(tier.lookup(3).has_value());
  EXPECT_TRUE(tier.lookup(4).has_value());
  EXPECT_EQ(tier.stats().evictions, 2);
  EXPECT_LE(tier.stats().bytes, 40);
}

TEST(HotTier, OversizedPayloadIsNeverAdmitted) {
  HotTier tier(10);
  tier.insert(1, payload_of(5, 'a'));
  tier.insert(2, payload_of(11, 'b'));  // larger than total capacity
  EXPECT_FALSE(tier.lookup(2).has_value());
  // The resident entry must NOT have been evicted for a doomed insert.
  EXPECT_TRUE(tier.lookup(1).has_value());
  EXPECT_EQ(tier.stats().evictions, 0);
  EXPECT_EQ(tier.stats().inserts, 1);
}

TEST(HotTier, ZeroCapacityDisablesTheTier) {
  HotTier tier(0);
  tier.insert(1, "doc");
  EXPECT_FALSE(tier.lookup(1).has_value());
  EXPECT_EQ(tier.stats().inserts, 0);
  EXPECT_EQ(tier.stats().entries, 0);
}

TEST(HotTier, ReinsertRefreshesRecencyWithoutRewriting) {
  HotTier tier(20);
  tier.insert(1, payload_of(10, 'a'));
  tier.insert(2, payload_of(10, 'b'));
  // Re-inserting key 1 refreshes it to MRU (content-addressed: same key
  // = same bytes, so no rewrite happens and byte totals are unchanged).
  tier.insert(1, payload_of(10, 'a'));
  EXPECT_EQ(tier.stats().bytes, 20);
  EXPECT_EQ(tier.stats().entries, 2);
  tier.insert(3, payload_of(10, 'c'));
  EXPECT_TRUE(tier.lookup(1).has_value());
  EXPECT_FALSE(tier.lookup(2).has_value()) << "refresh did not update LRU";
}

// ------------------------------------------- attached canonical text

TEST(HotTier, AttachedTextCountsInBytesAndTowardCapacity) {
  HotTier tier(100);
  tier.insert(1, payload_of(40, 'a'));
  tier.attach_text(1, payload_of(20, 't'), 3);
  EXPECT_EQ(tier.stats().bytes, 60);

  tier.insert(2, payload_of(40, 'b'));  // 100: fits exactly
  EXPECT_EQ(tier.stats().evictions, 0);
  tier.insert(3, payload_of(1, 'c'));  // key 1 (LRU) goes, text and all
  const HotTierStats s = tier.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.bytes, 41);
  EXPECT_FALSE(tier.lookup(1).has_value());
}

TEST(HotTier, AttachEvictsOthersButNeverItsOwnEntry) {
  HotTier tier(50);
  tier.insert(1, payload_of(20, 'a'));
  tier.insert(2, payload_of(20, 'b'));  // key 1 is now the LRU entry
  tier.attach_text(1, payload_of(15, 't'), 1);
  const HotTierStats s = tier.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.bytes, 35);
  EXPECT_FALSE(tier.lookup(2).has_value());
  EXPECT_TRUE(tier.lookup_text(1, payload_of(15, 't')).payload.has_value());
}

TEST(HotTier, EvictionAndEraseDropTheAttachedText) {
  HotTier tier(1 << 20);
  tier.insert(1, "doc");
  tier.attach_text(1, "graph g\n", 1);
  EXPECT_EQ(tier.stats().bytes, 3 + 8);
  EXPECT_TRUE(tier.erase(1));
  EXPECT_EQ(tier.stats().bytes, 0);

  // Re-inserted, the entry starts without text again.
  tier.insert(1, "doc");
  EXPECT_EQ(tier.stats().bytes, 3);
  EXPECT_FALSE(tier.lookup_text(1, "graph g\n").payload.has_value());
}

TEST(HotTier, TextThatWouldNotFitIsNotAttached) {
  HotTier tier(30);
  tier.insert(1, payload_of(20, 'a'));
  tier.attach_text(1, payload_of(11, 't'), 1);  // 31 > 30
  EXPECT_EQ(tier.stats().bytes, 20);
  EXPECT_EQ(tier.stats().evictions, 0);
  EXPECT_FALSE(tier.lookup_text(1, payload_of(11, 't')).payload.has_value());
  EXPECT_TRUE(tier.lookup(1).has_value());  // the payload stays
}

TEST(HotTier, TextMismatchIsASilentMiss) {
  HotTier tier(1 << 20);
  tier.insert(1, "doc-one");
  // No text attached yet: the probe reads nothing and counts nothing.
  EXPECT_FALSE(tier.lookup_text(1, "graph g\n").payload.has_value());
  tier.attach_text(1, "graph g\n", 2);
  tier.attach_text(1, "graph other\n", 9);  // first text stays
  EXPECT_FALSE(tier.lookup_text(1, "graph h\n").payload.has_value());
  EXPECT_FALSE(tier.lookup_text(2, "graph g\n").payload.has_value());
  HotTierStats s = tier.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);

  const HotTier::TextHit hit = tier.lookup_text(1, "graph g\n");
  ASSERT_TRUE(hit.payload.has_value());
  EXPECT_EQ(*hit.payload, "doc-one");
  EXPECT_EQ(hit.actors, 2);
  EXPECT_FALSE(hit.unusable);
  s = tier.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 0);
}

TEST(HotTier, InjectedReadFaultVoidsOnlyAMatchedProbe) {
  HotTier tier(1 << 20);
  tier.insert(1, "doc-one");
  tier.attach_text(1, "graph g\n", 2);
  fault::configure("svc_cache_read:1", 3);
  // A mismatch reads nothing, so it cannot consume the fault.
  EXPECT_FALSE(tier.lookup_text(1, "graph h\n").unusable);
  EXPECT_EQ(fault::fire_count("svc_cache_read"), 0);
  const HotTier::TextHit voided = tier.lookup_text(1, "graph g\n");
  const std::int64_t fired = fault::fire_count("svc_cache_read");
  fault::clear();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(voided.unusable);
  EXPECT_FALSE(voided.payload.has_value());
  EXPECT_EQ(tier.stats().misses, 1);  // counted like lookup()'s miss
  EXPECT_TRUE(tier.lookup_text(1, "graph g\n").payload.has_value());
}

// Byte-identity across tiers: bytes that went to the durable disk cache
// come back identical whether read from disk or from the hot tier.
TEST(HotTier, HotReadIsByteIdenticalToDiskRead) {
  const std::string dir =
      "/tmp/sdfhot_" + std::to_string(::getpid());
  fs::remove_all(dir);
  std::string doc = "{\"schema\":\"sdfmem.telemetry.v1\",\"blob\":\"";
  for (int i = 0; i < 256; ++i) doc += static_cast<char>('a' + (i % 26));
  doc += "\"}";

  {
    ResultCache disk(dir);
    disk.insert(77, doc);
    HotTier hot(1 << 20);
    const auto from_disk = disk.lookup(77);
    ASSERT_TRUE(from_disk.has_value());
    hot.insert(77, *from_disk);
    const auto from_hot = hot.lookup(77);
    ASSERT_TRUE(from_hot.has_value());
    EXPECT_EQ(*from_hot, *from_disk);
    EXPECT_EQ(*from_hot, doc);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sdf::svc
