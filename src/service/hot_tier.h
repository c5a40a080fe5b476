// In-memory LRU hot tier over the on-disk result cache (docs/SERVICE.md,
// "Cache tiers").
//
// The cache-tier half of the service layer split: the hot tier serves
// repeat hits without touching the filesystem, the disk tier
// (service/cache.h) stays the durable source of truth. Bytes enter the
// hot tier only from verified sources — a disk lookup that already
// passed its size+CRC check, or a response the server just produced —
// so a hot-tier read is byte-identical to the disk-tier read for the
// same key (pinned by tests/test_hot_tier.cpp). Eviction is strict LRU
// by total entry bytes; an entry larger than the whole capacity is
// never admitted. A capacity of 0 disables the tier (every lookup
// misses, inserts drop). The parse-free hit: an entry may also hold the
// canonical graph text its key was hashed from, attached on a hit that
// parsed. Request text equal to it hashes to the same key, so
// lookup_text serves it unparsed. The text counts toward the capacity
// and leaves with its entry.
//
// Counters: HotTierStats, kept under the LRU lock. A server reports them
// as service.cache.hot_* (docs/OBSERVABILITY.md).
//
// Thread safety: all methods are safe from concurrent request handlers.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace sdf::svc {

struct HotTierStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;
  std::int64_t evictions = 0;
  std::int64_t bytes = 0;    ///< live payload + attached text bytes
  std::int64_t entries = 0;  ///< live entry count
};

class HotTier {
 public:
  /// `capacity_bytes` bounds the bytes of all entries; 0 disables.
  explicit HotTier(std::int64_t capacity_bytes);

  HotTier(const HotTier&) = delete;
  HotTier& operator=(const HotTier&) = delete;

  /// lookup() of the entry whose attached text is `text` (any entry if
  /// empty); others are silent misses that count nothing and roll no
  /// fault. `unusable`: a fault voided the copy (a miss); read the disk.
  struct TextHit {
    std::optional<std::string> payload;
    std::int64_t actors = 0;  ///< the attached graph's actor count
    bool unusable = false;
  };
  [[nodiscard]] TextHit lookup_text(std::uint64_t key,
                                    std::string_view text);

  /// The cached payload, refreshed to most-recently-used; nullopt on miss.
  [[nodiscard]] std::optional<std::string> lookup(std::uint64_t key) {
    return lookup_text(key, {}).payload;
  }

  /// Caches `payload` under `key`, evicting LRU entries to fit. A key
  /// already present is refreshed, not rewritten (the cache is
  /// content-addressed: same key = same bytes). Oversized payloads are
  /// dropped.
  void insert(std::uint64_t key, std::string_view payload);

  /// Attaches the canonical `text` that produced `key` to its entry,
  /// evicting others to fit; no-op if absent, attached, or too large.
  void attach_text(std::uint64_t key, std::string_view text,
                   std::int64_t actors);

  /// Drops `key` if resident (the cache scrubber quarantined its disk
  /// object, so the hot copy must not outlive it). Returns true when an
  /// entry was removed; counted in HotTierStats::evictions.
  bool erase(std::uint64_t key);

  [[nodiscard]] HotTierStats stats() const;

 private:
  struct Entry {
    std::uint64_t key;
    std::string payload;
    std::string text;  ///< attached canonical graph text, or empty
    std::int64_t actors = 0;
    [[nodiscard]] std::int64_t bytes() const {
      return static_cast<std::int64_t>(payload.size() + text.size());
    }
  };

  void evict_to_fit_locked(std::int64_t incoming);

  std::int64_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  HotTierStats stats_;
};

}  // namespace sdf::svc
