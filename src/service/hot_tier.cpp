#include "service/hot_tier.h"

#include "util/fault.h"

namespace sdf::svc {

HotTier::HotTier(std::int64_t capacity_bytes)
    : capacity_(capacity_bytes > 0 ? capacity_bytes : 0) {}

HotTier::TextHit HotTier::lookup_text(std::uint64_t key,
                                      std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (!text.empty() && (it == index_.end() || it->second->text != text)) {
    return {};
  }
  // An injected svc_cache_read fault makes the resident copy unusable:
  // the lookup degrades to the disk tier exactly like a capacity miss.
  const bool unusable =
      fault::enabled() && fault::should_fail("svc_cache_read");
  if (unusable || it == index_.end()) {
    ++stats_.misses;
    return {std::nullopt, 0, unusable};
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh to MRU
  ++stats_.hits;
  return {it->second->payload, it->second->actors, false};
}

void HotTier::insert(std::uint64_t key, std::string_view payload) {
  const auto size = static_cast<std::int64_t>(payload.size());
  if (capacity_ <= 0 || size > capacity_) return;  // oversized/disabled
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;  // content-addressed: same key = same bytes
  }
  evict_to_fit_locked(size);
  lru_.push_front(Entry{key, std::string(payload), {}, 0});
  index_[key] = lru_.begin();
  stats_.bytes += size;
  ++stats_.inserts;
}

void HotTier::attach_text(std::uint64_t key, std::string_view text,
                          std::int64_t actors) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || !it->second->text.empty()) return;
  Entry& entry = *it->second;
  const auto size = static_cast<std::int64_t>(text.size());
  if (entry.bytes() + size > capacity_) return;
  // At MRU the entry is the last one eviction would reach, and payload
  // plus text fit alone, so making room never evicts the entry itself.
  lru_.splice(lru_.begin(), lru_, it->second);
  evict_to_fit_locked(size);
  entry.text = text;
  entry.actors = actors;
  stats_.bytes += size;
}

bool HotTier::erase(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  stats_.bytes -= it->second->bytes();
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.evictions;
  return true;
}

void HotTier::evict_to_fit_locked(std::int64_t incoming) {
  while (!lru_.empty() && stats_.bytes + incoming > capacity_) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes();
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

HotTierStats HotTier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  HotTierStats out = stats_;
  out.entries = static_cast<std::int64_t>(lru_.size());
  return out;
}

}  // namespace sdf::svc
