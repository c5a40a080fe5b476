#include "service/hot_tier.h"

#include "util/fault.h"

namespace sdf::svc {

HotTier::HotTier(std::int64_t capacity_bytes)
    : capacity_(capacity_bytes > 0 ? capacity_bytes : 0) {}

std::optional<std::string> HotTier::lookup(std::uint64_t key) {
  // An injected svc_cache_read fault makes the resident copy unusable:
  // the lookup degrades to the disk tier exactly like a capacity miss.
  const bool unusable =
      fault::enabled() && fault::should_fail("svc_cache_read");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = unusable ? index_.end() : index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh to MRU
  ++stats_.hits;
  return it->second->payload;
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
  lru_.push_front(Entry{key, std::string(payload)});
  index_[key] = lru_.begin();
  stats_.bytes += size;
  ++stats_.inserts;
}

bool HotTier::erase(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  stats_.bytes -= static_cast<std::int64_t>(it->second->payload.size());
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.evictions;
  return true;
}

void HotTier::evict_to_fit_locked(std::int64_t incoming) {
  while (!lru_.empty() && stats_.bytes + incoming > capacity_) {
    const Entry& victim = lru_.back();
    stats_.bytes -= static_cast<std::int64_t>(victim.payload.size());
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
