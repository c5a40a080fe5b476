// Test reads of the service state: the sdfmem.stats.v1 and
// sdfmem.routestats.v1 documents that stats_json() returns, the same
// documents the CLI, the CI smoke jobs and perfbench read.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "obs/json_report.h"

namespace sdf::testing {

/// Parses the live stats document of a Server or Router.
template <typename Service>
obs::Json stats_doc(const Service& service) {
  return obs::Json::parse(service.stats_json());
}

/// The member at a dot-separated key path ("tenants.hog.overloaded").
/// A missing key fails the test and reads as null (0, false, "").
inline const obs::Json& field(const obs::Json& doc, std::string_view path) {
  static const obs::Json kMissing;
  const obs::Json* at = &doc;
  for (std::size_t begin = 0; begin <= path.size();) {
    const std::size_t dot = std::min(path.find('.', begin), path.size());
    at = at->find(path.substr(begin, dot - begin));
    if (at == nullptr) {
      ADD_FAILURE() << "stats document has no key " << path;
      return kMissing;
    }
    begin = dot + 1;
  }
  return *at;
}

/// A server registry counter over the stats window, by its registry name
/// ("service.cache.hits"). The window lists only the counters that moved,
/// so an absent one reads 0. With the controller off the window spans
/// the server's life.
inline std::int64_t window_counter(const obs::Json& doc,
                                   std::string_view name) {
  const obs::Json* value = field(doc, "window.counters").find(name);
  return value == nullptr ? 0 : value->as_int();
}

}  // namespace sdf::testing
