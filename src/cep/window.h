#pragma once

#include <cstddef>

#include "sim/time.h"

namespace erms::cep {

/// Sliding-window specification — the paper singles these out as "the major
/// features of CEP systems" (§II): a time window keeps events from the last
/// `duration`, i.e. (now − duration, now], so an event exactly `duration`
/// old has left it; a length window keeps the last `count` events and
/// ignores the clock.
struct WindowSpec {
  enum class Kind { kTime, kLength };
  Kind kind{Kind::kTime};
  sim::SimDuration duration{sim::seconds(60.0)};
  std::size_t count{1000};

  static WindowSpec time(sim::SimDuration d) {
    WindowSpec w;
    w.kind = Kind::kTime;
    w.duration = d;
    return w;
  }
  static WindowSpec length(std::size_t n) {
    WindowSpec w;
    w.kind = Kind::kLength;
    w.count = n;
    return w;
  }
};

}  // namespace erms::cep
