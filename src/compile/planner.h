#pragma once
// Static memory planner for compiled inference programs: given each
// intermediate's size and [first_def, last_use] step interval, assign fixed
// offsets in one flat buffer such that values with intersecting live ranges
// never overlap, while values whose lifetimes are disjoint share storage.
//
// Exposed separately from the program builder so the planner's invariant
// (interval intersection => byte-range disjointness) can be property-tested
// on randomized DAG shapes without constructing full programs.

#include <cstdint>
#include <vector>

namespace predtop::compile {

struct Lifetime {
  std::int64_t floats = 0;  // payload size (the planner aligns it up)
  std::int32_t first = 0;   // step index of the defining write
  std::int32_t last = 0;    // step index of the final read (>= first)
};

struct PlanLayout {
  std::vector<std::int64_t> offsets;  // parallel to the input lifetimes
  std::int64_t total_floats = 0;      // high-water mark of the layout
};

/// Offsets stay 16-float (64-byte) aligned relative to the plan buffer, so
/// planned GEMM destinations start on cache-line multiples.
inline constexpr std::int64_t kPlanAlign = 16;

/// Greedy best-fit over lifetimes in first-def order: each value takes the
/// lowest aligned offset whose byte range is disjoint from every already
/// placed value with an intersecting interval. Deterministic (pure function
/// of the input), O(V^2) in the value count — programs have tens of values.
/// Entries with floats == 0 receive offset 0 and occupy nothing.
[[nodiscard]] PlanLayout PlanOffsets(const std::vector<Lifetime>& lifetimes);

}  // namespace predtop::compile
