#pragma once

#include <cstdint>

namespace adavp::bench {

/// Heap allocations made so far by the whole process, on any thread. The
/// counter comes from global operator new/delete replacements in
/// alloc_counter.cpp (as in bench/bench_pipeline.cpp); they live in their
/// own translation unit so the compiler never inlines them into callers.
std::uint64_t allocations();

}  // namespace adavp::bench
