#pragma once

#include <cstddef>

namespace perfbench {

/// Live bytes allocated through the global operator new (heap_meter.cpp
/// replaces it in the perfbench binary), counted by malloc_usable_size.
std::size_t heap_live_bytes();

/// The highest heap_live_bytes() since the last heap_peak_reset().
std::size_t heap_peak_bytes();

/// Restarts the peak at the current live bytes.
void heap_peak_reset();

}  // namespace perfbench
