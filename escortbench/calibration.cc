#include "escortbench/calibration.h"

#include <chrono>
#include <cstdint>
#include <utility>

namespace escortbench {
namespace {

// The kernel's mix resembles the simulator's: a binary min-heap of
// timestamped keys (the event queue), data-dependent loads and stores over
// a 256 KiB table (connection state) and unpredictable branches.
constexpr int kHeapCap = 4096;
constexpr uint32_t kTableSize = 1 << 16;
constexpr int kSteps = 200'000;

uint64_t g_heap[kHeapCap];
uint32_t g_table[kTableSize];
volatile uint64_t g_sink = 0;

void SiftDown(uint64_t* h, int n, int i) {
  for (;;) {
    int l = 2 * i + 1;
    if (l >= n) {
      return;
    }
    int c = (l + 1 < n && h[l + 1] < h[l]) ? l + 1 : l;
    if (h[i] <= h[c]) {
      return;
    }
    std::swap(h[i], h[c]);
    i = c;
  }
}

void SiftUp(uint64_t* h, int i) {
  while (i > 0) {
    int p = (i - 1) / 2;
    if (h[p] <= h[i]) {
      return;
    }
    std::swap(h[p], h[i]);
    i = p;
  }
}

}  // namespace

double TimeReferenceKernel() {
  auto start = std::chrono::steady_clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  int n = 0;
  for (uint32_t i = 0; i < kTableSize; ++i) {
    g_table[i] = i * 2654435761U;
  }
  for (int step = 0; step < kSteps; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (n < kHeapCap && (n < kHeapCap / 2 || (x & 1) != 0)) {
      g_heap[n] = (acc & 0xffffffffULL) + (x & 0xffff);
      SiftUp(g_heap, n);
      ++n;
    } else {
      uint64_t top = g_heap[0];
      g_heap[0] = g_heap[--n];
      SiftDown(g_heap, n, 0);
      uint32_t slot = static_cast<uint32_t>(top ^ (x >> 16)) & (kTableSize - 1);
      switch (g_table[slot] & 3) {
        case 0: g_table[slot] += static_cast<uint32_t>(x); break;
        case 1: acc += g_table[(slot * 7) & (kTableSize - 1)]; break;
        case 2: g_table[slot] ^= static_cast<uint32_t>(acc); break;
        default: acc ^= top; break;
      }
      acc += top;
    }
  }
  g_sink = acc;
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace escortbench
