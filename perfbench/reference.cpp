#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

// Keeps every part's result alive, so none of the work is optimised away.
volatile std::uint64_t sink;

void EventHeap(std::mt19937_64& rng) {
  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uniform_real_distribution<double> gap(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) {
    queue.push({gap(rng), i});
  }
  double now = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const Event next = queue.top();
    queue.pop();
    now = next.first;
    queue.push({now + gap(rng), next.second});
  }
  sink = static_cast<std::uint64_t>(now);
}

void Sort(std::mt19937_64& rng) {
  std::vector<std::uint64_t> keys(1 << 17);
  for (std::uint64_t& key : keys) {
    key = rng();
  }
  std::sort(keys.begin(), keys.end());
  sink = keys[keys.size() / 2];
}

void JsonBuild() {
  std::string out;
  char buf[64];
  double ts = 0.1;
  for (int i = 0; i < 60000; ++i) {
    ts = ts * 1.000001 + 0.37;
    const int n = std::snprintf(buf, sizeof(buf),
                                "{\"ts\":%.3f,\"id\":%d},", ts, i);
    out.append(buf, static_cast<std::size_t>(n));
  }
  sink = out.size();
}

void RandomUpdates() {
  std::vector<std::uint64_t> table(1 << 21);  // 16 MiB, mapped afresh.
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < table.size() / 2; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[(x >> 20) & (table.size() - 1)] += x;
  }
  sink = table[3];
}

}  // namespace

double TimeReference() {
  const auto start = std::chrono::steady_clock::now();
  std::mt19937_64 rng(7);
  EventHeap(rng);
  Sort(rng);
  JsonBuild();
  RandomUpdates();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
