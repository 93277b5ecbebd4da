#include "perfbench/src/bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <numeric>
#include <thread>

namespace perfbench {

void Tally::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) {
    return;
  }
  ++failed_;
  if (notes_.size() < 16) {
    notes_.push_back(what);
  }
}

void MetricSet::Add(const std::string& name, double value, const std::string& unit,
                    const std::string& base) {
  metrics_.push_back({name, value, unit, base});
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

void ItemTimes::Add(std::size_t item, double v, double scale) {
  if (by_item_.size() <= item) {
    by_item_.resize(item + 1);
  }
  by_item_[item].push_back({v, scale});
}

std::vector<double> ItemTimes::Medians(bool scaled) const {
  std::vector<double> out;
  for (const std::vector<Rep>& reps : by_item_) {
    if (reps.empty()) {
      continue;
    }
    std::vector<double> v;
    for (const Rep& r : reps) {
      v.push_back(scaled ? r.v * r.scale : r.v);
    }
    out.push_back(Median(std::move(v)));
  }
  return out;
}

std::string ItemTimes::Note() const {
  std::size_t items = 0, fewest = 0, most = 0;
  for (const std::vector<Rep>& reps : by_item_) {
    if (!reps.empty()) {
      fewest = items == 0 ? reps.size() : std::min(fewest, reps.size());
      most = std::max(most, reps.size());
      ++items;
    }
  }
  return std::to_string(items) + " items x " + std::to_string(fewest) + "-" +
         std::to_string(most) + " repetitions";
}

std::size_t ItemTimes::count() const {
  std::size_t n = 0;
  for (const std::vector<Rep>& reps : by_item_) {
    n += reps.size();
  }
  return n;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

// One chunk of the host-speed loop; the caller's |seed| varies the address
// stream and the tableau. Returns a value that depends on all the work.
std::uint64_t SpeedChunk(std::uint64_t seed, int accesses, int pivots) {
  // Cache lookups: 128 sets x 4 ways of 64-byte lines, LRU ages per way; the
  // address stream walks forward in short strides with a random jump in one
  // access of eight, over a 256 KiB range.
  constexpr int kSets = 128, kWays = 4;
  std::uint32_t tags[kSets * kWays];
  std::uint8_t age[kSets * kWays];
  std::fill(std::begin(tags), std::end(tags), ~std::uint32_t{0});
  std::fill(std::begin(age), std::end(age), std::uint8_t{0});
  std::uint64_t x = seed | 1;
  std::uint64_t misses = 0;
  std::uint32_t addr = 0;
  for (int i = 0; i < accesses; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    addr = ((x >> 40) & 7) == 0 ? static_cast<std::uint32_t>(x >> 45) & 0x3ffff
                                : addr + 4 + static_cast<std::uint32_t>((x >> 50) & 12);
    const std::uint32_t line = addr >> 6;
    std::uint32_t* t = &tags[(line % kSets) * kWays];
    std::uint8_t* a = &age[(line % kSets) * kWays];
    const std::uint32_t tag = line / kSets;
    int way = -1;
    for (int w = 0; w < kWays; ++w) {
      if (t[w] == tag) {
        way = w;
        break;
      }
    }
    if (way < 0) {
      ++misses;
      way = 0;
      for (int w = 1; w < kWays; ++w) {
        if (a[w] > a[way]) {
          way = w;
        }
      }
      t[way] = tag;
    }
    for (int w = 0; w < kWays; ++w) {
      if (a[w] < a[way]) {
        ++a[w];
      }
    }
    a[way] = 0;
  }
  // Simplex pivots: entering column by largest reduced cost, leaving row by
  // ratio test, Gauss-Jordan elimination; the tableau is redrawn every 32
  // pivots so its values stay bounded.
  constexpr int kRows = 64, kCols = 129;
  std::vector<double> m(kRows * kCols);
  double acc = 0;
  bool redraw = true;
  for (int p = 0; p < pivots; ++p) {
    if (redraw || p % 32 == 0) {
      redraw = false;
      for (double& v : m) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        v = static_cast<double>((x >> 40) & 1023) / 1024.0 + 0.05;
      }
    }
    int pc = 0;
    for (int c = 1; c < kCols - 1; ++c) {
      if (m[c] > m[pc]) {
        pc = c;
      }
    }
    int pr = 0;
    double best = 0;
    for (int r = 1; r < kRows; ++r) {
      const double a = m[r * kCols + pc];
      if (a > 0.05 && (pr == 0 || m[r * kCols + kCols - 1] / a < best)) {
        best = m[r * kCols + kCols - 1] / a;
        pr = r;
      }
    }
    if (pr == 0) {  // no row passes the ratio test: start from a fresh tableau
      redraw = true;
      continue;
    }
    const double inv = 1.0 / m[pr * kCols + pc];
    for (int c = 0; c < kCols; ++c) {
      m[pr * kCols + c] *= inv;
    }
    for (int r = 0; r < kRows; ++r) {
      const double f = m[r * kCols + pc];
      if (r != pr && f != 0) {
        for (int c = 0; c < kCols; ++c) {
          m[r * kCols + c] -= f * m[pr * kCols + c];
        }
      }
    }
    acc += m[kCols - 1];
    m[pc] = -1;  // the entered column leaves the pricing
  }
  std::uint64_t acc_bits = 0;
  std::memcpy(&acc_bits, &acc, sizeof(acc));
  return misses ^ acc_bits;
}

std::atomic<std::uint64_t> speed_sink{0};

}  // namespace

double HostSpeed::ThreadScale() {
  const double cpu0 = ThreadCpuSeconds();
  speed_sink += SpeedChunk(0, 400'000, 192);
  thread_s_.push_back(ThreadCpuSeconds() - cpu0);
  return kReferenceSeconds / thread_s_.back();
}

double HostSpeed::PoolScale() {
  // The same loop in eight chunks claimed by two fresh workers, as the
  // campaign's job pool claims its jobs.
  constexpr int kChunks = 8;
  std::atomic<int> next{0};
  const auto worker = [&next] {
    for (int c = next.fetch_add(1); c < kChunks; c = next.fetch_add(1)) {
      speed_sink += SpeedChunk(static_cast<std::uint64_t>(c) + 1, 400'000 / kChunks, 192 / kChunks);
    }
  };
  const Clock::time_point t0 = Clock::now();
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  pool_s_.push_back(SecondsSince(t0));
  return kReferencePoolSeconds / pool_s_.back();
}

std::string HostSpeed::Note() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%zu + %zu loops, median %.3f ms on the calling thread, %.3f ms on two workers",
                thread_s_.size(), pool_s_.size(), Median(thread_s_) * 1e3, Median(pool_s_) * 1e3);
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
