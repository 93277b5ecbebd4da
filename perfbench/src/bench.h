// Shared plumbing of the end-to-end benchmark: run options, the failure
// tally, metric collection, order statistics and the span recorder used by
// the traced run.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds consumed so far by the calling thread. The single-threaded
// throughput and per-request metrics are CPU time: the benchmark shares its
// host, and wall time would add whatever the host gives other tenants while
// a call is descheduled. The calls timed this way never block, so for them
// CPU time is the host cost.
double ThreadCpuSeconds();

// The three workloads. Every run executes all three phases (campaign,
// traffic, wcet) so that every end-to-end metric is measured on every
// workload; the workload decides which phase receives most of the measured
// time.
enum class Phase { kCampaign, kTraffic, kWcet };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Phase primary = Phase::kCampaign;
};

// The seed of every run's reference pass (and of runs without --seed); the
// golden digests of perfbench/golden.json are pinned at this seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

// Attempted/failed operations of one run. Every check the benchmark makes on
// a program output goes through Check(); the first few failures are kept
// for the report.
class Tally {
 public:
  void Check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> notes_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // the denominator or sample count behind the value
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& base = "");
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Order statistics with linear interpolation between closest ranks;
// q in [0, 1]. An empty sample yields 0.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v);

// Host times of repeated items (a batch, a request), by item index, each
// with the host-speed scale of the batch it was taken in (HostSpeed).
class ItemTimes {
 public:
  void Add(std::size_t item, double v, double scale);
  // For every item that has a repetition, in item order: the median over
  // its repetitions of the host time, times its scale if |scaled|.
  std::vector<double> Medians(bool scaled) const;
  // "<items> items x <fewest>-<most> repetitions" for the metrics' bases.
  std::string Note() const;
  // Repetitions of all items.
  std::size_t count() const;

 private:
  struct Rep {
    double v;
    double scale;
  };
  std::vector<std::vector<Rep>> by_item_;
};

// Host speed, sampled just before each timed batch. The host is shared, and
// its other tenants move it between a fast and a slow state (about 1.6x
// slower on the library's code) that can last from a fraction of a second
// to a whole run, so repeating work inside a run cannot average it out. So
// before each timed batch the run times a fixed loop of the benchmark's own
// that does the same kinds of work as the library's hot paths -- a 4-way
// set-associative cache lookup with LRU replacement over a seeded address
// stream, and dense simplex pivots on a 64 x 129 tableau -- and scales the
// batch's host times by the loop's reference time over its time now. Scaled
// times read as host time on a reference host, one on which the loop takes
// kReferenceSeconds (about its time on this 4-core Xeon when the host is
// quiet). The loop is the same on every commit, so a change to the library
// moves the scaled times as much as the raw ones.
class HostSpeed {
 public:
  static constexpr double kReferenceSeconds = 0.0042;
  static constexpr double kReferencePoolSeconds = 0.0028;

  // Runs the loop on the calling thread; returns reference seconds per
  // thread CPU second of this thread now. Multiply host times by it, divide
  // rates by it.
  double ThreadScale();
  // Runs the loop split across two fresh worker threads that claim chunks of
  // it, as the campaign's jobs=2 pool does; returns reference seconds per
  // wall second of such a pool now.
  double PoolScale();
  // "N + M loops, median T ms on the calling thread, P ms on two workers".
  std::string Note() const;

 private:
  std::vector<double> thread_s_;
  std::vector<double> pool_s_;
};

// Ratio that reads 0 instead of dividing by zero.
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Peak resident set of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
