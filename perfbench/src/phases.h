// The three measured phases. Each is a cursor over passes of a fixed number
// of batches; Step() runs the next batch. Pass 0 is the reference pass: its
// inputs come from the default seed on every run, so the modelled metrics
// and golden digests taken from it are the same for any --seed. Every later
// pass repeats the same inputs drawn from --seed, so each batch and each
// request is repeated identically, and its host time is the median of its
// repetitions, each scaled by the host speed when it was taken (HostSpeed).
// Every output is checked on every batch.

#ifndef PERFBENCH_SRC_PHASES_H_
#define PERFBENCH_SRC_PHASES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/span.h"
#include "src/base/digest.h"
#include "src/kernel/image.h"
#include "src/load/traffic.h"
#include "src/obs/histogram.h"
#include "src/wcet/analysis.h"
#include "src/wcet/incremental.h"

namespace perfbench {

// Input seed of |pass|: the default seed for the reference pass, else one
// stream split off the run's seed (the same for every later pass).
std::uint64_t PassSeed(std::uint64_t seed, std::uint64_t pass);

class PhaseBase {
 public:
  PhaseBase(const Options& opts, Tally& tally, SpanRecorder& spans, HostSpeed& speed)
      : opts_(opts), tally_(tally), spans_(spans), speed_(speed) {}
  virtual ~PhaseBase() = default;
  PhaseBase(const PhaseBase&) = delete;
  PhaseBase& operator=(const PhaseBase&) = delete;

  // Runs the next batch; returns its wall seconds.
  double Step();
  // The reference pass and one timed pass are complete.
  bool first_passes_done() const { return pass_ > 1; }
  virtual std::size_t batches_per_pass() const = 0;
  std::uint64_t digest() const { return digest_; }

 protected:
  // Runs batch |batch| of |pass| on inputs from |input_seed|; returns the
  // digest of its modelled output.
  virtual std::uint64_t RunBatch(std::uint64_t pass, std::size_t batch,
                                 std::uint64_t input_seed) = 0;

  const Options& opts_;
  Tally& tally_;
  SpanRecorder& spans_;
  HostSpeed& speed_;        // sampled before each timed batch
  std::uint64_t item_ = 0;  // span item id of the batch being run

 private:
  std::uint64_t pass_ = 0;
  std::size_t batch_ = 0;
  std::uint64_t digest_ = pmk::kFnv64Offset;  // over the reference pass
};

// ---------------------------------------------------------------- campaign
// RunCampaign on the after-kernel, jobs=2: exhaustive preemption-point
// sweeps, seeded random injection plans, hostile, spurious and storm runs.
class CampaignPhase : public PhaseBase {
 public:
  static constexpr unsigned kJobs = 2;
  using PhaseBase::PhaseBase;

  void set_bound(pmk::Cycles bound) { bound_ = bound; }
  std::size_t batches_per_pass() const override { return 12; }
  // One campaign at jobs=1 and jobs=2 on this run's inputs; the CSVs must
  // match.
  void CheckJobsDigest();

  // Scenarios of one timed pass per the sum of its batches' wall seconds of
  // RunCampaign (each batch's median over its repetitions, scaled by the
  // two-worker host speed if |scaled|).
  double ScenariosPerSecond(bool scaled) const;
  std::string TimesNote() const { return seconds_.Note(); }
  const pmk::LatencyHistogram& enforced_hist() const { return enforced_; }

 private:
  std::uint64_t RunBatch(std::uint64_t pass, std::size_t batch, std::uint64_t input_seed) override;

  pmk::Cycles bound_ = 0;
  ItemTimes seconds_;              // by batch, timed passes
  std::vector<double> scenarios_;  // by batch, the same in every timed pass
  pmk::LatencyHistogram enforced_;
};

// ----------------------------------------------------------------- traffic
// RunTrafficSweep, 1000 clients / 8 servers, one call per arrival shape over
// four frame gaps (two below saturation, two past it), jobs=1.
class TrafficPhase : public PhaseBase {
 public:
  static constexpr pmk::Cycles kRunCycles = 24'000'000;
  using PhaseBase::PhaseBase;

  void set_bound(pmk::Cycles bound) { bound_ = bound; }
  std::size_t batches_per_pass() const override { return Shapes().size(); }

  static const std::vector<pmk::load::ArrivalShape>& Shapes();

  // Modelled Mcycles of one timed pass (every shape once) per the sum of the
  // shapes' thread CPU seconds of RunTrafficSweep (each shape's median over
  // its repetitions, scaled by the calling thread's host speed if |scaled|).
  double McyclesPerCpuSecond(bool scaled) const;
  std::string TimesNote() const { return cpu_s_.Note(); }
  std::size_t sweeps() const { return sweeps_; }
  // Wall seconds of every RunTrafficSweep call, by shape index.
  const std::vector<std::vector<double>>& shape_seconds() const { return shape_s_; }
  // Totals over every call of the run: wall seconds, Runner steps and
  // modelled Mcycles.
  double wall_s() const { return wall_s_; }
  std::uint64_t steps() const { return steps_; }
  double mcycles() const { return mcycles_; }
  const pmk::LatencyHistogram& enforced_hist() const { return enforced_; }

  // Reference-pass totals (modelled).
  double GoodputPerMcycle() const { return Ratio(static_cast<double>(served_), ref_mcycles_); }
  std::uint64_t served() const { return served_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t processed() const { return processed_; }
  double ref_mcycles() const { return ref_mcycles_; }

 private:
  std::uint64_t RunBatch(std::uint64_t pass, std::size_t batch, std::uint64_t input_seed) override;

  pmk::Cycles bound_ = 0;
  std::size_t sweeps_ = 0;
  ItemTimes cpu_s_;  // by shape, timed passes
  std::vector<std::vector<double>> shape_s_ = std::vector<std::vector<double>>(3);
  double wall_s_ = 0;
  std::uint64_t steps_ = 0;
  double mcycles_ = 0;
  pmk::LatencyHistogram enforced_;
  std::uint64_t served_ = 0, calls_ = 0, offered_ = 0, dropped_ = 0, processed_ = 0;
  double ref_mcycles_ = 0;
};

// -------------------------------------------------------------------- wcet
// The Table 2 matrix (before/after kernel x L2 x pinning). One batch is one
// config: timed cold WcetAnalyzer runs, then a closed-loop edit session
// against the config's resident IncrementalWcetAnalyzer. Batches are short
// (about a tenth of a second) so they interleave finely with the other
// phases, and configs alternate before/after so a pass cut short stays
// balanced.
class WcetPhase : public PhaseBase {
 public:
  // Editable fields: loop-bound annotation, absolute execution bound,
  // preemption point.
  enum Field { kLoopBound, kExecBound, kPreemptPoint, kNumFields };

  struct Config {
    std::string label;
    bool after = true;
    pmk::AnalysisOptions opts;
    std::unique_ptr<pmk::KernelImage> image;  // private copy: edits mutate it
    std::unique_ptr<pmk::IncrementalWcetAnalyzer> inc;
    pmk::Cycles bound = 0;  // response bound of the unedited image
    std::vector<pmk::BlockId> sites[kNumFields];  // blocks carrying each field
  };

  // Rounds per session; a round edits every (field, site) pair of the config
  // once (10 on the after-kernel, 6 on the before-kernel). Edits lean to the
  // after-kernel, where preemption points are added; the before-kernel's
  // edits cost about twice as much, and an even mix would put the median
  // edit time in the gap between the two kernels' modes.
  static constexpr int kAfterRounds = 2;
  static constexpr int kBeforeRounds = 1;
  static constexpr int kCrossCheckEvery = 24;  // seeded subset of cold cross-checks
  // Cold analyses per batch, timed as repetitions of the config's item.
  static constexpr int kColdPerBatch = 2;

  using PhaseBase::PhaseBase;

  // Builds the eight configs' images and resident analyzers, with one first
  // analysis each. Part of the measured set-up.
  void Setup();
  std::size_t batches_per_pass() const override { return configs_.size(); }

  // Thread CPU ms of cold analyses (by config) and of edit requests (by
  // position in a timed pass), timed passes only.
  const ItemTimes& cold_ms() const { return cold_ms_; }
  const ItemTimes& edit_ms() const { return edit_ms_; }
  pmk::Cycles irq_bound() const;  // after-kernel, L2 off, no pinning
  std::vector<Config>& configs() { return configs_; }

 private:
  std::uint64_t RunBatch(std::uint64_t pass, std::size_t batch, std::uint64_t input_seed) override;
  pmk::Cycles ColdAnalysis(Config& c, std::size_t batch_index);
  std::uint64_t EditSession(Config& c, std::uint64_t session_seed);

  std::vector<Config> configs_;
  bool timed_ = false;            // the batch being run is in a timed pass
  std::size_t request_ = 0;       // timed requests so far in this pass
  double scale_ = 1;              // host-speed scale of the batch being run
  ItemTimes cold_ms_;
  ItemTimes edit_ms_;
  std::uint64_t edit_ids_ = 0;
};

// Wall-clock set-up of everything the phases start from: fresh kernel images
// and their compiled programs, the campaign's checkpointed scenario boots,
// the traffic fleet boot and checkpoint, and the WCET configs' images and
// first analyses (built into |wcet|).
void RunSetup(WcetPhase& wcet, SpanRecorder& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PHASES_H_
