#include <iterator>

#include "perfbench/src/phases.h"
#include "src/obs/tail_observatory.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

// Device mean inter-frame gaps in cycles: two below saturation, two past it.
constexpr pmk::Cycles kLoadGaps[] = {16384, 4096, 1024, 384};

}  // namespace

const std::vector<pmk::load::ArrivalShape>& TrafficPhase::Shapes() {
  static const std::vector<pmk::load::ArrivalShape> shapes = {
      pmk::load::ArrivalShape::kOpenLoop, pmk::load::ArrivalShape::kClosedLoop,
      pmk::load::ArrivalShape::kBurstyStorm};
  return shapes;
}

double TrafficPhase::McyclesPerCpuSecond(bool scaled) const {
  const std::vector<double> secs = cpu_s_.Medians(scaled);
  const double mcycles_per_call =
      static_cast<double>(std::size(kLoadGaps) * kRunCycles) / 1e6;
  return Ratio(mcycles_per_call * static_cast<double>(secs.size()), Sum(secs));
}

std::uint64_t TrafficPhase::RunBatch(std::uint64_t pass, std::size_t batch,
                                     std::uint64_t input_seed) {
  const pmk::load::ArrivalShape shape = Shapes()[batch];
  pmk::load::TrafficOptions to;
  to.seed = pmk::SplitMix64(input_seed).Split(100 + batch).Next();
  to.clients = 1000;
  to.servers = 8;
  to.shapes = {shape};
  to.load_gaps.assign(std::begin(kLoadGaps), std::end(kLoadGaps));
  to.run_cycles = kRunCycles;
  to.jobs = 1;

  // jobs=1: the sweep runs on this thread.
  pmk::load::TrafficReport report;
  const double scale = pass != 0 ? speed_.ThreadScale() : 1.0;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = ThreadCpuSeconds();
  {
    const SpanScope span(spans_, "load.RunTrafficSweep", item_);
    report = pmk::load::RunTrafficSweep(to);
  }
  const double cpu_s = ThreadCpuSeconds() - cpu0;
  if (pass != 0) {
    cpu_s_.Add(batch, cpu_s, scale);
  }
  shape_s_[batch].push_back(SecondsSince(t0));
  wall_s_ += shape_s_[batch].back();
  ++sweeps_;
  const double mcycles =
      static_cast<double>(report.results.size()) * static_cast<double>(kRunCycles) / 1e6;
  mcycles_ += mcycles;
  for (const pmk::load::TrafficResult& r : report.results) {
    steps_ += r.steps;
  }

  tally_.Check(report.results.size() == to.load_gaps.size(),
               "traffic sweep returned the wrong number of scenarios");
  pmk::obs::TailObservatory observatory;
  observatory.SetBound("after", bound_);
  pmk::load::FeedObservatory(report, observatory, "after");
  tally_.Check(!observatory.AnyExceedance(),
               "traffic: enforced interrupt response above the analyzed bound");
  if (pass != 0) {
    return 0;
  }
  ref_mcycles_ += mcycles;
  for (const pmk::load::TrafficResult& r : report.results) {
    served_ += r.requests_served;
    calls_ += r.client_calls;
    offered_ += r.frames_offered;
    dropped_ += r.frames_dropped;
    processed_ += r.frames_processed;
    if (shape != pmk::load::ArrivalShape::kBurstyStorm) {
      enforced_.Merge(r.irq_hist);
    }
  }
  return pmk::Fnv1a64(pmk::load::RenderTrafficTable(report));
}

}  // namespace perfbench
