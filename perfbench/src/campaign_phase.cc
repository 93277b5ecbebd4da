#include <sstream>

#include "perfbench/src/phases.h"
#include "src/fault/campaign.h"
#include "src/obs/tail_observatory.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

// One batch is a campaign of about 700 scenarios, a few tens of
// milliseconds, so a run repeats every batch of a pass many times.
pmk::CampaignConfig BatchConfig(std::uint64_t input_seed, std::size_t batch) {
  pmk::CampaignConfig cfg;
  cfg.seed = pmk::SplitMix64(input_seed).Split(batch).Next();
  cfg.exhaustive = true;
  cfg.random_runs = 64;
  cfg.storm_runs = 1;
  cfg.hostile_runs = 128;
  cfg.spurious_runs = 8;
  cfg.jobs = CampaignPhase::kJobs;
  return cfg;
}

std::string Csv(const pmk::CampaignReport& report) {
  std::ostringstream os;
  report.WriteCsv(os);
  return os.str();
}

}  // namespace

std::uint64_t CampaignPhase::RunBatch(std::uint64_t pass, std::size_t batch,
                                      std::uint64_t input_seed) {
  pmk::CampaignConfig cfg = BatchConfig(input_seed, batch);
  pmk::obs::TailObservatory observatory;
  observatory.SetBound(cfg.config_label, bound_);
  cfg.observatory = &observatory;

  // Wall time: a pool that serialises or leaves a straggler tail shows here.
  pmk::CampaignReport report;
  const double scale = pass != 0 ? speed_.PoolScale() : 1.0;
  const Clock::time_point t0 = Clock::now();
  {
    const SpanScope span(spans_, "fault.RunCampaign", item_);
    report = pmk::RunCampaign(cfg);
  }
  if (pass != 0) {
    seconds_.Add(batch, SecondsSince(t0), scale);
    scenarios_.resize(batches_per_pass());
    scenarios_[batch] = static_cast<double>(report.results.size());
  }

  for (const pmk::ScenarioResult& r : report.results) {
    tally_.Check(r.ok, "campaign scenario failed: " + r.mode + "/" + r.op + " " + r.plan);
  }
  tally_.Check(!observatory.AnyExceedance(),
               "campaign: enforced interrupt response above the analyzed bound");
  if (pass != 0) {
    return 0;
  }
  for (const pmk::ScenarioResult& r : report.results) {
    if (r.mode != "storm") {
      enforced_.Merge(r.irq_hist);
    }
  }
  return pmk::Fnv1a64(Csv(report));
}

double CampaignPhase::ScenariosPerSecond(bool scaled) const {
  return Ratio(Sum(scenarios_), Sum(seconds_.Medians(scaled)));
}

void CampaignPhase::CheckJobsDigest() {
  pmk::CampaignConfig cfg = BatchConfig(PassSeed(opts_.seed, 1), 0);
  cfg.exhaustive = false;
  cfg.random_runs = 8;
  cfg.hostile_runs = 32;
  cfg.spurious_runs = 4;
  cfg.jobs = 1;
  const std::string serial = Csv(pmk::RunCampaign(cfg));
  cfg.jobs = kJobs;
  const std::string parallel = Csv(pmk::RunCampaign(cfg));
  tally_.Check(serial == parallel, "campaign CSV differs between jobs=1 and jobs=2");
}

}  // namespace perfbench
