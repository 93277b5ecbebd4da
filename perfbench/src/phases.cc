#include "perfbench/src/phases.h"

#include "src/engine/checkpoint.h"
#include "src/fault/campaign.h"
#include "src/load/fleet.h"
#include "src/sim/rng.h"

namespace perfbench {

std::uint64_t PassSeed(std::uint64_t seed, std::uint64_t pass) {
  return pass == 0 ? kDefaultSeed : pmk::SplitMix64(seed).Split(1).Next();
}

double PhaseBase::Step() {
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t d = RunBatch(pass_, batch_, PassSeed(opts_.seed, pass_));
  const double seconds = SecondsSince(t0);
  if (pass_ == 0) {
    digest_ = pmk::FnvU64(digest_, d);
  }
  ++item_;
  if (++batch_ == batches_per_pass()) {
    batch_ = 0;
    ++pass_;
  }
  return seconds;
}

void RunSetup(WcetPhase& wcet, SpanRecorder& spans) {
  for (const bool after : {false, true}) {
    std::unique_ptr<pmk::KernelImage> image;
    {
      const SpanScope span(spans, "kir.BuildKernelImage");
      image = pmk::BuildKernelImage(after ? pmk::KernelConfig::After()
                                          : pmk::KernelConfig::Before());
    }
    for (const bool l2 : {false, true}) {
      const SpanScope span(spans, "kir.CompiledFor");
      image->prog.CompiledFor(pmk::EvalMachine(l2));
    }
  }
  for (const auto& [name, factory] : pmk::CanonicalOps()) {
    const SpanScope span(spans, "engine.ScenarioCheckpoint");
    const pmk::ScenarioCheckpoint cp(factory);
  }
  {
    pmk::System base(pmk::KernelConfig::After(), pmk::EvalMachine(false));
    pmk::load::FleetSpec fs;
    fs.clients = 1000;
    fs.servers = 8;
    {
      const SpanScope span(spans, "load.BuildClientFleet");
      pmk::load::BuildClientFleet(base, fs);
    }
    const SpanScope span(spans, "engine.SystemCheckpoint");
    const pmk::engine::SystemCheckpoint cp(base);
  }
  wcet.Setup();
}

}  // namespace perfbench
