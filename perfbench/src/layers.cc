#include "perfbench/src/layers.h"

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/engine/checkpoint.h"
#include "src/fault/campaign.h"
#include "src/fault/scenario.h"
#include "src/hw/cache.h"
#include "src/obs/trace_sink.h"
#include "src/sim/rng.h"
#include "src/sim/workload.h"
#include "src/wcet/cfg.h"
#include "src/wcet/cost.h"
#include "src/wcet/ipet.h"
#include "src/wcet/loopbound.h"

namespace perfbench {
namespace {

constexpr int kSyscallReps = 32;
constexpr int kFastpathCalls = 2000;
constexpr int kPollutedCalls = 200;
constexpr int kExhaustivePerOp = 16;
constexpr int kRandomPerOp = 16;

class EntryCounter : public pmk::TraceSink {
 public:
  void OnEvent(const pmk::TraceEvent& e) override {
    if (e.kind == pmk::TraceEventKind::kKernelEntry) {
      ++entries;
    }
  }
  std::uint64_t entries = 0;
};

void AddCounters(LayerCounts& out, const pmk::HwCounters& a, const pmk::HwCounters& b,
                 pmk::Cycles cycles) {
  out.l1i_accesses += b.l1i_accesses - a.l1i_accesses;
  out.l1i_misses += b.l1i_misses - a.l1i_misses;
  out.l1d_accesses += b.l1d_accesses - a.l1d_accesses;
  out.l1d_misses += b.l1d_misses - a.l1d_misses;
  out.l2_accesses += b.l2_accesses - a.l2_accesses;
  out.l2_misses += b.l2_misses - a.l2_misses;
  out.mem_stall_cycles += b.mem_stall_cycles - a.mem_stall_cycles;
  out.cycles += cycles;
}

// Host ns per Cache::Access on seeded uniform streams whose working set is
// half and four times the cache, after one warming pass of each stream.
double CacheProbeNs(const pmk::CacheConfig& cfg, std::uint64_t seed, Tally& tally,
                    SpanRecorder& spans, const char* span_name) {
  constexpr std::size_t kAccesses = 1 << 18;
  double ns = 0;
  std::uint64_t hits = 0;
  for (const std::uint64_t ws : {std::uint64_t{cfg.size_bytes} / 2, std::uint64_t{cfg.size_bytes} * 4}) {
    pmk::Cache cache(cfg);
    pmk::SplitMix64 rng(seed ^ ws);
    const std::uint64_t lines = ws / cfg.line_bytes;
    std::vector<pmk::Addr> addrs(kAccesses);
    for (pmk::Addr& a : addrs) {
      a = 0x8000'0000ull + rng.Below(lines) * cfg.line_bytes;
    }
    for (const pmk::Addr a : addrs) {
      hits += cache.Access(a) ? 1 : 0;
    }
    const Clock::time_point t0 = Clock::now();
    {
      const SpanScope span(spans, span_name, ws);
      for (const pmk::Addr a : addrs) {
        hits += cache.Access(a) ? 1 : 0;
      }
    }
    ns += SecondsSince(t0) * 1e9;
  }
  tally.Check(hits > 0 && hits < 4 * kAccesses, "cache probe: streams neither all hit nor all miss");
  return ns / (2.0 * kAccesses);
}

// Both ends of a fastpath Call/ReplyRecv ping-pong (the IPC benchmark's
// set-up: a server blocked in Recv, a lower-priority client).
struct PingPong {
  explicit PingPong(bool l2) : sys(pmk::KernelConfig::After(), pmk::EvalMachine(l2)) {
    pmk::EndpointObj* ep = nullptr;
    ep_cptr = sys.AddEndpoint(&ep);
    pmk::TcbObj* server = sys.AddThread(60);
    pmk::TcbObj* client = sys.AddThread(10);
    sys.kernel().DirectBlockOnRecv(server, ep);
    sys.kernel().DirectSetCurrent(client);
    Call();
    Reply();
  }
  void Call() {
    pmk::SyscallArgs call;
    call.msg_len = 2;
    sys.kernel().Syscall(pmk::SysOp::kCall, ep_cptr, call);
  }
  void Reply() { sys.kernel().Syscall(pmk::SysOp::kReplyRecv, ep_cptr, pmk::SyscallArgs{}); }

  pmk::System sys;
  std::uint32_t ep_cptr = 0;
};

void FastpathProbe(Tally& tally, SpanRecorder& spans, LayerCounts& out) {
  PingPong pp(/*l2=*/false);
  const std::uint64_t hits0 = pp.sys.kernel().fastpath_hits();
  const pmk::HwCounters c0 = pp.sys.machine().counters();
  const pmk::Cycles t0 = pp.sys.machine().Now();
  for (int i = 0; i < kFastpathCalls; ++i) {
    {
      const SpanScope span(spans, "kernel.syscall.fastpath_call", static_cast<std::uint64_t>(i));
      pp.Call();
    }
    pp.Reply();
  }
  AddCounters(out, c0, pp.sys.machine().counters(), pp.sys.machine().Now() - t0);
  tally.Check(pp.sys.kernel().fastpath_hits() - hits0 >= kFastpathCalls,
              "fastpath probe: Call left the fastpath");

  // The L2 is off in every simulated workload; its miss ratio comes from the
  // same ping-pong on the L2-enabled machine with caches polluted before
  // each call (the paper's worst-case measurement set-up).
  PingPong polluted(/*l2=*/true);
  const pmk::HwCounters p0 = polluted.sys.machine().counters();
  const pmk::Cycles pt0 = polluted.sys.machine().Now();
  for (int i = 0; i < kPollutedCalls; ++i) {
    polluted.sys.machine().PolluteCaches();
    {
      const SpanScope span(spans, "hw.polluted_call", static_cast<std::uint64_t>(i));
      polluted.Call();
    }
    polluted.Reply();
  }
  AddCounters(out, p0, polluted.sys.machine().counters(), polluted.sys.machine().Now() - pt0);
}

pmk::InjectionPlan RandomPlan(pmk::SplitMix64& rng, std::uint64_t pp) {
  pmk::InjectionPlan plan;
  const std::uint64_t n_actions = 1 + rng.Below(3);
  for (std::uint64_t i = 0; i < n_actions; ++i) {
    pmk::InjectionAction a;
    if (rng.Below(2) == 0 && pp > 0) {
      a.trigger = pmk::InjectionAction::Trigger::kPreemptOrdinal;
      a.at = rng.Below(pp);
    } else {
      a.trigger = pmk::InjectionAction::Trigger::kCycleAtLeast;
      a.at = rng.Below(60'000);
    }
    a.line = 1 + static_cast<std::uint32_t>(rng.Below(20));
    a.burst = 1 + static_cast<std::uint32_t>(rng.Below(4));
    plan.actions.push_back(a);
  }
  return plan;
}

// The campaign's canonical operations, driven one layer at a time: the
// checkpoint fork, the bare syscall on the fork (no interrupt pending, so it
// runs to completion), the invariant audit, and plan-driven runs of the
// exhaustive and random modes.
void CanonicalOpProbe(const Options& opts, Tally& tally, SpanRecorder& spans, LayerCounts& out) {
  static constexpr std::array<const char*, 3> kOps = {"retype", "ep-delete", "badged-abort"};
  static constexpr std::array<const char*, 3> kSyscallSpans = {
      "kernel.syscall.retype", "kernel.syscall.ep_delete", "kernel.syscall.badged_abort"};
  const auto ops = pmk::CanonicalOps();
  tally.Check(ops.size() == kOps.size(), "unexpected number of canonical operations");
  pmk::SplitMix64 rng = pmk::SplitMix64(opts.seed).Split(300);
  const pmk::SweepOptions sweep;
  for (std::size_t i = 0; i < ops.size() && i < kOps.size(); ++i) {
    const auto& [name, factory] = ops[i];
    tally.Check(name == kOps[i], "unexpected canonical operation " + name);
    std::unique_ptr<pmk::ScenarioCheckpoint> cp;
    {
      const SpanScope span(spans, "engine.ScenarioCheckpoint", i);
      cp = std::make_unique<pmk::ScenarioCheckpoint>(factory);
    }
    for (int rep = 0; rep < kSyscallReps; ++rep) {
      pmk::OpInstance inst;
      {
        const SpanScope span(spans, "engine.Fork", static_cast<std::uint64_t>(rep));
        inst = cp->Fork();
      }
      pmk::System& sys = *inst.sys;
      const pmk::HwCounters c0 = sys.machine().counters();
      const pmk::Cycles t0 = sys.machine().Now();
      pmk::KernelExit exit = pmk::KernelExit::kDone;
      {
        const SpanScope span(spans, kSyscallSpans[i], static_cast<std::uint64_t>(rep));
        exit = sys.kernel().Syscall(inst.op, inst.cptr, inst.args);
      }
      AddCounters(out, c0, sys.machine().counters(), sys.machine().Now() - t0);
      tally.Check(exit == pmk::KernelExit::kDone, name + ": preempted with no interrupt pending");
      std::string violation;
      try {
        {
          const SpanScope span(spans, "kernel.CheckInvariants", static_cast<std::uint64_t>(rep));
          sys.kernel().CheckInvariants();
        }
        if (inst.check_done) {
          inst.check_done(sys);
        }
      } catch (const std::logic_error& e) {
        violation = e.what();
      }
      tally.Check(violation.empty(), name + ": " + violation);
    }

    const std::uint64_t pp =
        pmk::RunWithInstance(cp->Fork(), pmk::InjectionPlan{}, sweep).preempt_points;
    for (int k = 0; k < kExhaustivePerOp && pp > 0; ++k) {
      pmk::InjectionPlan plan;
      pmk::InjectionAction a;
      a.at = static_cast<std::uint64_t>(k) * pp / kExhaustivePerOp;
      a.line = sweep.line;
      plan.actions.push_back(a);
      pmk::RunRecord rec;
      {
        const SpanScope span(spans, "fault.RunWithInstance.exhaustive", a.at);
        rec = pmk::RunWithInstance(cp->Fork(), plan, sweep);
      }
      tally.Check(rec.ok(), name + ": exhaustive probe run failed: " + rec.detail);
      if (k == 0) {
        // Kernel entries of this run, counted by a trace sink on an untimed
        // copy of it.
        pmk::OpInstance inst = cp->Fork();
        EntryCounter counter;
        inst.sys->AttachTraceSink(&counter);
        pmk::RunWithInstance(std::move(inst), plan, sweep);
        out.kernel_entries += counter.entries;
      }
    }
    for (int k = 0; k < kRandomPerOp; ++k) {
      const pmk::InjectionPlan plan = RandomPlan(rng, pp);
      pmk::RunRecord rec;
      {
        const SpanScope span(spans, "fault.RunWithInstance.random", static_cast<std::uint64_t>(k));
        rec = pmk::RunWithInstance(cp->Fork(), plan, sweep);
      }
      tally.Check(rec.ok(), name + ": random probe run failed: " + rec.detail);
    }
  }
}

// Every WCET stage of a cold analysis, per config and entry point, checked
// against the resident analyzer's result for the same unedited image.
void WcetStageProbe(Tally& tally, SpanRecorder& spans, WcetPhase& wcet) {
  static constexpr pmk::EntryPoint kEntries[] = {
      pmk::EntryPoint::kSyscall, pmk::EntryPoint::kUndefined, pmk::EntryPoint::kPageFault,
      pmk::EntryPoint::kInterrupt};
  std::uint64_t item = 0;
  for (WcetPhase::Config& c : wcet.configs()) {
    const pmk::KernelImage& image = *c.image;
    std::unique_ptr<pmk::CostModelCache> cache;
    {
      const SpanScope span(spans, "wcet.CostModelCache", item);
      cache = std::make_unique<pmk::CostModelCache>(image.prog,
                                                    pmk::BuildCostModelOptions(image, c.opts));
    }
    for (const pmk::EntryPoint e : kEntries) {
      std::unique_ptr<pmk::InlinedGraph> graph;
      {
        const SpanScope span(spans, "wcet.InlinedGraph", item);
        graph = std::make_unique<pmk::InlinedGraph>(image.prog, pmk::AnalysisEntryFunc(image, e));
      }
      {
        const SpanScope span(spans, "wcet.ComputeLoopBounds", item);
        pmk::ComputeLoopBounds(*graph);
      }
      pmk::CostResult costs;
      {
        const SpanScope span(spans, "wcet.ComputeNodeCosts", item);
        costs = pmk::ComputeNodeCosts(*graph, *cache);
      }
      pmk::IpetOptions io;
      io.irq_pending = c.opts.irq_pending;
      pmk::IpetProgram prog;
      {
        const SpanScope span(spans, "wcet.BuildIpetProgram", item);
        prog = pmk::BuildIpetProgram(*graph, costs, io, c.opts.constraints);
      }
      pmk::IpetResult res;
      {
        const SpanScope span(spans, "wcet.SolveIpetProgram", item);
        res = pmk::SolveIpetProgram(*graph, prog);
      }
      tally.Check(res.status == pmk::SolveStatus::kOptimal && res.wcet == c.inc->Analyze(e).wcet,
                  "stage-by-stage WCET differs from the analyzer: " + c.label);
      ++item;
    }
  }
}

}  // namespace

LayerCounts RunLayerProbes(const Options& opts, Tally& tally, SpanRecorder& spans,
                           WcetPhase& wcet) {
  LayerCounts out;
  const pmk::MachineConfig mc = pmk::EvalMachine(true);
  out.l1_probe_ns = CacheProbeNs(mc.l1d, opts.seed, tally, spans, "hw.Cache.Access.l1");
  out.l2_probe_ns = CacheProbeNs(mc.l2, opts.seed, tally, spans, "hw.Cache.Access.l2");
  FastpathProbe(tally, spans, out);
  CanonicalOpProbe(opts, tally, spans, out);
  WcetStageProbe(tally, spans, wcet);
  return out;
}

}  // namespace perfbench
