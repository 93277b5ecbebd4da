// End-to-end benchmark of the pmk library.
//
//   pmk_perfbench --workload irq-campaign|traffic-overload|wcet-edit
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--golden FILE] [--spans-out FILE]
//
// A run sets up once, then interleaves batches of the campaign, traffic and
// WCET phases with repeated set-ups for --seconds: the workload's own phase
// gets 50% of the time, the other phases 20% each and set-up 10%, so slow
// and fast stretches of the host fall on every metric alike. Each timed
// batch and set-up is preceded by a host-speed loop, and its host times are
// scaled to a reference host by it (HostSpeed). With --trace 0
// it prints every end-to-end metric; with --trace 1 it records spans around
// each call into a library layer, runs the layer probes and prints every
// per-layer metric instead. Every output is checked; any failed check (a
// campaign scenario that is not ok, an enforced interrupt response above the
// analyzed bound, an incremental bound that differs from a cold one, a
// campaign CSV that differs between job counts, or a reference-pass digest
// that differs from the golden file) makes the exit status nonzero; a golden
// mismatch is printed with the digest the run computed. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/phases.h"
#include "perfbench/src/span.h"
#include "src/load/fleet.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

constexpr double kPrimaryShare = 0.5;
constexpr double kOtherShare = 0.2;
constexpr double kSetupShare = 0.1;

struct Args {
  Options opts;
  std::string golden;
  std::string spans_out;
};

void ParseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + k);
      }
      return argv[++i];
    };
    if (k == "--workload") {
      a.opts.workload = next();
      have_workload = true;
    } else if (k == "--seed") {
      a.opts.seed = std::stoull(next());
    } else if (k == "--seconds") {
      a.opts.seconds = std::stod(next());
    } else if (k == "--trace") {
      a.opts.trace = std::stoi(next()) != 0;
    } else if (k == "--golden") {
      a.golden = next();
    } else if (k == "--spans-out") {
      a.spans_out = next();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  if (a.opts.workload == "irq-campaign") {
    a.opts.primary = Phase::kCampaign;
  } else if (a.opts.workload == "traffic-overload") {
    a.opts.primary = Phase::kTraffic;
  } else if (a.opts.workload == "wcet-edit") {
    a.opts.primary = Phase::kWcet;
  } else {
    throw std::invalid_argument("unknown workload " + a.opts.workload);
  }
  if (!(a.opts.seconds > 0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
}

// Reads the "key": "value" string pairs of the golden file (a flat JSON
// object).
std::map<std::string, std::string> ReadGolden(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("cannot read golden file " + path);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t k0 = text.find('"', pos);
    const std::size_t k1 = k0 == std::string::npos ? k0 : text.find('"', k0 + 1);
    const std::size_t v0 = k1 == std::string::npos ? k1 : text.find('"', k1 + 1);
    const std::size_t v1 = v0 == std::string::npos ? v0 : text.find('"', v0 + 1);
    if (v1 == std::string::npos) {
      return out;
    }
    out[text.substr(k0 + 1, k1 - k0 - 1)] = text.substr(v0 + 1, v1 - v0 - 1);
    pos = v1 + 1;
  }
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Count(std::uint64_t n, const std::string& what) {
  return "n=" + std::to_string(n) + " " + what;
}

// Registry deltas of one phase, summed over its batches: counters and the
// nanosecond sums of timers, by name.
class RegistryDelta {
 public:
  void Add(const pmk::obs::MetricsSnapshot& before, const pmk::obs::MetricsSnapshot& after) {
    for (const pmk::obs::MetricRow& r : after.rows) {
      const pmk::obs::MetricRow* b = before.Find(r.name);
      if (r.kind == pmk::obs::MetricKind::kCounter) {
        v_[r.name] += static_cast<double>(r.counter - (b == nullptr ? 0 : b->counter));
      } else if (r.kind == pmk::obs::MetricKind::kTimer) {
        v_[r.name] += r.hist.Sum() - (b == nullptr ? 0.0 : b->hist.Sum());
      }
    }
  }
  // Sum over every name starting with |prefix| (labelled counters such as
  // fault.campaign.scenarios{mode=...}).
  double Get(const std::string& prefix) const {
    double sum = 0;
    for (auto it = v_.lower_bound(prefix); it != v_.end() && it->first.rfind(prefix, 0) == 0;
         ++it) {
      sum += it->second;
    }
    return sum;
  }

 private:
  std::map<std::string, double> v_;
};

struct TraceInputs {
  RegistryDelta camp, traffic, wcet;
  LayerCounts counts;
  double overhead_frac = 0;
  std::size_t overhead_pairs = 0;
};

std::vector<double> Durations(const std::map<std::string, SpanRecorder::Stat>& stats,
                              const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? std::vector<double>{} : it->second.durations_ns;
}

// Host times are scaled to the reference host (HostSpeed): the campaign's
// two-worker wall times by the two-worker loop, the rest by the calling
// thread's loop. Each metric's base also gives the raw (unscaled) value.
void EndToEndMetrics(const CampaignPhase& camp, const TrafficPhase& traffic,
                     const WcetPhase& wcet, const ItemTimes& setup_s,
                     const HostSpeed& speed, const Tally& tally, MetricSet& m) {
  const auto raw = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "; raw %.6g", v);
    return std::string(buf);
  };
  m.Add("scenarios_per_s", camp.ScenariosPerSecond(true), "1/s",
        "per wall second of RunCampaign (jobs=2), batches: " + camp.TimesNote() +
            raw(camp.ScenariosPerSecond(false)));
  m.Add("sim_mcycles_per_s", traffic.McyclesPerCpuSecond(true), "Mcycles/s",
        "per thread CPU second of RunTrafficSweep, shapes: " + traffic.TimesNote() +
            raw(traffic.McyclesPerCpuSecond(false)));
  const std::string cold_n = "thread CPU, over configs: " + wcet.cold_ms().Note();
  const std::vector<double> cold = wcet.cold_ms().Medians(true);
  const std::vector<double> cold_raw = wcet.cold_ms().Medians(false);
  for (const auto& [name, q] : {std::pair{"wcet_cold_ms_p50", 0.5}, {"wcet_cold_ms_p90", 0.9}}) {
    m.Add(name, Quantile(cold, q), "ms", cold_n + raw(Quantile(cold_raw, q)));
  }
  const std::string edit_n = "thread CPU, over edit requests: " + wcet.edit_ms().Note();
  const std::vector<double> edit = wcet.edit_ms().Medians(true);
  const std::vector<double> edit_raw = wcet.edit_ms().Medians(false);
  for (const auto& [name, q] : {std::pair{"wcet_edit_ms_p50", 0.5}, {"wcet_edit_ms_p99", 0.99}}) {
    m.Add(name, Quantile(edit, q), "ms", edit_n + raw(Quantile(edit_raw, q)));
  }
  pmk::LatencyHistogram enforced = camp.enforced_hist();
  enforced.Merge(traffic.enforced_hist());
  const std::string irq_n = Count(enforced.count(), "enforced responses, reference pass");
  m.Add("irq_response_p99_cycles", static_cast<double>(enforced.Percentile(99)), "cycles", irq_n);
  m.Add("irq_response_max_cycles", static_cast<double>(enforced.max()), "cycles", irq_n);
  m.Add("irq_bound_cycles", static_cast<double>(wcet.irq_bound()), "cycles",
        "after-kernel, L2 off, unedited");
  m.Add("goodput_per_mcycle", traffic.GoodputPerMcycle(), "requests/Mcycle",
        std::to_string(traffic.served()) + " served / " +
            std::to_string(traffic.ref_mcycles()) + " Mcycles, reference pass");
  m.Add("setup_s", setup_s.Medians(true).front(), "s",
        "wall, median of " + Count(setup_s.count(), "set-ups") +
            raw(setup_s.Medians(false).front()));
  m.Add("peak_rss_mb", PeakRssMb(), "MiB", "getrusage ru_maxrss");
  m.Add("ok_frac",
        1.0 - Ratio(static_cast<double>(tally.failed()), static_cast<double>(tally.attempted())),
        "frac",
        std::to_string(tally.failed()) + " failed of " + std::to_string(tally.attempted()) +
            " attempted");
  std::printf("\nhost times scaled by the host-speed loop: %s\n", speed.Note().c_str());
}

void PerLayerMetrics(const SpanRecorder& spans, const TrafficPhase& traffic,
                     const TraceInputs& in, MetricSet& m) {
  const auto stats = spans.Stats();
  const auto count = [&](const std::string& name) -> std::uint64_t {
    const auto it = stats.find(name);
    return it == stats.end() ? 0 : it->second.count;
  };
  const auto total_ns = [&](const std::string& name) -> double {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.total_ns;
  };
  const auto median_of = [&](const std::string& name) { return Median(Durations(stats, name)); };
  const auto spans_of = [&](const std::string& name) { return Count(count(name), name); };
  const LayerCounts& c = in.counts;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  // hw
  m.Add("hw.cache.probe_ns.l1", c.l1_probe_ns, "ns",
        "per Cache::Access, working sets 1/2x and 4x of 16 KiB");
  m.Add("hw.cache.probe_ns.l2", c.l2_probe_ns, "ns",
        "per Cache::Access, working sets 1/2x and 4x of 128 KiB");
  m.Add("hw.l1i.miss_ratio", Ratio(d(c.l1i_misses), d(c.l1i_accesses)), "ratio",
        "of " + std::to_string(c.l1i_accesses) + " L1I accesses");
  m.Add("hw.l1d.miss_ratio", Ratio(d(c.l1d_misses), d(c.l1d_accesses)), "ratio",
        "of " + std::to_string(c.l1d_accesses) + " L1D accesses");
  m.Add("hw.l2.miss_ratio", Ratio(d(c.l2_misses), d(c.l2_accesses)), "ratio",
        "of " + std::to_string(c.l2_accesses) + " L2 accesses");
  m.Add("hw.mem_stall_frac", Ratio(d(c.mem_stall_cycles), d(c.cycles)), "ratio",
        "of " + std::to_string(c.cycles) + " modelled cycles");
  // kir
  m.Add("kir.compile_ms", median_of("kir.CompiledFor") / 1e6, "ms",
        "median, " + spans_of("kir.CompiledFor"));
  // Charge path and runner: the traffic phase's own RunTrafficSweep calls
  // (wall time, Runner steps and modelled cycles summed over all of them).
  const double blocks = in.traffic.Get("sim.exec.blocks_charged");
  const double sweep_ns = traffic.wall_s() * 1e9;
  m.Add("kir.blocks_charged", Ratio(blocks, d(traffic.sweeps())), "count",
        "sim.exec.blocks_charged per RunTrafficSweep call, mean over " +
            Count(traffic.sweeps(), "calls"));
  m.Add("kir.ns_per_block", Ratio(sweep_ns, blocks), "ns",
        "RunTrafficSweep wall / " + std::to_string(static_cast<std::uint64_t>(blocks)) +
            " charged blocks");
  // kernel
  for (const char* op : {"fastpath_call", "retype", "ep_delete", "badged_abort"}) {
    const std::string span = std::string("kernel.syscall.") + op;
    m.Add(std::string("kernel.syscall_ns.") + op, median_of(span), "ns", "median, " + spans_of(span));
  }
  m.Add("kernel.invariants_us", median_of("kernel.CheckInvariants") / 1e3, "us",
        "median, " + spans_of("kernel.CheckInvariants"));
  m.Add("kernel.entries", d(c.kernel_entries), "count", "kernel entries of the counted probe runs");
  // sim
  m.Add("sim.runner.ns_per_step", Ratio(sweep_ns, d(traffic.steps())), "ns",
        "RunTrafficSweep wall / " + std::to_string(traffic.steps()) + " Runner steps");
  m.Add("sim.runner.ns_per_kcycle", Ratio(sweep_ns, traffic.mcycles() * 1e3), "ns",
        "RunTrafficSweep wall / " +
            std::to_string(static_cast<std::uint64_t>(traffic.mcycles() * 1e3)) +
            " modelled kcycles");
  // engine
  const double scenarios = in.camp.Get("fault.campaign.scenarios");
  const std::string per_scenario = "per " + std::to_string(static_cast<std::uint64_t>(scenarios)) +
                                   " campaign scenarios";
  m.Add("engine.fork_us", median_of("engine.Fork") / 1e3, "us", "median, " + spans_of("engine.Fork"));
  m.Add("engine.forks_per_scenario", Ratio(in.camp.Get("engine.checkpoint.forks"), scenarios),
        "ratio", per_scenario);
  m.Add("engine.jobs.busy_frac",
        Ratio(in.camp.Get("engine.jobs.job_wall_nanos"),
              in.camp.Get("engine.jobs.batch_nanos") * CampaignPhase::kJobs),
        "ratio",
        "job wall / (batch wall x " + std::to_string(CampaignPhase::kJobs) + " workers)");
  // fault
  for (const char* mode : {"exhaustive", "random"}) {
    const std::string span = std::string("fault.RunWithInstance.") + mode;
    const std::vector<double> v = Durations(stats, span);
    m.Add(std::string("fault.scenario_us.") + mode + ".p50", Quantile(v, 0.5) / 1e3, "us",
          spans_of(span));
    m.Add(std::string("fault.scenario_us.") + mode + ".p99", Quantile(v, 0.99) / 1e3, "us",
          spans_of(span));
  }
  m.Add("fault.invariant_checks_per_scenario",
        Ratio(in.camp.Get("fault.invariant.checks"), scenarios), "ratio", per_scenario);
  // load
  m.Add("load.boot_ms", median_of("load.BuildClientFleet") / 1e6, "ms",
        "median, " + spans_of("load.BuildClientFleet"));
  m.Add("load.served_frac", Ratio(d(traffic.served()), d(traffic.calls())), "ratio",
        "of " + std::to_string(traffic.calls()) + " client calls, reference pass");
  m.Add("load.drop_frac", Ratio(d(traffic.dropped()), d(traffic.offered())), "ratio",
        "of " + std::to_string(traffic.offered()) + " frames offered, reference pass");
  m.Add("load.frames_per_mcycle", Ratio(d(traffic.processed()), traffic.ref_mcycles()),
        "frames/Mcycle", "over " + std::to_string(traffic.ref_mcycles()) + " Mcycles");
  const auto& shapes = TrafficPhase::Shapes();
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const std::vector<double>& secs = traffic.shape_seconds()[s];
    m.Add(std::string("load.shape_s.") + pmk::load::ArrivalShapeName(shapes[s]), Median(secs),
          "s", "median over " + Count(secs.size(), "RunTrafficSweep calls"));
  }
  // wcet
  const struct {
    const char* metric;
    const char* span;
  } stages[] = {{"wcet.graph_ms", "wcet.InlinedGraph"},
                {"wcet.loopbound_ms", "wcet.ComputeLoopBounds"},
                {"wcet.cost_ms", "wcet.ComputeNodeCosts"},
                {"wcet.ipet_build_ms", "wcet.BuildIpetProgram"},
                {"wcet.ilp_ms", "wcet.SolveIpetProgram"}};
  for (const auto& st : stages) {
    m.Add(st.metric, Ratio(total_ns(st.span), d(count(st.span))) / 1e6, "ms",
          "mean per entry, " + spans_of(st.span));
  }
  // LP relaxations solved: plain LP solves plus branch-and-bound nodes.
  const double solves = in.wcet.Get("wcet.simplex.solves") + in.wcet.Get("wcet.bb.nodes");
  m.Add("wcet.simplex.pivots_per_solve", Ratio(in.wcet.Get("wcet.simplex.pivots"), solves),
        "ratio", "per " + std::to_string(static_cast<std::uint64_t>(solves)) + " LP relaxations");
  double hits = 0, lookups = 0;
  for (const char* stage : {"graph", "loopbound", "cost", "ipet"}) {
    const double h = in.wcet.Get(std::string("wcet.inc.") + stage + ".hit");
    hits += h;
    lookups += h + in.wcet.Get(std::string("wcet.inc.") + stage + ".miss");
  }
  m.Add("wcet.inc.hit_ratio", Ratio(hits, lookups), "ratio",
        "of " + std::to_string(static_cast<std::uint64_t>(lookups)) + " stage lookups");
  const double warm = in.wcet.Get("wcet.inc.simplex.warm");
  const double warm_cold = warm + in.wcet.Get("wcet.inc.simplex.cold");
  m.Add("wcet.inc.warm_ratio", Ratio(warm, warm_cold), "ratio",
        "of " + std::to_string(static_cast<std::uint64_t>(warm_cold)) + " incremental solves");
  // obs
  m.Add("obs.trace_overhead_frac", in.overhead_frac, "ratio",
        "traced / untraced wall of one pass of the workload's phase - 1, median of " +
            std::to_string(in.overhead_pairs) + " pairs");
}

void PrintSelfTimes(const SpanRecorder& spans) {
  std::printf("\nspans of the traced run (self = minus time in child spans):\n");
  for (const auto& [name, st] : spans.Stats()) {
    std::printf("  %-36s n=%-7llu total=%11.3f ms  self=%11.3f ms\n", name.c_str(),
                static_cast<unsigned long long>(st.count), st.total_ns / 1e6, st.self_ns / 1e6);
  }
}

void PrintResult(const Tally& tally, const MetricSet& m) {
  std::printf("\n");
  for (const Metric& x : m.metrics()) {
    std::printf("  %-38s %16.6f %-16s %s\n", x.name.c_str(), x.value, x.unit.c_str(),
                x.base.c_str());
  }
  for (const std::string& note : tally.notes()) {
    std::printf("FAILED: %s\n", note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted());
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.metrics().size(); ++i) {
    const Metric& x = m.metrics()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", x.value);
    json += i == 0 ? "" : ", ";
    json += "\"" + x.name + "\": {\"value\": " + value + ", \"unit\": \"" + x.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const Options& opts = args.opts;
  Tally tally;
  SpanRecorder spans(opts.trace);
  HostSpeed speed;
  WcetPhase wcet(opts, tally, spans, speed);
  CampaignPhase camp(opts, tally, spans, speed);
  TrafficPhase traffic(opts, tally, spans, speed);

  ItemTimes setup_s;  // one item: a full set-up
  const auto setup = [&](WcetPhase& target) {
    const double scale = speed.ThreadScale();
    const Clock::time_point t0 = Clock::now();
    RunSetup(target, spans);
    const double s = SecondsSince(t0);
    setup_s.Add(0, s, scale);
    return s;
  };
  setup(wcet);
  tally.Check(wcet.irq_bound() > 0, "no analyzed interrupt-response bound");
  camp.set_bound(wcet.irq_bound());
  traffic.set_bound(wcet.irq_bound());

  TraceInputs in;
  PhaseBase* const phases[] = {&camp, &traffic, &wcet};
  PhaseBase& primary = *phases[static_cast<int>(opts.primary)];

  // One lane per phase (in Phase order) and one for set-up. The traced run
  // reads registry deltas around every phase batch.
  struct Lane {
    double share;
    std::function<double()> step;
    std::function<bool()> done;
    double used = 0;
  };
  const auto phase_lane = [&](PhaseBase& p, RegistryDelta* delta) {
    const double share = &p == &primary ? kPrimaryShare : kOtherShare;
    return Lane{share,
                [&p, delta] {
                  if (delta == nullptr) {
                    return p.Step();
                  }
                  const auto before = pmk::obs::MetricsRegistry::Get().Snapshot();
                  const double s = p.Step();
                  delta->Add(before, pmk::obs::MetricsRegistry::Get().Snapshot());
                  return s;
                },
                [&p] { return p.first_passes_done(); }};
  };
  std::vector<Lane> lanes = {
      phase_lane(camp, opts.trace ? &in.camp : nullptr),
      phase_lane(traffic, opts.trace ? &in.traffic : nullptr),
      phase_lane(wcet, opts.trace ? &in.wcet : nullptr),
      Lane{kSetupShare,
           [&] {
             WcetPhase throwaway(opts, tally, spans, speed);
             return setup(throwaway);
           },
           [] { return true; }}};

  if (opts.trace) {
    // Tracing overhead: whole passes of the workload's own phase with span
    // recording off and on, alternating which goes first. The first pass
    // (also the reference pass) warms process-wide caches and is not timed.
    const Lane& own = lanes[static_cast<int>(opts.primary)];
    const auto pass = [&](bool traced) {
      spans.set_enabled(traced);
      const Clock::time_point t0 = Clock::now();
      for (std::size_t b = 0; b < primary.batches_per_pass(); ++b) {
        own.step();
      }
      return SecondsSince(t0);
    };
    pass(false);
    std::vector<double> ratios;
    for (int i = 0; i < 3; ++i) {
      double off = 0, on = 0;
      if (i % 2 == 0) {
        off = pass(false);
        on = pass(true);
      } else {
        on = pass(true);
        off = pass(false);
      }
      ratios.push_back(on / off - 1.0);
    }
    spans.set_enabled(true);
    in.overhead_frac = Median(ratios);
    in.overhead_pairs = ratios.size();
  }

  // The measured interleaving: always run the lane that has used the least
  // of its share; after --seconds, only lanes that have not yet completed
  // their reference pass and one timed pass run.
  const Clock::time_point start = Clock::now();
  for (;;) {
    const bool over = SecondsSince(start) >= opts.seconds;
    Lane* next = nullptr;
    for (Lane& l : lanes) {
      if (over && l.done()) {
        continue;
      }
      if (next == nullptr || l.used / l.share < next->used / next->share) {
        next = &l;
      }
    }
    if (next == nullptr) {
      break;
    }
    next->used += next->step();
  }
  camp.CheckJobsDigest();

  if (!args.golden.empty()) {
    const auto golden = ReadGolden(args.golden);
    const auto check = [&](const char* key, std::uint64_t got) {
      const auto it = golden.find(key);
      tally.Check(it != golden.end() && it->second == Hex(got),
                  std::string("golden digest mismatch: ") + key + " = " + Hex(got));
    };
    check("campaign_csv", camp.digest());
    check("traffic_table", traffic.digest());
    check("wcet_bounds", wcet.digest());
  }

  MetricSet m;
  if (opts.trace) {
    in.counts = RunLayerProbes(opts, tally, spans, wcet);
    PrintSelfTimes(spans);
    PerLayerMetrics(spans, traffic, in, m);
    if (!args.spans_out.empty() && !spans.WriteJsonl(args.spans_out)) {
      tally.Check(false, "cannot write spans to " + args.spans_out);
    }
  } else {
    EndToEndMetrics(camp, traffic, wcet, setup_s, speed, tally, m);
  }
  PrintResult(tally, m);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    perfbench::ParseArgs(argc, argv, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmk_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmk_perfbench: %s\n", e.what());
    return 1;
  }
}
