#include <utility>
#include <vector>

#include "perfbench/src/phases.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

constexpr pmk::EntryPoint kEntries[] = {pmk::EntryPoint::kSyscall, pmk::EntryPoint::kUndefined,
                                        pmk::EntryPoint::kPageFault,
                                        pmk::EntryPoint::kInterrupt};

std::uint32_t Get(const pmk::Block& b, int field) {
  switch (field) {
    case WcetPhase::kLoopBound:
      return b.loop_bound_annotation;
    case WcetPhase::kExecBound:
      return b.absolute_exec_bound;
    default:
      return b.is_preemption_point ? 1 : 0;
  }
}

void Set(pmk::Block& b, int field, std::uint32_t v) {
  switch (field) {
    case WcetPhase::kLoopBound:
      b.loop_bound_annotation = v;
      break;
    case WcetPhase::kExecBound:
      b.absolute_exec_bound = v;
      break;
    default:
      b.is_preemption_point = v != 0;
      break;
  }
}

// Calling-thread CPU milliseconds since |cpu0| (ThreadCpuSeconds()).
double MsSince(double cpu0) { return (ThreadCpuSeconds() - cpu0) * 1e3; }

}  // namespace

void WcetPhase::Setup() {
  configs_.clear();
  for (const bool l2 : {false, true}) {
    for (const bool pin : {false, true}) {
      for (const bool after : {false, true}) {
        Config c;
        c.after = after;
        c.label = std::string(after ? "after" : "before") + (l2 ? "/l2" : "/nol2") +
                  (pin ? "/pin" : "/nopin");
        c.opts.l2_enabled = l2;
        c.opts.cache_pinning = pin;
        {
          const SpanScope span(spans_, "kir.BuildKernelImage");
          c.image = pmk::BuildKernelImage(after ? pmk::KernelConfig::After()
                                                : pmk::KernelConfig::Before());
        }
        {
          const SpanScope span(spans_, "wcet.IncrementalWcetAnalyzer.first");
          c.inc = std::make_unique<pmk::IncrementalWcetAnalyzer>(*c.image, c.opts);
          c.bound = c.inc->InterruptResponseBound();
        }
        const pmk::Program& prog = c.image->prog;
        for (pmk::BlockId id = 0; id < prog.num_blocks(); ++id) {
          for (int f = 0; f < kNumFields; ++f) {
            if (Get(prog.block(id), f) != 0) {
              c.sites[f].push_back(id);
            }
          }
        }
        configs_.push_back(std::move(c));
      }
    }
  }
}

pmk::Cycles WcetPhase::irq_bound() const {
  for (const Config& c : configs_) {
    if (c.after && !c.opts.l2_enabled && !c.opts.cache_pinning) {
      return c.bound;
    }
  }
  return 0;
}

pmk::Cycles WcetPhase::ColdAnalysis(Config& c, std::size_t batch_index) {
  const double cpu0 = ThreadCpuSeconds();
  pmk::Cycles bound = 0;
  {
    const SpanScope span(spans_, "wcet.WcetAnalyzer.cold", item_);
    const pmk::WcetAnalyzer cold(*c.image, c.opts);
    for (const pmk::EntryPoint e : kEntries) {
      tally_.Check(cold.Analyze(e).status == pmk::SolveStatus::kOptimal,
                   "cold analysis not optimal: " + c.label);
    }
    bound = cold.InterruptResponseBound();
  }
  if (timed_) {
    cold_ms_.Add(batch_index, MsSince(cpu0), scale_);
  }
  tally_.Check(bound == c.bound, "cold bound differs from the set-up bound: " + c.label);
  return bound;
}

// One client's closed-loop session of "what if" questions against the
// committed kernel. A round edits every (field, site) pair of the config
// once: each field's sites in a seeded order, the fields taken in turn
// (loop bound, execution bound, preemption point, loop bound, ...) while
// they have sites left. For each, it applies one edit with a seeded value,
// queries, and reverts it, each request followed by a response-bound query.
// Every seed edits the same sites, so the percentiles of the edit times do
// not hinge on which blocks a seed happens to draw. With the fields in this
// turn an execution-bound edit never directly follows a preemption-point
// what-if, the sequence on which the incremental analyzer returns a wrong
// bound (perfbench/README.md, "Known defect"). One edit is outstanding
// at a time (stacked preemption-point removals make single solves take
// hundreds of milliseconds). Edits and reverts are timed end to end
// (mutation, NotifyBlockEdited, InterruptResponseBound); every revert must
// return the set-up bound, and a seeded subset of edits is re-checked
// against a cold analyzer of the edited image, outside the timing.
std::uint64_t WcetPhase::EditSession(Config& c, std::uint64_t session_seed) {
  pmk::SplitMix64 rng(session_seed);
  std::uint64_t digest = pmk::kFnv64Offset;
  pmk::Program& prog = c.image->prog;

  const auto request = [&](pmk::BlockId block, int field, std::uint32_t value) {
    const std::uint64_t id = edit_ids_++;
    const bool edit = field >= 0;
    const double cpu0 = ThreadCpuSeconds();
    pmk::Cycles bound = 0;
    {
      const SpanScope span(spans_, edit ? "wcet.edit" : "wcet.query", id);
      if (edit) {
        Set(prog.mutable_block(block), field, value);
        const SpanScope notify(spans_, "wcet.NotifyBlockEdited", id);
        c.inc->NotifyBlockEdited(block);
      }
      const SpanScope query(spans_, "wcet.InterruptResponseBound", id);
      bound = c.inc->InterruptResponseBound();
    }
    if (edit && timed_) {
      edit_ms_.Add(request_++, MsSince(cpu0), scale_);
    }
    digest = pmk::FnvU64(digest, bound);
    return bound;
  };

  const int rounds = c.after ? kAfterRounds : kBeforeRounds;
  for (int k = 0; k < rounds; ++k) {
    std::vector<pmk::BlockId> order[kNumFields];
    for (int f = 0; f < kNumFields; ++f) {
      order[f] = c.sites[f];
      for (std::size_t i = order[f].size(); i > 1; --i) {
        std::swap(order[f][i - 1], order[f][rng.Below(i)]);
      }
    }
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (int field = 0; field < kNumFields; ++field) {
        if (i >= order[field].size()) {
          continue;
        }
        any = true;
        const pmk::BlockId block = order[field][i];
        const std::uint32_t previous = Get(prog.block(block), field);
        const std::uint32_t value = field == kPreemptPoint
                                        ? 0
                                        : previous + 1 + static_cast<std::uint32_t>(rng.Below(4));
        const pmk::Cycles edited = request(block, field, value);
        if (rng.Below(kCrossCheckEvery) == 0) {
          const pmk::WcetAnalyzer cold(*c.image, c.opts);
          tally_.Check(cold.InterruptResponseBound() == edited,
                       "incremental bound differs from a cold analysis: " + c.label);
        }
        request(0, -1, 0);
        tally_.Check(request(block, field, previous) == c.bound,
                     "bound after reverting an edit differs from the set-up bound: " + c.label);
      }
      if (!any) {
        break;
      }
    }
  }
  return digest;
}

std::uint64_t WcetPhase::RunBatch(std::uint64_t pass, std::size_t batch,
                                  std::uint64_t input_seed) {
  timed_ = pass != 0;
  scale_ = timed_ ? speed_.ThreadScale() : 1.0;
  if (batch == 0) {
    request_ = 0;
  }
  Config& c = configs_[batch];
  std::uint64_t digest = pmk::kFnv64Offset;
  for (int i = 0; i < kColdPerBatch; ++i) {
    digest = pmk::FnvU64(digest, ColdAnalysis(c, batch));
  }
  const std::uint64_t session_seed = pmk::SplitMix64(input_seed).Split(200 + batch).Next();
  return pmk::FnvU64(digest, EditSession(c, session_seed));
}

}  // namespace perfbench
