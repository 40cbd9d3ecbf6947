// "Off means off": one table over the server families and the feature
// knobs. For every (family, knob) cell the same trigger config runs twice,
// differing only in that knob. With the knob off, the mechanism's counters
// must read zero. With it on, a family that supports the knob must show at
// least one non-zero counter; a family that does not support it must still
// read zero. This is the per-mechanism form of "default-off features leave
// output bit-identical", and it catches a mechanism that acts while its
// knob is off (a Shinjuku that preempts with preemption disabled).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "fault/fault_schedule.h"
#include "overload/overload.h"
#include "rack/tor_scheduler.h"

namespace nicsched::core {
namespace {

enum class Knob {
  kPreemption,
  kAdaptiveK,
  kReliableDispatch,
  kAdmission,
  kShedding,
  kHedging,
};

const char* to_string(Knob knob) {
  switch (knob) {
    case Knob::kPreemption: return "preemption";
    case Knob::kAdaptiveK: return "adaptive_k";
    case Knob::kReliableDispatch: return "reliable_dispatch";
    case Knob::kAdmission: return "admission";
    case Knob::kShedding: return "shedding";
    case Knob::kHedging: return "hedging";
  }
  return "unknown";
}

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::origin() + sim::Duration::millis(ms);
}

/// Overload control with every sub-feature off; each knob turns one on.
overload::OverloadParams overload_base() {
  overload::OverloadParams params;
  params.enabled = true;
  params.admission_enabled = false;
  params.shedding_enabled = false;
  params.adaptive_k_enabled = false;
  return params;
}

/// A config built to trigger `knob`, with the knob set to `on`. Everything
/// else is identical between the on and off runs.
ExperimentConfig trigger_config(SystemKind family, Knob knob, bool on) {
  ExperimentConfig config = ExperimentConfig::of(family)
                                .workers(4)
                                .outstanding(2)
                                .measure_for(sim::Duration::millis(5))
                                .with_seed(11);
  config.warmup = sim::Duration::millis(2);
  config.drain = sim::Duration::millis(2);
  overload::OverloadParams over = overload_base();
  switch (knob) {
    case Knob::kPreemption:
      // Long requests run past the 10 us slice while short ones wait.
      config.bimodal(sim::Duration::micros(5), sim::Duration::micros(100),
                     0.1)
          .load(200e3);
      config.preemption_enabled = on;
      break;
    case Knob::kAdaptiveK:
      // Repeated stalls back one worker up; its sojourn samples drive the
      // adaptive-K governor.
      config.outstanding(4).fixed_5us().load(600e3);
      over.adaptive_k_enabled = on;
      config.with_overload(over);
      {
        fault::FaultSchedule stalls;
        for (int i = 0; i < 4; ++i) {
          stalls.stall_worker(at_ms(3 + i), 0, sim::Duration::micros(300));
        }
        config.with_faults(stalls);
      }
      break;
    case Knob::kReliableDispatch:
      // A worker that dies holding assignments.
      config.fixed(sim::Duration::micros(2)).load(200e3);
      config.with_faults(fault::FaultSchedule{}.crash_worker(at_ms(3), 1));
      config.reliable(on);
      break;
    case Knob::kAdmission:
      config.fixed_5us().load(2.0e6);  // far past every family's capacity
      over.admission_enabled = on;
      config.with_overload(over);
      break;
    case Knob::kShedding:
      config.fixed_5us().load(2.0e6);  // queues outgrow the 200 us deadline
      over.shedding_enabled = on;
      config.with_overload(over);
      break;
    case Knob::kHedging: {
      // A host crash leaves requests pinned to a silent host.
      config.fixed_5us().load(400e3);
      config.with_rack(2, rack::TorPolicy::kPowerOfTwo);
      rack::TorParams tor;
      tor.policy = rack::TorPolicy::kPowerOfTwo;
      tor.failover = true;
      tor.hedge = on;
      tor.hedge_after = sim::Duration::micros(20);
      config.rack->tor = tor;
      config.with_faults(fault::FaultSchedule{}
                             .crash_host(at_ms(3), 1)
                             .recover_host(at_ms(5), 1));
      break;
    }
  }
  return config;
}

/// Sum of every counter the knob's mechanism drives.
std::uint64_t mechanism_counters(const ExperimentResult& result, Knob knob) {
  const ServerStats& s = result.server;
  switch (knob) {
    case Knob::kPreemption:
      return s.preemptions;
    case Knob::kAdaptiveK:
      return s.overload.k_shrinks + s.overload.k_restores;
    case Knob::kReliableDispatch: {
      const ReliabilityStats& r = s.reliability;
      return r.retransmits + r.note_retransmits + r.timeouts +
             r.redispatched + r.abandoned + r.duplicates + r.worker_deaths +
             r.revivals;
    }
    case Knob::kAdmission:
      return s.overload.rejected + result.clients.rejected;
    case Knob::kShedding:
      return s.overload.shed_expired;
    case Knob::kHedging:
      return result.rack ? result.rack->hedges_sent + result.rack->hedge_wins
                         : 0;
  }
  return 0;
}

struct Cell {
  SystemKind family;
  Knob knob;
  bool supported;  // false: the counters stay zero even with the knob on
};

std::vector<Cell> cells() {
  const SystemKind families[] = {
      SystemKind::kShinjuku, SystemKind::kShinjukuOffload, SystemKind::kRss,
      SystemKind::kIdealNic, SystemKind::kRain};
  const Knob knobs[] = {Knob::kPreemption,       Knob::kAdaptiveK,
                        Knob::kReliableDispatch, Knob::kAdmission,
                        Knob::kShedding,         Knob::kHedging};
  std::vector<Cell> out;
  for (const SystemKind family : families) {
    for (const Knob knob : knobs) {
      bool supported = true;
      switch (knob) {
        case Knob::kPreemption:
          // Run-to-completion never preempts.
          supported = family != SystemKind::kRss;
          break;
        case Knob::kAdaptiveK:
          // Needs a queuing optimization fed by worker sojourn samples.
          supported = family == SystemKind::kShinjukuOffload ||
                      family == SystemKind::kRain;
          break;
        case Knob::kReliableDispatch:
          // No dispatch hop (RSS) or a coherent one (the ideal NIC).
          supported = family != SystemKind::kRss &&
                      family != SystemKind::kIdealNic;
          break;
        case Knob::kAdmission:
        case Knob::kShedding:
        case Knob::kHedging:
          break;
      }
      out.push_back({family, knob, supported});
    }
  }
  return out;
}

class OffMeansOff : public ::testing::TestWithParam<Cell> {};

TEST_P(OffMeansOff, CountersFollowTheKnob) {
  const Cell& cell = GetParam();
  const ExperimentResult off =
      run_experiment(trigger_config(cell.family, cell.knob, false));
  const ExperimentResult on =
      run_experiment(trigger_config(cell.family, cell.knob, true));
  ASSERT_GT(off.clients.sent, 0u);
  EXPECT_EQ(mechanism_counters(off, cell.knob), 0u)
      << "the mechanism acted with its knob off";
  if (cell.supported) {
    EXPECT_GT(mechanism_counters(on, cell.knob), 0u)
        << "the trigger config never exercised the mechanism";
  } else {
    EXPECT_EQ(mechanism_counters(on, cell.knob), 0u)
        << "a family without the mechanism reported it acting";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, OffMeansOff, ::testing::ValuesIn(cells()),
    [](const ::testing::TestParamInfo<Cell>& param_info) {
      std::string name = std::string(core::to_string(param_info.param.family)) +
                         "_" + to_string(param_info.param.knob);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace nicsched::core
