// The one-tenant shim contract (DESIGN §13): describing the classic
// single-stream workload through the TenantSpec API — either an id-0 spec
// inheriting the experiment's service knob, or one carrying an identical
// distribution of its own — must reproduce the legacy configuration bit for
// bit: same responses, same timestamps, same counters, for every server
// family and seed. This is what lets with_tenants() stand in for a raw
// service distribution without perturbing a single golden.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/testbed.h"
#include "stats/response_log.h"
#include "tenant/tenant.h"

namespace nicsched {
namespace {

class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ULL;  // FNV-1a 64
    }
  }
  void add_signed(std::int64_t value) {
    add(static_cast<std::uint64_t>(value));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

enum class Shim {
  kLegacy,           // classic single-stream knobs, no tenant mix
  kInheritService,   // with_tenants({id-0 spec}), service inherited
  kExplicitService,  // with_tenants({id-0 spec carrying the same bimodal})
};

std::uint64_t run_digest(core::SystemKind kind, std::uint64_t seed,
                         Shim shim) {
  stats::ResponseLog log;
  auto config = core::ExperimentConfig::of(kind)
                    .workers(2)
                    .outstanding(2)
                    .bimodal()
                    .load(150e3)
                    .clients(2, 16)
                    .measure_for(sim::Duration::millis(1))
                    .with_seed(seed);
  config.warmup = sim::Duration::millis(1);
  config.drain = sim::Duration::millis(1);
  config.response_log = &log;
  switch (shim) {
    case Shim::kLegacy:
      break;
    case Shim::kInheritService:
      config.with_tenants({tenant::make_tenant(0)});
      break;
    case Shim::kExplicitService:
      config.with_tenants({tenant::make_tenant(0).bimodal(
          sim::Duration::micros(5), sim::Duration::micros(100), 0.005)});
      break;
  }

  const core::ExperimentResult result = core::run_experiment(config);
  // The shim is untenanted end to end: no per-tenant result rows, no
  // per-tenant server stats, version-1 frames only.
  EXPECT_TRUE(result.tenants.empty());
  EXPECT_TRUE(result.server.tenants.empty());

  Digest digest;
  digest.add(log.seen());
  for (const auto& r : log.records()) {
    digest.add(r.request_id);
    digest.add(r.kind);
    digest.add(r.preempt_count);
    digest.add_signed(r.sent_at.to_picos());
    digest.add_signed(r.received_at.to_picos());
    digest.add_signed(r.work.to_picos());
  }
  const core::ServerStats& s = result.server;
  digest.add(s.requests_received);
  digest.add(s.responses_sent);
  digest.add(s.preemptions);
  digest.add(s.steals);
  digest.add(s.drops);
  digest.add(s.queue_max_depth);
  return digest.value();
}

TEST(TenantShim, OneTenantMixIsBitIdenticalToLegacyKnobs) {
  for (const auto kind :
       {core::SystemKind::kShinjuku, core::SystemKind::kShinjukuOffload,
        core::SystemKind::kRss, core::SystemKind::kIdealNic}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const std::uint64_t legacy = run_digest(kind, seed, Shim::kLegacy);
      const std::uint64_t inherit =
          run_digest(kind, seed, Shim::kInheritService);
      const std::uint64_t explicit_service =
          run_digest(kind, seed, Shim::kExplicitService);
      EXPECT_EQ(legacy, inherit)
          << "kind=" << core::to_string(kind) << " seed=" << seed;
      EXPECT_EQ(legacy, explicit_service)
          << "kind=" << core::to_string(kind) << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace nicsched
