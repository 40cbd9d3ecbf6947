#include "tenant/tenant.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/env_spec.h"

namespace nicsched::tenant {

const char* to_string(SloClass slo) {
  switch (slo) {
    case SloClass::kLatencyCritical:
      return "latency_critical";
    case SloClass::kStandard:
      return "standard";
    case SloClass::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

std::optional<SloClass> slo_class_from_string(std::string_view name) {
  if (name == "lc" || name == "latency_critical") {
    return SloClass::kLatencyCritical;
  }
  if (name == "std" || name == "standard") return SloClass::kStandard;
  if (name == "be" || name == "best_effort") return SloClass::kBestEffort;
  return std::nullopt;
}

TenantParams TenantParams::from_specs(const std::vector<TenantSpec>& specs) {
  TenantParams params;
  // A mix that is only tenant 0 is the one-tenant shim over the legacy
  // single-stream knobs: the server must keep its classic path bit for bit,
  // so the layer only switches on when a real (non-zero) tenant id appears.
  for (const TenantSpec& spec : specs) {
    if (spec.id != 0) params.enabled = true;
  }
  params.tenants.reserve(specs.size());
  for (const TenantSpec& spec : specs) {
    params.tenants.push_back({spec.id, spec.weight, spec.slo});
  }
  return params;
}

void accumulate(std::vector<TenantStats>& lhs,
                const std::vector<TenantStats>& rhs) {
  if (lhs.size() < rhs.size()) lhs.resize(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    lhs[i].id = rhs[i].id;
    lhs[i].enqueued += rhs[i].enqueued;
    lhs[i].dispatched += rhs[i].dispatched;
    lhs[i].max_depth = std::max(lhs[i].max_depth, rhs[i].max_depth);
    lhs[i].overload.admitted += rhs[i].overload.admitted;
    lhs[i].overload.rejected += rhs[i].overload.rejected;
    lhs[i].overload.shed_expired += rhs[i].overload.shed_expired;
    lhs[i].overload.k_shrinks += rhs[i].overload.k_shrinks;
    lhs[i].overload.k_restores += rhs[i].overload.k_restores;
  }
}

std::optional<std::vector<TenantSpec>> parse_tenant_list(
    std::string_view text) {
  std::vector<TenantSpec> specs;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view item = text.substr(start, end - start);
    start = end + 1;
    if (item.empty()) return std::nullopt;

    // id : weight : class [: rate_rps]
    std::vector<std::string> fields;
    std::size_t field_start = 0;
    while (field_start <= item.size()) {
      std::size_t field_end = item.find(':', field_start);
      if (field_end == std::string_view::npos) field_end = item.size();
      fields.emplace_back(item.substr(field_start, field_end - field_start));
      field_start = field_end + 1;
    }
    if (fields.size() < 3 || fields.size() > 4) return std::nullopt;

    TenantSpec spec;
    char* parse_end = nullptr;
    const unsigned long id = std::strtoul(fields[0].c_str(), &parse_end, 10);
    if (parse_end != fields[0].c_str() + fields[0].size() || id > 0xFFFF) {
      return std::nullopt;
    }
    spec.id = static_cast<std::uint16_t>(id);
    spec.weight = std::strtod(fields[1].c_str(), &parse_end);
    if (parse_end != fields[1].c_str() + fields[1].size() ||
        spec.weight <= 0.0) {
      return std::nullopt;
    }
    const auto slo = slo_class_from_string(fields[2]);
    if (!slo) return std::nullopt;
    spec.slo = *slo;
    if (fields.size() == 4) {
      spec.rate_rps = std::strtod(fields[3].c_str(), &parse_end);
      if (parse_end != fields[3].c_str() + fields[3].size() ||
          spec.rate_rps < 0.0) {
        return std::nullopt;
      }
    }
    specs.push_back(std::move(spec));
    if (end == text.size()) break;
  }
  return specs;
}

std::vector<TenantSpec> tenants_from_env() {
  std::string text;
  if (!core::EnvSpec::text("NICSCHED_TENANTS", text)) return {};
  auto specs = parse_tenant_list(text);
  if (!specs) {
    std::fprintf(stderr,
                 "nicsched: ignoring malformed NICSCHED_TENANTS=\"%s\" "
                 "(expected id:weight:class[:rate_rps],...)\n",
                 text.c_str());
    return {};
  }
  return *specs;
}

// ---- TenantDispatchQueue ---------------------------------------------------

TenantDispatchQueue::TenantDispatchQueue(const TenantParams& params)
    : params_(params) {
  const std::size_t count = std::max<std::size_t>(params_.tenants.size(), 1);
  lanes_.resize(count);
  stats_.resize(count);
  for (std::size_t i = 0; i < params_.tenants.size(); ++i) {
    stats_[i].id = params_.tenants[i].id;
    by_class_[static_cast<std::size_t>(params_.tenants[i].slo)].push_back(i);
  }
  if (params_.tenants.empty()) {
    by_class_[static_cast<std::size_t>(SloClass::kStandard)].push_back(0);
  }
}

void TenantDispatchQueue::push_new(proto::RequestDescriptor descriptor,
                                   sim::TimePoint now) {
  const std::size_t index = params_.index_of(descriptor.tenant);
  enqueue(index, Entry{std::move(descriptor), now});
}

void TenantDispatchQueue::push_preempted(proto::RequestDescriptor descriptor,
                                         sim::TimePoint now) {
  const std::size_t index = params_.index_of(descriptor.tenant);
  enqueue(index, Entry{std::move(descriptor), now});
}

void TenantDispatchQueue::enqueue(std::size_t index, Entry entry) {
  Lane& lane = lanes_[index];
  lane.entries.push_back(std::move(entry));
  ++size_;
  max_depth_ = std::max(max_depth_, size_);
  ++stats_[index].enqueued;
  stats_[index].max_depth =
      std::max(stats_[index].max_depth, lane.entries.size());
  if (!params_.fair_dispatch) fifo_order_.push_back(index);
}

bool TenantDispatchQueue::expired(const proto::RequestDescriptor& descriptor,
                                  sim::TimePoint now) const {
  return shed_expired_ && descriptor.deadline_ps != 0 &&
         now.to_picos() >=
             static_cast<std::int64_t>(descriptor.deadline_ps);
}

bool TenantDispatchQueue::consume_cancel(
    const proto::RequestDescriptor& descriptor) {
  if (cancelled_ids_.empty() ||
      !cancelled_ids_.erase(descriptor.request_id)) {
    return false;
  }
  ++cancelled_total_;
  return true;
}

void TenantDispatchQueue::shed_expired_front(std::size_t index,
                                             sim::TimePoint now) {
  Lane& lane = lanes_[index];
  while (!lane.entries.empty()) {
    const proto::RequestDescriptor& front = lane.entries.front().descriptor;
    if (!consume_cancel(front)) {
      if (!expired(front, now)) break;
      ++stats_[index].overload.shed_expired;
      ++shed_total_;
    }
    lane.entries.pop_front();
    --size_;
  }
}

TenantDispatchQueue::Popped TenantDispatchQueue::take_front(
    std::size_t index) {
  Lane& lane = lanes_[index];
  Popped popped;
  popped.descriptor = std::move(lane.entries.front().descriptor);
  popped.tenant_index = index;
  popped.queue_delay = sim::Duration{};
  lane.entries.pop_front();
  --size_;
  ++stats_[index].dispatched;
  return popped;
}

std::optional<TenantDispatchQueue::Popped> TenantDispatchQueue::pop(
    sim::TimePoint now) {
  if (!params_.fair_dispatch) {
    // Interference baseline: one FIFO across all tenants. fifo_order_ holds
    // slot indices in arrival order; since each lane is itself FIFO, the
    // k-th occurrence of a slot always names that lane's k-th entry, so the
    // global head is lanes_[fifo_order_.front()].front().
    while (!fifo_order_.empty()) {
      const std::size_t index = fifo_order_.front();
      Lane& lane = lanes_[index];
      if (consume_cancel(lane.entries.front().descriptor)) {
        fifo_order_.pop_front();
        lane.entries.pop_front();
        --size_;
        continue;
      }
      if (expired(lane.entries.front().descriptor, now)) {
        fifo_order_.pop_front();
        lane.entries.pop_front();
        --size_;
        ++stats_[index].overload.shed_expired;
        ++shed_total_;
        continue;
      }
      const sim::TimePoint enqueued_at = lane.entries.front().enqueued_at;
      fifo_order_.pop_front();
      Popped popped = take_front(index);
      popped.queue_delay = now - enqueued_at;
      return popped;
    }
    return std::nullopt;
  }

  // Strict priority across classes; DRR inside the class. The cursor lane
  // holds the current *turn*: it is granted quantum x weight once per turn,
  // serves head entries while its deficit covers their remaining work, then
  // yields and carries any leftover credit into its next turn. Every full
  // rotation grants each backlogged lane exactly one quantum, so deficits
  // strictly grow and the loop terminates even when a single request costs
  // more than one grant.
  for (std::size_t c = 0; c < kSloClassCount; ++c) {
    const auto& members = by_class_[c];
    if (members.empty()) continue;
    for (const std::size_t index : members) shed_expired_front(index, now);

    std::size_t active = 0;
    for (const std::size_t index : members) {
      if (!lanes_[index].entries.empty()) ++active;
    }
    if (active == 0) continue;

    std::size_t position = cursor_[c] % members.size();
    while (true) {
      const std::size_t index = members[position];
      Lane& lane = lanes_[index];
      if (lane.entries.empty()) {
        // A lane that drained banks no credit into the next busy period.
        lane.deficit_ps = 0.0;
        turn_granted_[c] = false;
        position = (position + 1) % members.size();
        continue;
      }
      const double cost =
          static_cast<double>(lane.entries.front().descriptor.remaining_ps);
      if (!turn_granted_[c]) {
        const double weight =
            index < params_.tenants.size() ? params_.tenants[index].weight
                                           : 1.0;
        lane.deficit_ps +=
            static_cast<double>(params_.quantum.to_picos()) * weight;
        turn_granted_[c] = true;
      }
      if (lane.deficit_ps >= cost) {
        lane.deficit_ps -= cost;
        cursor_[c] = position;
        const sim::TimePoint enqueued_at = lane.entries.front().enqueued_at;
        Popped popped = take_front(index);
        popped.queue_delay = now - enqueued_at;
        if (lane.entries.empty()) {
          lane.deficit_ps = 0.0;
          cursor_[c] = (position + 1) % members.size();
          turn_granted_[c] = false;
        }
        return popped;
      }
      // Turn exhausted: yield, carrying the leftover credit forward.
      turn_granted_[c] = false;
      position = (position + 1) % members.size();
    }
  }
  return std::nullopt;
}

// ---- TenantAdmission -------------------------------------------------------

TenantAdmission::TenantAdmission(const TenantParams& params,
                                 const overload::OverloadParams& overload) {
  const std::size_t count = std::max<std::size_t>(params.tenants.size(), 1);
  gates_.reserve(count);
  stats_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    gates_.emplace_back(overload);
  }
}

bool TenantAdmission::admit(std::size_t index, std::size_t tenant_depth) {
  const bool admitted = gates_[index].admit(tenant_depth);
  if (admitted) {
    ++stats_[index].admitted;
  } else {
    ++stats_[index].rejected;
  }
  return admitted;
}

void TenantAdmission::observe(std::size_t index, sim::Duration delay) {
  gates_[index].observe_queue_delay(delay);
}

std::vector<TenantStats> assemble_stats(const TenantParams& params,
                                        const TenantDispatchQueue* queue,
                                        const TenantAdmission* admission) {
  if (!params.enabled) return {};
  const std::size_t count = std::max<std::size_t>(params.tenants.size(), 1);
  std::vector<TenantStats> rows(count);
  for (std::size_t i = 0; i < params.tenants.size(); ++i) {
    rows[i].id = params.tenants[i].id;
  }
  if (queue != nullptr) accumulate(rows, queue->stats());
  if (admission != nullptr) {
    const auto& gates = admission->stats();
    for (std::size_t i = 0; i < rows.size() && i < gates.size(); ++i) {
      rows[i].overload.admitted += gates[i].admitted;
      rows[i].overload.rejected += gates[i].rejected;
    }
  }
  return rows;
}

}  // namespace nicsched::tenant
