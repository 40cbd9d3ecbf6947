#include "core/nic_server.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/seq_bitmap.h"
#include "obs/span.h"
#include "sim/ring.h"

namespace nicsched::core {

namespace {

/// The host↔NIC path's cost data, worked out from the model constants.
net::RdmaQueuePair::Config link_config(const ModelParams& params, bool cxl) {
  net::RdmaQueuePair::Config config;
  if (cxl) {
    // A coherent write: visible one traversal later, nothing to post.
    config.write_latency = params.cxl_one_way_latency;
    config.cq_poll_interval = sim::Duration::zero();
    config.wqe_post_cost = sim::Duration::zero();
    config.doorbell_cost = sim::Duration::zero();
  } else {
    config.write_latency = params.rdma_write_latency;
    config.cq_poll_interval = params.rdma_cq_poll_interval;
    config.wqe_post_cost = params.rdma_wqe_post_cost;
    config.doorbell_cost = params.rdma_doorbell_cost;
  }
  return config;
}

/// Initiator-side occupancy of one post (WQE build + doorbell; zero for a
/// coherent write), charged to the ASIC.
sim::Duration post_cost(const net::RdmaQueuePair::Config& link) {
  return link.wqe_post_cost + link.doorbell_cost;
}

net::Nic::Config nic_config(const ModelParams& params, bool cxl) {
  net::Nic::Config config;
  config.name = cxl ? "ideal-nic" : "rain-nic";
  config.rx_latency = sim::Duration::zero();  // scheduler sees frames on-NIC
  config.tx_latency = params.host_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

hw::CpuCore::Config asic_config(const ModelParams& params, bool cxl) {
  hw::CpuCore::Config config;
  config.name = cxl ? "nic-asic" : "rain-asic";
  config.frequency = params.host_frequency;
  return config;
}

/// What the CXL kinds override in the spec they are built from.
HostSpec resolve(HostSpec spec) {
  if (spec.system == SystemKind::kRain) return spec;
  // The coherent CXL path: writes cannot be lost and the status table stays
  // near-fresh, so neither reliable dispatch nor adaptive K has anything to
  // add.
  spec.reliability = ReliabilityParams{};
  spec.overload.adaptive_k_enabled = false;
  if (spec.system == SystemKind::kRpcValet) {
    // NI-on-chip: feedback and assignment latencies collapse to tens of
    // nanoseconds and the queue is consulted per request — but requests run
    // to completion.
    spec.outstanding_per_worker = 1;
    spec.preemption_enabled = false;
    spec.params.cxl_one_way_latency = sim::Duration::nanos(50);
  }
  return spec;
}

std::uint32_t pf_index(bool cxl) { return cxl ? 4000 : 5000; }
std::uint16_t worker_port(bool cxl) { return cxl ? 8082 : 8083; }

}  // namespace

// ----------------------------------------------------------------- Worker

/// A host worker polling its run-queue for kRdmaRunQueueEntry payloads; it
/// reports every status transition by posting a kRdmaCqEntry back over the
/// completion queue. Preemption is a direct NIC→core interrupt whose
/// delivery latency is one write traversal.
class NicSchedServer::Worker final : public HostWorker {
 public:
  Worker(NicSchedServer& server, std::size_t id)
      : HostWorker(server.sim_, server.spec_.params,
                   {std::string(server.cxl() ? "ideal" : "rain") + "-worker" +
                        std::to_string(id),
                    id, static_cast<std::uint32_t>(100 + id),
                    server.link_.write_latency,
                    // Descriptor pop + announcing "started" with one post —
                    // the write that plays the dispatch-ack role under
                    // reliable dispatch.
                    server.spec_.params.ddio_pop_cost +
                        server.worker_post_cost_,
                    server.worker_post_cost_,
                    server.spec_.placement.value_or(
                        hw::PlacementPolicy::kDdioL1),
                    server.pf_, worker_port(server.cxl()),
                    server.spec_.load_feedback}),
        server_(server),
        id_(id),
        rq_(server.sim_, server.link_) {
    rq_.set_on_receive([this]() {
      // Stamp the arrival so the pop can measure the local run-queue
      // sojourn — the adaptive-K backlog signal. Pops consume stamps in
      // FIFO order, so duplicates dropped at parse time stay aligned.
      arrivals_.push_back(sim_.now());
      wake();
    });
  }

  net::RdmaQueuePair& rq() { return rq_; }

 private:
  bool fetch(proto::RequestDescriptor& out) override {
    while (auto bytes = rq_.poll()) {
      sim::Duration local_sojourn = sim::Duration::zero();
      if (!arrivals_.empty()) {
        local_sojourn = sim_.now() - arrivals_.front();
        arrivals_.pop_front();
      }
      auto entry = proto::RdmaRunQueueEntry::parse(*bytes);
      if (!entry) {
        ++server_.malformed_;
        continue;
      }
      if (server_.reliable() && !seen_seqs_.insert(entry->seq)) {
        // A re-posted write for an entry already picked up: the RTO fired
        // while this worker was stalled. Suppress the duplicate.
        ++server_.reliable_.stats().duplicates;
        continue;
      }
      current_seq_ = entry->seq;
      current_local_sojourn_ = local_sojourn;
      out = std::move(entry->descriptor);
      return true;
    }
    return false;
  }
  std::uint32_t queued_behind() const override {
    return static_cast<std::uint32_t>(rq_.depth());
  }
  void notify(Note note, const proto::RequestDescriptor& descriptor) override {
    proto::RdmaCqEntry cqe;
    cqe.seq = current_seq_;
    cqe.worker_id = static_cast<std::uint32_t>(id_);
    cqe.descriptor = descriptor;
    switch (note) {
      case Note::kStarted: cqe.cq_kind = proto::RdmaCqKind::kStarted; break;
      case Note::kPreempted: cqe.cq_kind = proto::RdmaCqKind::kPreempted; break;
      case Note::kCompleted:
        cqe.cq_kind = proto::RdmaCqKind::kCompleted;
        // The run-queue wait rides the completion as the adaptive-K input.
        cqe.has_sojourn = server_.spec_.overload.enabled &&
                          server_.spec_.overload.adaptive_k_enabled;
        cqe.sojourn_ps =
            static_cast<std::uint64_t>(current_local_sojourn_.to_picos());
        break;
    }
    auto& scratch = proto::serialization_scratch();
    cqe.serialize_into(scratch);
    server_.cq_.post_write(scratch);
  }

  NicSchedServer& server_;
  std::size_t id_;
  net::RdmaQueuePair rq_;
  sim::Ring<sim::TimePoint> arrivals_;
  SeqBitmap seen_seqs_;
  std::uint64_t current_seq_ = 0;
  sim::Duration current_local_sojourn_;  // run-queue wait (adaptive-K input)
};

// ------------------------------------------------------------- the server

NicSchedServer::NicSchedServer(sim::Simulator& sim,
                               net::EthernetSwitch& network,
                               const HostSpec& spec)
    : FaultableServer(network, spec.worker_count),
      sim_(sim),
      spec_(resolve(spec)),
      link_(link_config(spec_.params, cxl())),
      worker_post_cost_(cxl() ? spec_.params.cxl_write_cost
                              : post_cost(link_)),
      nic_(sim, nic_config(spec_.params, cxl())),
      asic_(sim, asic_config(spec_.params, cxl())),
      cq_(sim, link_),
      central_(spec_.queue_policy, spec_.overload, spec_.tenant),
      status_(spec_.worker_count, spec_.outstanding_per_worker),
      slice_(sim, spec_.time_slice, spec_.preemption_enabled,
             spec_.worker_count, *this),
      adaptive_k_(spec_.overload, spec_.worker_count,
                  spec_.outstanding_per_worker),
      reliable_(sim, spec_.reliability, status_,
                spec_.overload.enabled && spec_.overload.adaptive_k_enabled
                    ? &adaptive_k_
                    : nullptr,
                "rain",
                {[this](std::size_t worker,
                        const proto::RequestDescriptor& descriptor,
                        std::uint64_t seq) {
                   post_run_queue_entry(worker, descriptor, seq);
                 },
                 [this](proto::RequestDescriptor descriptor) {
                   central_.push_preempted(std::move(descriptor), sim_.now());
                 },
                 [this]() { scheduler_kick(); }}) {
  if (spec_.worker_count == 0) {
    throw std::invalid_argument("NicSchedServer: need >= 1 worker");
  }
  if (spec_.outstanding_per_worker == 0) {
    throw std::invalid_argument("NicSchedServer: K must be >= 1");
  }

  const std::uint32_t index = pf_index(cxl());
  pf_ = &nic_.add_interface("pf", net::MacAddress::from_index(index),
                            net::Ipv4Address::from_index(index));
  nic_.attach_to_switch(network, spec_.params.stingray_port_latency,
                        spec_.params.line_rate_gbps);

  ingress_pump_ = std::make_unique<PacketPump>(
      asic_, pf_->ring(0), spec_.params.asic_dispatch_cost,
      [this](net::Packet packet) { scheduler_handle(packet); });
  cq_.set_on_receive([this]() { scheduler_kick(); });

  for (std::size_t i = 0; i < spec_.worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
  }
}

NicSchedServer::~NicSchedServer() = default;

net::MacAddress NicSchedServer::ingress_mac() const { return pf_->mac(); }

net::Ipv4Address NicSchedServer::ingress_ip() const { return pf_->ip(); }

void NicSchedServer::scheduler_handle(const net::Packet& packet) {
  nic_ingress(
      sim_, {*pf_, kRequestPort, 0, "nic", requests_received_, malformed_},
      packet, central_, /*backlog=*/0,
      [this](std::uint64_t id) { central_.cancel(id); },
      [this](proto::RequestDescriptor descriptor) {
        central_.push_new(std::move(descriptor), sim_.now());
        scheduler_kick();
      });
}

void NicSchedServer::scheduler_kick() {
  if (pumping_) return;
  pumping_ = true;
  scheduler_step();
}

void NicSchedServer::scheduler_step() {
  if (!cq_.empty()) {
    asic_.run(spec_.params.asic_dispatch_cost, [this]() {
      auto bytes = cq_.poll();
      if (bytes) {
        const auto cqe = proto::RdmaCqEntry::parse(*bytes);
        if (cqe) {
          handle_cqe(*cqe);
        } else {
          ++malformed_;
        }
      }
      scheduler_step();
    });
    return;
  }
  if (!central_.empty() && status_.pick_least_loaded().has_value()) {
    // One decision plus one write: the ASIC posts it itself (over RDMA it
    // builds the WQE and rings the doorbell) — no D2 frame-construction core.
    asic_.run(spec_.params.asic_dispatch_cost + post_cost(link_), [this]() {
      const auto worker = status_.pick_least_loaded();
      if (worker) {
        sim::Duration queue_delay = sim::Duration::zero();
        auto descriptor = central_.pop(sim_.now(), queue_delay);
        if (descriptor) {
          descriptor->queue_depth =
              static_cast<std::uint32_t>(central_.depth());
          status_.note_sent(*worker, sim_.now());
          sim_.trace(sim::TraceCategory::kDispatch, [&] {
            return std::pair{name(),
                             "dispatch " +
                                 std::to_string(descriptor->request_id) +
                                 " -> worker" + std::to_string(*worker)};
          });
          if (sim_.span_enabled()) {
            obs::end_span(sim_, descriptor->request_id,
                          descriptor->preempt_count > 0
                              ? obs::SpanKind::kRequeue
                              : obs::SpanKind::kDispatchQueue,
                          1);
            obs::begin_span(sim_, descriptor->request_id,
                            obs::SpanKind::kDispatch, 1);
          }
          if (spec_.load_feedback) {
            workers_[*worker]->push_pending_sojourn(queue_delay);
          }
          const std::uint64_t seq = next_seq_++;
          if (reliable()) reliable_.track(*descriptor, *worker, seq);
          post_run_queue_entry(*worker, *descriptor, seq);
        }
      }
      scheduler_step();
    });
    return;
  }
  pumping_ = false;
}

void NicSchedServer::handle_cqe(const proto::RdmaCqEntry& cqe) {
  const auto worker = static_cast<std::size_t>(cqe.worker_id);
  if (worker >= spec_.worker_count) {
    ++malformed_;
    return;
  }
  if (reliable()) reliable_.note_alive(worker);
  const std::uint64_t id = cqe.descriptor.request_id;
  switch (cqe.cq_kind) {
    case proto::RdmaCqKind::kStarted:
      slice_.start(worker, id);
      // The kStarted CQE plays the dispatch-ack role.
      if (reliable()) reliable_.ack(worker, cqe.seq);
      break;
    case proto::RdmaCqKind::kCompleted:
      if (reliable() && !reliable_.retire(worker, id, true)) break;
      status_.note_retired(worker, sim_.now());
      if (slice_.token(worker) == id) slice_.stop(worker);
      if (spec_.overload.enabled && spec_.overload.adaptive_k_enabled &&
          cqe.has_sojourn) {
        fold_sojourn(worker, sim::Duration::picos(
                                 static_cast<std::int64_t>(cqe.sojourn_ps)));
      }
      break;
    case proto::RdmaCqKind::kPreempted:
      if (reliable() && !reliable_.retire(worker, id, false)) break;
      status_.note_retired(worker, sim_.now());
      if (slice_.token(worker) == id) slice_.stop(worker);
      central_.push_preempted(cqe.descriptor, sim_.now());
      break;
  }
}

void NicSchedServer::fold_sojourn(std::size_t worker, sim::Duration sojourn) {
  if (spec_.feedback_staleness.is_zero()) {
    status_.set_capacity(worker, static_cast<std::uint32_t>(
                                     adaptive_k_.observe_sojourn(worker,
                                                                 sojourn)));
  } else {
    sim_.after(spec_.feedback_staleness, [this, worker, sojourn]() {
      status_.set_capacity(worker, static_cast<std::uint32_t>(
                                       adaptive_k_.observe_sojourn(worker,
                                                                   sojourn)));
    });
  }
}

void NicSchedServer::send_preempt(std::size_t worker) {
  asic_.run(spec_.params.asic_dispatch_cost,
            [this, worker]() { workers_[worker]->interrupt(); });
}

void NicSchedServer::post_run_queue_entry(
    std::size_t worker, const proto::RequestDescriptor& descriptor,
    std::uint64_t seq) {
  proto::RdmaRunQueueEntry entry;
  entry.seq = seq;
  entry.descriptor = descriptor;
  auto& scratch = proto::serialization_scratch();
  entry.serialize_into(scratch);
  workers_[worker]->rq().post_write(scratch);
}

// ----------------------------------------------------- fault::FaultSurface

void NicSchedServer::inject_dispatch_loss(double probability,
                                          std::uint64_t /*seed*/) {
  // Dispatch is a write into worker run-queues (one-sided RDMA or coherent
  // CXL) — a reliable transport with no loss hook. A schedule asking for
  // dispatch loss here is asking for a fault this fabric cannot express:
  // count the attempt (ReliabilityStats::loss_injections_ignored) and warn
  // once, so the injection doesn't silently vanish. Restores (probability
  // <= 0, the close of a loss window) are not attempts and stay silent.
  if (probability <= 0.0) return;
  ++reliable_.stats().loss_injections_ignored;
  if (!warned_dispatch_loss_) {
    warned_dispatch_loss_ = true;
    std::fprintf(stderr,
                 "nicsched: %s: ignoring dispatch-loss injection "
                 "(write-based dispatch has no loss hook)\n",
                 name().c_str());
  }
}

hw::CpuCore& NicSchedServer::worker_core(std::uint32_t worker) {
  return workers_[worker]->core();
}

std::uint64_t NicSchedServer::drops() const {
  return nic_.rx_unknown_mac_drops() + malformed_ +
         pf_->ring(0).stats().dropped;
}

ServerStats NicSchedServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  stats.requests_received = requests_received_;
  for (const auto& worker : workers_) worker->counters().add_to(stats, elapsed);
  stats.drops = drops();
  stats.reliability = reliable_.stats();
  central_.add_to(stats);
  stats.overload.k_shrinks = adaptive_k_.shrinks();
  stats.overload.k_restores = adaptive_k_.restores();
  return stats;
}

ServerTelemetry NicSchedServer::telemetry() const {
  ServerTelemetry t;
  central_.add_to(t);
  t.outstanding = status_.total_outstanding();
  t.drops = drops();
  t.retransmits = reliable_.stats().retransmits;
  t.abandoned = reliable_.stats().abandoned;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->counters().add_to(t);
    t.worker_capacity.push_back(status_.entry(i).capacity);
  }
  return t;
}

}  // namespace nicsched::core
