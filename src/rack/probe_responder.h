// The host-side half of the ToR's health probing: a tiny packet sink parked
// at a reserved MAC/IP on each host's local fabric that reflects every
// `kHealthProbe` frame back as a `kHealthProbeAck`.
//
// The responder deliberately lives on the host *switch*, not inside the
// server: it models the NIC's management path answering from firmware, so a
// host whose worker cores are wedged (or whose server queues are saturated)
// still acks probes — only a crashed host or a severed link goes silent.
// That is exactly the distinction the ToR's two detectors need: feedback
// silence catches a slow/overloaded host, an unanswered probe catches a dead
// one.
//
// The reply reuses the probe's own addressing mirrored (src↔dst), so it
// default-routes up the host switch's uplink to the ToR like any other
// unknown-unicast frame. Echoing the probe's `seq` and `host` fields lets
// the ToR match the ack against the specific probe (and host incarnation)
// it sent. The responder draws no randomness and keeps no state, so
// attaching it perturbs nothing when failover is off — `ClusterBuilder`
// only wires it up when `TorParams::failover` is set.
#pragma once

#include <utility>

#include "net/packet.h"
#include "net/udp.h"
#include "net/wire.h"
#include "proto/messages.h"

namespace nicsched::rack {

/// Reflects `kHealthProbe` → `kHealthProbeAck` into `reply_sink` (the host
/// switch's ingress, whence the ack default-routes up to the ToR). Anything
/// that is not a well-formed probe is dropped silently.
class ProbeResponder final : public net::PacketSink {
 public:
  explicit ProbeResponder(net::PacketSink& reply_sink)
      : reply_sink_(reply_sink) {}

  void deliver(net::Packet packet) override {
    const auto view = net::parse_udp_datagram(packet);
    if (!view) return;
    if (proto::peek_type(view->payload) !=
        proto::MessageType::kHealthProbe) {
      return;
    }
    const auto probe = proto::ProbeMessage::parse(
        view->payload, proto::MessageType::kHealthProbe);
    if (!probe) return;

    proto::ProbeMessage ack;
    ack.seq = probe->seq;
    ack.host = probe->host;

    net::DatagramAddress address;
    address.src_mac = view->eth.dst;
    address.dst_mac = view->eth.src;
    address.src_ip = view->ip.dst;
    address.dst_ip = view->ip.src;
    address.src_port = view->udp.dst_port;
    address.dst_port = view->udp.src_port;
    auto& scratch = proto::serialization_scratch();
    ack.serialize_into(proto::MessageType::kHealthProbeAck, scratch);
    reply_sink_.deliver(net::make_udp_datagram(address, scratch));
  }

 private:
  net::PacketSink& reply_sink_;
};

}  // namespace nicsched::rack
