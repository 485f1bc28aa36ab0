// Store-and-forward packet routing under the 1-port model — the empirical
// simulation the paper lists as future work ("do some simulations and
// empirical analysis for the proposed algorithms").
//
// Every node injects at most one packet with a precomputed path (shortest
// paths from the topology's router). Each cycle a node may forward one
// queued packet to its next hop and accept one arriving packet; contention
// is resolved deterministically (oldest packet first, then lowest origin),
// losers wait in the FIFO. The machine still validates every transfer, so
// the simulation cannot cheat the port model.
//
// Reported metrics: cycles to drain, maximum queue occupancy (a congestion
// measure), total hops, average packet latency, and the packets a degraded
// machine dropped on the way.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "sim/machine.hpp"
#include "topology/topology.hpp"

namespace dc::sim {

/// One packet: origin plus the remaining path (front = current node).
struct Packet {
  net::NodeId origin = 0;
  std::vector<net::NodeId> path;
  std::uint64_t injected_at = 0;
  std::uint64_t arrived_at = 0;
};

struct RoutingReport {
  std::uint64_t cycles = 0;         ///< cycles until every packet arrived
  std::uint64_t total_hops = 0;     ///< sum of path lengths actually walked
  std::uint64_t max_queue = 0;      ///< peak per-node queue occupancy
  double avg_latency = 0.0;         ///< mean arrival cycle over packets
  std::uint64_t packets = 0;
  std::uint64_t lost = 0;           ///< packets whose hop the machine dropped
};

/// Drains an arbitrary packet list to their destinations. Generic over the
/// packet type so fault-tolerant collectives can ship payload-carrying
/// packets through the same validated store-and-forward machinery; PacketT
/// must expose Packet's `path` / `arrived_at` members. Each packet's path
/// must be a walk (validated by the machine hop by hop); packets that
/// start at their destination are delivered at cycle 0. `on_arrive(p,
/// cycle)` is invoked once per packet, when it reaches the back of its
/// path. A hop the machine drops (a kDegrade fault filter) loses its
/// packet: the drain counts it in `lost`, never calls on_arrive for it and
/// stops waiting for it, so it always terminates.
template <typename PacketT, typename OnArrive>
RoutingReport drain_packet_list(Machine& m, std::vector<PacketT> packets,
                                OnArrive&& on_arrive) {
  const std::size_t n = m.node_count();
  std::vector<std::deque<PacketT>> queue(n);
  RoutingReport report;
  std::uint64_t in_flight = 0;
  double latency_sum = 0.0;

  for (auto& p : packets) {
    DC_REQUIRE(!p.path.empty() && p.path.front() < n, "bad packet path");
    ++report.packets;
    if (p.path.size() <= 1) {  // already home
      on_arrive(std::move(p), 0);
      continue;
    }
    report.total_hops += p.path.size() - 1;
    const net::NodeId at = p.path.front();
    queue[at].push_back(std::move(p));
    ++in_flight;
  }

  std::uint64_t cycle = 0;
  while (in_flight > 0) {
    ++cycle;
    // Occupancy is sampled at cycle start (includes freshly injected and
    // still-queued packets).
    for (net::NodeId u = 0; u < n; ++u)
      report.max_queue = std::max<std::uint64_t>(report.max_queue,
                                                 queue[u].size());
    // Pick, per node, the packet to forward; claim receive ports greedily
    // in deterministic node order (lowest sender label wins a contested
    // receiver — FIFO order within a node resolves local contention).
    std::vector<std::optional<std::size_t>> sending(n);  // index into queue[u]
    std::vector<std::uint8_t> rx_claimed(n, 0);
    std::uint64_t sent = 0;
    for (net::NodeId u = 0; u < n; ++u) {
      for (std::size_t i = 0; i < queue[u].size(); ++i) {
        const net::NodeId next = queue[u][i].path[1];
        if (rx_claimed[next]) continue;
        rx_claimed[next] = 1;
        sending[u] = i;
        ++sent;
        break;
      }
    }
    auto inbox = m.comm_cycle<PacketT>(
        [&](net::NodeId u) -> std::optional<Send<PacketT>> {
          if (!sending[u]) return std::nullopt;
          PacketT p = queue[u][*sending[u]];
          p.path.erase(p.path.begin());
          return Send<PacketT>{p.path.front(), std::move(p)};
        });
    for (net::NodeId u = 0; u < n; ++u) {
      if (sending[u]) {
        queue[u].erase(queue[u].begin() +
                       static_cast<std::ptrdiff_t>(*sending[u]));
      }
    }
    // Every claimed receiver got its packet unless the machine dropped it.
    std::uint64_t received = 0;
    for (net::NodeId u = 0; u < n; ++u) {
      if (!inbox[u]) continue;
      ++received;
      PacketT p = std::move(*inbox[u]);
      if (p.path.size() <= 1) {
        p.arrived_at = cycle;
        latency_sum += static_cast<double>(cycle);
        --in_flight;
        on_arrive(std::move(p), cycle);
      } else {
        queue[u].push_back(std::move(p));
      }
    }
    report.lost += sent - received;
    in_flight -= sent - received;
  }
  report.cycles = cycle;
  report.avg_latency =
      report.packets == 0 ? 0.0 : latency_sum / static_cast<double>(report.packets);
  return report;
}

/// The historical plain-Packet entry point (metric collection only).
inline RoutingReport route_packet_list(Machine& m, std::vector<Packet> packets) {
  return drain_packet_list(m, std::move(packets),
                           [](Packet&&, std::uint64_t) {});
}

/// Routes one packet per (src, dst) pair along `path_of(src, dst)` — the
/// permutation-routing experiment. `path_of` must return a walk from src to
/// dst including both endpoints.
template <typename PathFn>
RoutingReport route_packets(Machine& m,
                            const std::vector<net::NodeId>& destination,
                            PathFn&& path_of) {
  const std::size_t n = m.node_count();
  DC_REQUIRE(destination.size() == n, "one destination per node required");
  std::vector<Packet> packets;
  packets.reserve(n);
  for (net::NodeId u = 0; u < n; ++u) {
    DC_REQUIRE(destination[u] < n, "destination out of range");
    Packet p{u, path_of(u, destination[u]), 0, 0};
    DC_REQUIRE(p.path.front() == u && p.path.back() == destination[u],
               "path must run from source to destination");
    packets.push_back(std::move(p));
  }
  return route_packet_list(m, std::move(packets));
}

}  // namespace dc::sim
