#include "net/topology.hpp"

#include <utility>

namespace paso::net {

Topology::Topology(std::vector<Segment> segments,
                   std::vector<std::uint32_t> machine_segment,
                   Cost bridge_alpha, Cost bridge_beta)
    : segments_(std::move(segments)),
      machine_segment_(std::move(machine_segment)),
      bridge_alpha_(bridge_alpha),
      bridge_beta_(bridge_beta) {
  PASO_REQUIRE(!segments_.empty(), "topology needs at least one segment");
  PASO_REQUIRE(bridge_alpha_ >= 0 && bridge_beta_ >= 0,
               "negative bridge cost");
  for (const std::uint32_t s : machine_segment_) {
    PASO_REQUIRE(s < segments_.size(), "machine assigned to unknown segment");
  }
}

Topology Topology::even(std::size_t segment_count, std::size_t machines,
                        CostModel model, Cost bridge_alpha, Cost bridge_beta) {
  PASO_REQUIRE(segment_count >= 1, "topology needs at least one segment");
  PASO_REQUIRE(machines >= segment_count,
               "fewer machines than segments");
  std::vector<Segment> segments(segment_count, Segment{model});
  std::vector<std::uint32_t> assignment(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    // Contiguous blocks: machine m lands on floor(m * segments / machines),
    // so ids stay clustered by segment (matches how basic support spreads).
    assignment[m] = static_cast<std::uint32_t>(m * segment_count / machines);
  }
  return Topology(std::move(segments), std::move(assignment), bridge_alpha,
                  bridge_beta);
}

const CostModel& Topology::segment_model(std::uint32_t segment) const {
  PASO_REQUIRE(!degenerate(), "degenerate topology has no explicit model");
  PASO_REQUIRE(segment < segments_.size(), "unknown segment");
  return segments_[segment].model;
}

Cost Topology::message_cost(MachineId from, MachineId to,
                            std::size_t bytes) const {
  if (from == to) return 0;
  PASO_REQUIRE(!degenerate(),
               "message_cost needs a resolved topology (see resolve())");
  return charge(*this, segment_of(from), segment_of(to), bytes,
                /*shed=*/false)
      .cost;
}

Topology Topology::resolve(std::size_t machines,
                           const CostModel& default_model) const {
  if (degenerate()) {
    Topology resolved({Segment{default_model}},
                      std::vector<std::uint32_t>(machines, 0), 0, 0);
    resolved.bridge_capacity_ = bridge_capacity_;
    resolved.bridge_policy_ = bridge_policy_;
    return resolved;
  }
  PASO_REQUIRE(machine_segment_.size() == machines,
               "topology machine map does not match the machine count");
  return *this;
}

Charge charge(const Topology& topology, std::uint32_t src_seg,
              std::uint32_t dst_seg, std::size_t bytes, bool shed) {
  const CostModel& src = topology.segment_model(src_seg);
  Charge c;
  c.src = src.message(bytes);
  if (src_seg == dst_seg) {
    c.cost = c.src;
    c.alpha = src.alpha;
    return c;
  }
  c.hops = src_seg < dst_seg ? dst_seg - src_seg : src_seg - dst_seg;
  const Cost hops = static_cast<Cost>(c.hops);
  c.bridge = hops * topology.bridge_cost(bytes);
  if (shed) {
    c.cost = c.src + c.bridge;
    c.alpha = src.alpha + hops * topology.bridge_alpha();
    return c;
  }
  const CostModel& dst = topology.segment_model(dst_seg);
  c.dst = dst.message(bytes);
  c.cost = c.src + c.bridge + c.dst;
  c.alpha = src.alpha + dst.alpha + hops * topology.bridge_alpha();
  return c;
}

}  // namespace paso::net
