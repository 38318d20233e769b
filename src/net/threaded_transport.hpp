// Real-clock threaded Transport: the "as fast as the hardware allows" bus.
// The shared real-clock half (stack shards, send prologue and cost charge,
// executor runner, quiesce) is net::RealClockFabric; this file is the wire.
//
// One worker thread per machine consumes bounded lock-free SPSC delivery
// rings — one ring per (segment, machine) pair — and a per-segment transmit
// token (spinlock) serializes senders on each segment, preserving the bus's
// one-message-at-a-time semantics without simulating transmission delay:
// the clock is std::chrono::steady_clock (via exec::ThreadedExecutor), and
// a message is delivered as soon as its ring hop and the destination worker
// allow.
//
// Model-cost accounting is unchanged: every transmission is charged
// alpha + beta*|m| (plus bridge hops) to the CostLedger exactly like the
// simulated bus, so a threaded run's model costs reconcile against a
// simulated replay of the same op trace (tools/trace_diff asserts this).
//
// Concurrency contract (the full memory-order story is docs/threading.md):
//   * ALL protocol execution — client issues, deliveries, timer callbacks —
//     runs under the machine-sharded stack lock (net/shard.hpp): every
//     execution holds the shards of its *domain*, the set of machines it
//     may touch, acquired in ascending order. Executions with overlapping
//     domains are mutually excluded (so shared records stay race-free: any
//     two executions touching a group's record both hold its write group's
//     shards); executions over disjoint machines run concurrently.
//     `run_exclusive` takes every shard — the global domain.
//   * A delivery runs under domain(sender) | bit(destination), captured at
//     send time; timer actions run under the domain of the context that
//     scheduled them. A delivery therefore observes everything the send
//     that caused it observed.
//   * The transport fabric itself is concurrent: ring push/pop are
//     lock-free, the transmit token is a spinlock held only for the push,
//     and workers drain rings outside the stack shards.
//   * A send never blocks: when a ring is full it spills to a small
//     mutex-guarded overflow queue drained by the same worker (FIFO order
//     per (segment, machine) is preserved because the worker empties the
//     overflow first while it is nonempty).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/real_clock_fabric.hpp"
#include "net/spsc_ring.hpp"

namespace paso::net {

struct ThreadedTransportOptions {
  /// Slots per (segment, machine) delivery ring (rounded up to a power of
  /// two; one slot is the full/empty sentinel).
  std::size_t ring_capacity = 1024;
};

class ThreadedTransport final : public RealClockFabric {
 public:
  ThreadedTransport(CostModel model, std::size_t n, Topology topology = {},
                    ThreadedTransportOptions options = {});
  ~ThreadedTransport() override;

  void shutdown() override;

  /// Sends that found their ring full and took the overflow path. The
  /// overflow lane is also this transport's bridge buffer: a bounded bridge
  /// (Topology::with_bridge_limit) sheds a crossing at a full lane.
  std::uint64_t overflowed() const {
    return overflowed_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> parked{false};
    std::atomic<bool> busy{false};
    // Overflow lane for full rings, one deque per source segment to keep
    // the per-(segment, machine) FIFO contract.
    std::mutex overflow_mu;
    std::vector<std::deque<Sealed>> overflow;
  };

  SpscRing<Sealed>& ring(std::uint32_t segment, std::uint32_t machine) {
    return *rings_[segment * machine_count() + machine];
  }
  /// Push onto the (dst_segment, to) ring, spilling to the overflow lane
  /// when full. A crossing over a bounded bridge is shed at a full lane.
  bool transmit(MachineId to, std::uint32_t dst_segment, bool crossing,
                std::size_t bytes, Sealed sealed) override;
  bool delivery_threads_idle() const override;
  void worker_loop(std::uint32_t machine);
  void wake(Worker& worker);

  ThreadedTransportOptions options_;
  /// Per-segment transmit token: the single-producer guarantee for each
  /// (segment, machine) ring — whoever holds segment s's token is the one
  /// producer for every ring (s, *).
  std::vector<std::unique_ptr<std::atomic_flag>> tokens_;
  std::vector<std::unique_ptr<SpscRing<Sealed>>> rings_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> overflowed_{0};
};

}  // namespace paso::net
