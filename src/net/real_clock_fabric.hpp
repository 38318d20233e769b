// RealClockFabric: the half of a real-clock transport that is not its wire.
//
// ThreadedTransport (worker threads over SPSC rings) and SocketTransport
// (machine processes over TCP) differ only in how a transmission travels and
// which threads run its delivery. Everything else lives here, once:
//
//   * the model, resolved topology, CostLedger, obs handle and machine
//     up/down flags;
//   * the machine-sharded stack lock (net/shard.hpp) and the ambient-domain
//     plumbing built on it: run_exclusive, run_scoped, defer_exclusive,
//     with_global_context, context_is_global;
//   * the ThreadedExecutor, whose runner holds a timer action's captured
//     domain while it runs (start_executor), and `execute`, which does the
//     same for a delivery;
//   * the send prologue — checks, the down-sender drop, the delivery's
//     domain, the free self-send hand-off — and the cost charge after the
//     hop (net::charge + record_send), so every real-clock send is priced
//     exactly like a simulated one;
//   * the transmission counters and the quiesce loop.
//
// A transport supplies two hooks: `transmit` moves one sealed delivery
// toward its destination, or refuses a crossing at a full bounded bridge
// (which the base then charges as shed), and `delivery_threads_idle` says
// that no delivery thread is mid-batch. docs/threading.md has the
// concurrency contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/threaded_executor.hpp"
#include "net/shard.hpp"
#include "net/transport.hpp"

namespace paso::net {

class RealClockFabric : public Transport {
 public:
  RealClockFabric(const RealClockFabric&) = delete;
  RealClockFabric& operator=(const RealClockFabric&) = delete;

  // --- Transport -------------------------------------------------------------
  void send(MachineId from, MachineId to, const std::string& tag,
            std::size_t bytes, Delivery deliver) override;
  void set_up(MachineId machine, bool up) override;
  bool is_up(MachineId machine) const override;
  std::size_t machine_count() const override { return up_.size(); }
  const CostModel& cost_model() const override { return model_; }
  const Topology& topology() const override { return topology_; }
  CostLedger& ledger() override { return ledger_; }
  const CostLedger& ledger() const override { return ledger_; }
  exec::Executor& executor() override { return *executor_; }
  const exec::Executor& executor() const override { return *executor_; }
  /// Install before traffic starts (the Cluster does it at construction):
  /// the handle is read on the send path without further synchronization.
  void set_obs(obs::Obs o) override { obs_ = o; }
  obs::Obs observability() const override { return obs_; }
  void run_exclusive(const std::function<void()>& fn) override;
  void run_scoped(std::uint64_t domain,
                  const std::function<void()>& fn) override;
  bool context_is_global() const override;
  void defer_exclusive(std::function<void()> fn) override;
  void with_global_context(const std::function<void()>& fn) override;

  // --- fabric observers (atomic counters, readable without the stack lock) --
  /// Deliveries sent but not yet executed.
  std::uint64_t inflight_deliveries() const {
    return inflight_.load(std::memory_order_acquire);
  }
  std::uint64_t messages() const {
    return messages_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_sent() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t crossings() const {
    return crossings_.load(std::memory_order_relaxed);
  }
  /// Crossings shed at a full bounded bridge ingress. Both BridgePolicy
  /// values shed on a real clock: the sender holds the stack shards the
  /// delivery needs, so blocking for room would deadlock the fabric.
  std::uint64_t bridge_shed() const {
    return bridge_shed_.load(std::memory_order_relaxed);
  }
  const exec::ThreadedExecutor& threaded_executor() const {
    return *executor_;
  }

  /// Block until the fabric is quiet: no deliveries in flight, no delivery
  /// thread mid-batch, no timer action running or pending (the timer queue
  /// must drain completely — protocol chains hop through future-due timers,
  /// so "due later" still means "busy"), and `done` (checked under the
  /// stack lock; may be null) true — stable across three polls. Returns
  /// false on timeout (e.g. an unsatisfiable polling blocking read).
  bool quiesce(const std::function<bool()>& done = {},
               exec::Time timeout_us = 30'000'000);

 protected:
  /// One delivery plus the domain its execution must hold: the sender's
  /// ambient domain widened by the destination's shard.
  struct Sealed {
    Delivery fn;
    DomainMask domain = kGlobalDomain;
  };

  RealClockFabric(CostModel model, std::size_t n, Topology topology);

  /// Create the executor (and so its timer thread). Its runner holds the
  /// shards of the domain captured when each action was scheduled, so timer
  /// chains inherit their root execution's domain.
  void start_executor();
  /// Flip `stopping_` and join the timer thread. Returns false when the
  /// fabric was already shut down (shutdown stays idempotent).
  bool begin_shutdown();
  /// Run a delivery bound for `machine` under its domain's shards — unless
  /// the fabric is stopping or the machine is down at execution time, the
  /// simulated bus's delivery-time crash drop — and destroy the closure
  /// under the same shards.
  void execute(std::uint32_t machine, Sealed& sealed);
  /// The calling thread's ambient domain on THIS transport (global for
  /// foreign threads). Observability forces global: the tracer's ambient op
  /// context is inherently single-threaded.
  DomainMask context_mask() const {
    if (obs_.enabled()) return kGlobalDomain;
    const DomainContext& c = tls_domain();
    return c.owner == this ? c.mask : kGlobalDomain;
  }

  /// Move `sealed` toward `to` on segment `dst_segment`. `crossing` marks
  /// a bridged transmission; returns false when a bounded bridge ingress is
  /// full and the crossing is shed (the delivery is dropped).
  virtual bool transmit(MachineId to, std::uint32_t dst_segment,
                        bool crossing, std::size_t bytes, Sealed sealed) = 0;
  /// True when no delivery thread is executing or holding popped
  /// deliveries.
  virtual bool delivery_threads_idle() const = 0;

  CostModel model_;
  Topology topology_;
  CostLedger ledger_;
  obs::Obs obs_;

  /// THE stack lock, sharded per machine: every protocol step (issue,
  /// delivery, timer) holds the shards of its domain, ascending.
  ShardedStackLock shards_;
  std::vector<std::atomic<bool>> up_;
  std::unique_ptr<exec::ThreadedExecutor> executor_;

  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> crossings_{0};
  std::atomic<std::uint64_t> bridge_shed_{0};
};

}  // namespace paso::net
