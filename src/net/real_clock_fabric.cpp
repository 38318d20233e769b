#include "net/real_clock_fabric.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace paso::net {

RealClockFabric::RealClockFabric(CostModel model, std::size_t n,
                                 Topology topology)
    : model_(model),
      topology_(topology.resolve(n, model)),
      shards_(n),
      up_(n) {
  ledger_.ensure_machines(n);
  for (auto& up : up_) up.store(true, std::memory_order_relaxed);
}

void RealClockFabric::start_executor() {
  executor_ = std::make_unique<exec::ThreadedExecutor>(
      [this](exec::Executor::Action&& action, std::uint64_t ctx) {
        DomainLock lock(shards_, ctx);
        DomainScope scope(this, ctx);
        if (!stopping_.load(std::memory_order_relaxed)) action();
      },
      [this] { return context_mask(); });
}

bool RealClockFabric::begin_shutdown() {
  if (shut_down_) return false;
  shut_down_ = true;
  // Stop the timer loop first (joins its thread: no more timer actions).
  // Pending deliveries are then dropped without running — the protocol
  // objects they point into may be about to die.
  stopping_.store(true, std::memory_order_release);
  if (executor_) executor_->stop();
  return true;
}

void RealClockFabric::execute(std::uint32_t machine, Sealed& sealed) {
  DomainLock lock(shards_, sealed.domain);
  DomainScope scope(this, sealed.domain);
  if (!stopping_.load(std::memory_order_relaxed) &&
      up_[machine].load(std::memory_order_acquire)) {
    sealed.fn();
  }
  sealed.fn = nullptr;
}

void RealClockFabric::set_up(MachineId machine, bool up) {
  PASO_REQUIRE(machine.value < up_.size(), "unknown machine");
  up_[machine.value].store(up, std::memory_order_release);
}

bool RealClockFabric::is_up(MachineId machine) const {
  PASO_REQUIRE(machine.value < up_.size(), "unknown machine");
  return up_[machine.value].load(std::memory_order_acquire);
}

void RealClockFabric::run_exclusive(const std::function<void()>& fn) {
  DomainLock lock(shards_, kGlobalDomain);
  DomainScope scope(this, kGlobalDomain);
  fn();
}

void RealClockFabric::run_scoped(std::uint64_t domain,
                                 const std::function<void()>& fn) {
  DomainLock lock(shards_, domain);
  DomainScope scope(this, domain);
  fn();
}

bool RealClockFabric::context_is_global() const {
  return context_mask() == kGlobalDomain;
}

void RealClockFabric::defer_exclusive(std::function<void()> fn) {
  // Re-run `fn` outside the current (narrow) domain: hand it to the timer
  // thread with a forced-global context, so the runner takes every shard.
  // The scheduling context must be global for the capture hook to record
  // kGlobalDomain — force it via TLS for the duration of the schedule call.
  DomainScope scope(this, kGlobalDomain);
  executor_->schedule_after(0, std::move(fn));
}

void RealClockFabric::with_global_context(const std::function<void()>& fn) {
  // No locks taken: the caller already holds its domain's shards. This only
  // widens the *advertised* context so nested sends capture the global
  // domain (used for cross-domain notification hops whose downstream
  // chains cannot be bounded by the current domain).
  DomainScope scope(this, kGlobalDomain);
  fn();
}

void RealClockFabric::send(MachineId from, MachineId to,
                           const std::string& tag, std::size_t bytes,
                           Delivery deliver) {
  PASO_REQUIRE(from.value < up_.size() && to.value < up_.size(),
               "unknown machine");
  PASO_REQUIRE(deliver != nullptr, "null delivery");
  if (stopping_.load(std::memory_order_relaxed)) return;
  if (!is_up(from)) return;  // a crashed machine sends nothing

  // The delivery's domain: everything the sending execution may touch,
  // widened by the destination. The delivery can then observe (and extend)
  // exactly the state its cause could — domains only ever widen along a
  // causal chain.
  const DomainMask domain = context_mask() | domain_bit(to.value);

  if (from == to) {
    // Local hand-off: no transmission, no cost; runs on the timer thread
    // (under the stack shards of `domain`) as soon as possible — the
    // real-clock analogue of the simulator's schedule_after(0).
    DomainScope scope(this, domain);
    executor_->schedule_after(0, std::move(deliver));
    return;
  }

  const std::uint32_t sf = topology_.segment_of(from);
  const std::uint32_t st = topology_.segment_of(to);
  const bool crossing = sf != st;
  if (crossing) crossings_.fetch_add(1, std::memory_order_relaxed);
  const bool shed =
      !transmit(to, st, crossing, bytes, Sealed{std::move(deliver), domain});
  if (shed) bridge_shed_.fetch_add(1, std::memory_order_relaxed);
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  // Model-cost accounting, identical to the simulated bus. The ledger
  // serializes internally; the obs handles are only ever touched under the
  // global domain (context_mask() forces global whenever obs is installed).
  record_send(*this, tag, bytes, sf, st, charge(topology_, sf, st, bytes, shed),
              shed);
}

bool RealClockFabric::quiesce(const std::function<bool()>& done,
                              exec::Time timeout_us) {
  const exec::Time deadline = executor_->now() + timeout_us;
  int stable = 0;
  while (stable < 3) {
    // Quiet = nothing moving anywhere: no delivery in transit, no delivery
    // thread mid-batch, no executor action running, and an *empty* timer
    // queue. The last test is deliberately `== kNever`, not `> now()`:
    // protocol chains hop through future-due timers (processing costs,
    // install costs), and a poll landing between hops would otherwise call
    // the fabric idle mid-chain. Nothing in the stack schedules perpetual
    // timers while idle, so an empty queue is reachable; pathological
    // pollers (an unsatisfiable blocking read) hit the timeout instead.
    bool quiet = inflight_deliveries() == 0 && delivery_threads_idle() &&
                 !executor_->running_action() &&
                 executor_->next_due() == exec::kNever;
    if (quiet && done) {
      run_exclusive([&] { quiet = done(); });
    }
    stable = quiet ? stable + 1 : 0;
    if (executor_->now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

}  // namespace paso::net
