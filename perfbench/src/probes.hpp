// Probes the benchmark attaches to the PASO stack from outside.
//
// Nothing here reaches into the library's internals: the storage layer is
// observed through an ObjectStore decorator installed with
// ClusterConfig::store_factory, and client operations are wrapped in spans
// by the workload loops themselves. Spans live in per-thread buffers (store
// calls run on the threaded transport's worker threads) and are merged only
// after the run, when every thread that wrote them is quiet.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/object_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> sample, double q);
inline double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}

// --- spans -------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kOp,        ///< one client operation, issue to completion
  kFind,      ///< ObjectStore::find
  kUpdate,    ///< ObjectStore::store / remove / erase
  kSnapshot,  ///< ObjectStore::snapshot (state-transfer donor side)
  kLoad,      ///< ObjectStore::load (state-transfer joiner side)
};

const char* span_kind_name(SpanKind kind);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< enclosing op span on the same thread, or 0
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::kOp;
};

/// Process-wide span recorder. Off by default; recording is switched on
/// only for the traced phase of a --trace 1 run.
class Tracer {
 public:
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Open a client-op span on the calling thread; store calls made on this
  /// thread until end_op() become its children.
  static void begin_op();
  static void end_op();
  static void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns);
  /// Criterion probes counted by the decorator on the calling thread.
  static void add_probes(std::uint64_t n);

  /// All spans and the probe total so far. Call only when no thread is
  /// recording (after the phase has drained).
  static std::vector<Span> collect();
  static std::uint64_t probes();
  static void clear();
  /// Write every span as CSV (id,parent,kind,start_ns,end_ns).
  static bool write_csv(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// ObjectStore decorator: forwards every call unchanged (model costs and
/// probe counts included) and, while the tracer is on, records one span per
/// call plus the criterion probes the call made.
class TimingStore final : public paso::storage::ObjectStore {
 public:
  explicit TimingStore(std::unique_ptr<paso::storage::ObjectStore> inner)
      : inner_(std::move(inner)) {}

  void store(paso::PasoObject object, std::uint64_t age) override;
  std::optional<paso::PasoObject> find(
      const paso::SearchCriterion& sc) const override;
  std::optional<paso::PasoObject> remove(
      const paso::SearchCriterion& sc) override;
  bool erase(paso::ObjectId id) override;
  std::size_t size() const override { return inner_->size(); }
  std::size_t state_bytes() const override { return inner_->state_bytes(); }
  std::vector<paso::storage::StoredObject> snapshot() const override;
  void load(const std::vector<paso::storage::StoredObject>& objects) override;
  void clear() override { inner_->clear(); }
  paso::Cost insert_cost() const override { return inner_->insert_cost(); }
  paso::Cost query_cost() const override { return inner_->query_cost(); }
  paso::Cost remove_cost() const override { return inner_->remove_cost(); }
  std::uint64_t match_probes() const override {
    return inner_->match_probes();
  }
  const char* kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<paso::storage::ObjectStore> inner_;
};

// --- process and host counters ----------------------------------------------

/// Restrict the calling thread, and every thread it creates later, to the
/// last `n` CPUs it may run on (CPU 0 takes most device interrupts).
/// Returns how many CPUs it is left with.
std::size_t pin_to_cpus(std::size_t n);

struct Rusage {
  double cpu_us = 0;              ///< user + system
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary
  double max_rss_mb = 0;
};
Rusage rusage_self();

/// Aggregate CPU jiffies from /proc/stat; steal share over an interval.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes cpu_times();
double steal_pct(const CpuTimes& before, const CpuTimes& after);

}  // namespace perfbench
