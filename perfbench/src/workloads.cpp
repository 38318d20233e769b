#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "net/shard.hpp"
#include "paso/cluster.hpp"
#include "probes.hpp"
#include "semantics/checker.hpp"
#include "storage/hash_store.hpp"
#include "storage/indexed_store.hpp"

namespace perfbench {
namespace {

using namespace paso;

constexpr std::size_t kMinRounds = 3;
/// Crash/recover cycles per phase (paso.recovery_ms is their median).
constexpr std::size_t kRecoveryCycles = 9;
/// Every client tuple carries a text of this length, so the reply to any
/// read has the same wire size whichever live tuple it returns.
constexpr std::size_t kTextLength = 16;
/// Probe cadence: one shard-wait / timer-lag sample every kProbeEveryOps
/// client ops (simulated transport) or every kProbePeriod (threaded).
constexpr std::size_t kProbeEveryOps = 64;
constexpr auto kProbePeriod = std::chrono::microseconds(500);
constexpr exec::Time kProbeTimerDelayUs = 50;
/// The machine whose shard and timers the probes sample: a support member
/// of two classes on every workload, and never a client machine.
constexpr MachineId kProbeMachine{1};
constexpr auto kWaitLimit = std::chrono::seconds(60);
/// Least share of the timed wall time the op spans of a single-client
/// workload must cover.
constexpr double kMinAccountedPct = 90;
/// Longest traced part of a --trace 1 run.
constexpr double kMaxTracedSeconds = 5;

Tuple tuple_of(std::int64_t key, const std::string& text) {
  return {Value{key}, Value{text}};
}

SearchCriterion by_key(std::int64_t key) {
  return criterion(Exact{Value{key}}, TypedAny{FieldType::kText});
}

/// True when `r` is exactly the tuple (key, text).
bool holds(const SearchResponse& r, std::int64_t key, const std::string& text) {
  return r && r->fields.size() == 2 &&
         std::get_if<std::int64_t>(&r->fields[0]) != nullptr &&
         std::get_if<std::string>(&r->fields[1]) != nullptr &&
         std::get<std::int64_t>(r->fields[0]) == key &&
         std::get<std::string>(r->fields[1]) == text;
}

std::string padded_text(const std::string& head, std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string text = head;
  text.append(kTextLength - head.size() - digits.size(), '0');
  return text + digits;
}

// --- completion and logging --------------------------------------------------

/// Counts completions of async operations; waits by pumping the simulator
/// (simulated transport) or on a condition variable (threaded).
class Countdown {
 public:
  explicit Countdown(std::size_t n) : left_(n) {}
  void done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--left_ == 0) cv_.notify_all();
  }
  bool finished() {
    std::lock_guard<std::mutex> lock(mu_);
    return left_ == 0;
  }
  void wait(Cluster& cluster) {
    if (cluster.transport_kind() == TransportKind::kSim) {
      cluster.simulator().run_while_pending([this] { return finished(); });
      if (!finished()) throw std::runtime_error("simulator drained early");
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, kWaitLimit, [this] { return left_ == 0; })) {
      throw std::runtime_error("operations did not complete in time");
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t left_;
};

/// One client thread's record of a phase.
struct OpLog {
  std::vector<double> insert_us;
  std::vector<double> read_us;
  std::vector<double> read_del_us;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<std::string> errors;

  /// Counts one attempted op; `what()` describes it if it went wrong.
  template <typename Describe>
  void check(bool good, const Describe& what) {
    ++attempted;
    if (good) {
      ++ok;
    } else if (errors.size() < 8) {
      errors.push_back(what());
    }
  }
  void merge(OpLog& other) {
    auto append = [](std::vector<double>& to, std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(insert_us, other.insert_us);
    append(read_us, other.read_us);
    append(read_del_us, other.read_del_us);
    attempted += other.attempted;
    ok += other.ok;
    for (std::string& e : other.errors) {
      if (errors.size() < 8) errors.push_back(std::move(e));
    }
  }
};

/// Runs `op` as one client operation: an op span around it and its wall
/// latency in microseconds.
template <typename F>
double timed_op(F&& op) {
  Tracer::begin_op();
  const std::int64_t start = now_ns();
  op();
  const double us = static_cast<double>(now_ns() - start) / 1e3;
  Tracer::end_op();
  return us;
}

// --- probes ------------------------------------------------------------------

struct ProbeSamples {
  std::mutex mu;
  std::vector<double> shard_wait_us;
  std::vector<double> timer_lag_us;
  std::vector<double> queue_depth;
};

/// One sample of each outside probe: how long taking the probe machine's
/// stack shard waits, how late a timer scheduled under that shard fires,
/// and how many timers are queued.
void probe_tick(Cluster& cluster, const std::shared_ptr<ProbeSamples>& s) {
  const bool sim = cluster.transport_kind() == TransportKind::kSim;
  // The simulator has no wall-clock due time; there the lag is the wall
  // time a zero-delay event waits behind the events queued before it.
  const exec::Time delay = sim ? 0 : kProbeTimerDelayUs;
  const std::int64_t asked = now_ns();
  std::int64_t entered = 0;
  cluster.transport().run_scoped(net::domain_bit(kProbeMachine.value), [&] {
    entered = now_ns();
    const std::int64_t due = entered + static_cast<std::int64_t>(delay * 1e3);
    cluster.transport().executor().schedule_after(delay, [s, due] {
      const double lag = static_cast<double>(now_ns() - due) / 1e3;
      std::lock_guard<std::mutex> lock(s->mu);
      s->timer_lag_us.push_back(lag);
    });
  });
  const double depth =
      sim ? static_cast<double>(cluster.simulator().pending())
          : static_cast<double>(
                cluster.threaded_transport().threaded_executor().pending());
  std::lock_guard<std::mutex> lock(s->mu);
  s->shard_wait_us.push_back(static_cast<double>(entered - asked) / 1e3);
  s->queue_depth.push_back(depth);
}

// --- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Schema schema() const = 0;
  virtual ClusterConfig config() const = 0;
  /// Support assignment and preload: the part of set-up the cluster's
  /// constructor does not do.
  virtual void prepare(Cluster& cluster) = 0;
  /// One round of the op program. Every round leaves the live set as it
  /// found it, so rounds replay exactly. `probes` is non-null only in the
  /// traced phase of a single-threaded workload.
  virtual void round(Cluster& cluster, OpLog& log,
                     const std::shared_ptr<ProbeSamples>& probes) = 0;
  virtual std::size_t clients() const = 0;
  /// Machines crashed and recovered, one per recovery cycle.
  virtual std::vector<MachineId> victims() const = 0;
  /// Set-ups per untraced run; setup_s is their median.
  virtual std::size_t setups() const = 0;
  /// False when batch composition, and with it the model counts, depends
  /// on real timing.
  virtual bool model_exact() const { return true; }

  /// Live objects per class between rounds.
  const std::vector<std::size_t>& expected_live() const {
    return expected_live_;
  }

 protected:
  /// Inserts `tuples` in chunks of concurrent async inserts.
  void preload(Cluster& cluster, const std::vector<Tuple>& tuples) {
    expected_live_.assign(cluster.schema().class_count(), 0);
    for (const Tuple& t : tuples) {
      ++expected_live_[cluster.schema().classify(t)->value];
    }
    constexpr std::size_t kChunk = 1024;
    const std::size_t n = cluster.machine_count();
    for (std::size_t begin = 0; begin < tuples.size(); begin += kChunk) {
      const std::size_t end = std::min(tuples.size(), begin + kChunk);
      auto left = std::make_shared<Countdown>(end - begin);
      cluster.transport().run_exclusive([&] {
        for (std::size_t i = begin; i < end; ++i) {
          const MachineId m{static_cast<std::uint32_t>(i % n)};
          cluster.runtime(m).insert(cluster.process(m), tuples[i],
                                    [left] { left->done(); });
        }
      });
      left->wait(cluster);
    }
    cluster.settle();
  }

 private:
  std::vector<std::size_t> expected_live_;
};

/// sim-query: storage and query planning on the deterministic simulator.
class SimQuery final : public Workload {
 public:
  static constexpr std::uint32_t kMachines = 8;
  static constexpr std::int64_t kLive = 262144;
  static constexpr std::size_t kRoundOps = 24576;
  static constexpr std::int64_t kRangeWidth = 100;
  static constexpr std::uint32_t kTopK = 3;

  explicit SimQuery(std::uint64_t seed) : schema_(schema()) {
    Rng rng(seed);
    texts_.reserve(kLive);
    class_of_.reserve(kLive);
    for (std::int64_t k = 0; k < kLive; ++k) {
      std::string head(3, 'a');
      for (char& c : head) c = static_cast<char>('a' + rng.uniform(0, 25));
      head += '-';
      texts_.push_back(padded_text(head, static_cast<std::uint64_t>(k)));
      class_of_.push_back(schema_.classify(tuple_of(k, texts_.back()))->value);
    }
    // The op mix: 40% exact reads, 10% each of range, prefix and top-k
    // reads, 30% updates alternating read&del(k) and re-insert of the same
    // tuple, so at most one key is absent at any time and the round ends
    // with the live set it started with.
    std::int64_t pooled = -1;
    auto live_key = [&] {
      const auto k = static_cast<std::int64_t>(rng.uniform(0, kLive - 1));
      return k == pooled ? (k + 1) % kLive : k;
    };
    auto range_lo = [&] {
      return static_cast<std::int64_t>(rng.uniform(0, kLive - kRangeWidth));
    };
    while (program_.size() < kRoundOps || pooled >= 0) {
      Op op;
      op.machine = static_cast<std::uint32_t>(rng.uniform(0, kMachines - 1));
      op.absent = pooled;
      const std::uint64_t roll = rng.uniform(0, 99);
      if (roll < 30 || program_.size() >= kRoundOps) {
        if (pooled < 0) {
          op.kind = Kind::kReadDel;
          op.key = live_key();
          pooled = op.key;
        } else {
          op.kind = Kind::kInsert;
          op.key = pooled;
          pooled = -1;
        }
      } else if (roll < 70) {
        op.kind = Kind::kExact;
        op.key = live_key();
      } else if (roll < 80) {
        op.kind = Kind::kRange;
        op.key = range_lo();
      } else if (roll < 90) {
        op.kind = Kind::kPrefix;
        op.key = live_key();
      } else {
        op.kind = Kind::kTopK;
        op.key = range_lo();
      }
      program_.push_back(op);
    }
  }

  Schema schema() const override {
    return Schema({ClassSpec{
        "rec", {FieldType::kInt, FieldType::kText}, 0, kMachines}});
  }

  ClusterConfig config() const override {
    ClusterConfig config;
    config.machines = kMachines;
    config.lambda = 1;
    config.transport = TransportKind::kSim;
    config.record_history = false;
    config.store_factory = [](ClassId) {
      return std::make_unique<storage::IndexedStore>(
          std::vector<std::size_t>{0, 1},
          storage::IndexedStore::Options{.ordered = true});
    };
    return config;
  }

  void prepare(Cluster& cluster) override {
    cluster.assign_basic_support();
    std::vector<Tuple> tuples;
    tuples.reserve(kLive);
    for (std::int64_t k = 0; k < kLive; ++k) {
      tuples.push_back(tuple_of(k, texts_[k]));
    }
    preload(cluster, tuples);
  }

  void round(Cluster& cluster, OpLog& log,
             const std::shared_ptr<ProbeSamples>& probes) override {
    for (std::size_t i = 0; i < program_.size(); ++i) {
      if (probes != nullptr && i % kProbeEveryOps == 0) {
        probe_tick(cluster, probes);
      }
      run_op(cluster, program_[i], log);
    }
  }

  std::size_t clients() const override { return 1; }
  std::vector<MachineId> victims() const override {
    return {MachineId{1}, MachineId{3}, MachineId{5}, MachineId{7},
            MachineId{2}};
  }
  std::size_t setups() const override { return 5; }

 private:
  enum class Kind { kExact, kRange, kPrefix, kTopK, kInsert, kReadDel };
  struct Op {
    Kind kind = Kind::kExact;
    std::uint32_t machine = 0;
    std::int64_t key = 0;      ///< the key, or a range's low end
    std::int64_t absent = -1;  ///< the one key not live at issue, or -1
  };

  /// The returned tuple is live, carries its key's text and satisfies
  /// the range [lo, lo + kRangeWidth).
  bool live_in_range(const SearchResponse& r, const Op& op) const {
    if (!r || r->fields.size() != 2) return false;
    const auto* key = std::get_if<std::int64_t>(&r->fields[0]);
    if (key == nullptr || *key < op.key || *key >= op.key + kRangeWidth ||
        *key == op.absent) {
      return false;
    }
    return holds(r, *key, texts_[*key]);
  }

  /// Top-k is ranked within the class that answers: the result must be the
  /// k-th largest live key of the range in its own class.
  bool is_kth_of_its_class(const SearchResponse& r, const Op& op) const {
    if (!live_in_range(r, op)) return false;
    const auto got = std::get<std::int64_t>(r->fields[0]);
    std::uint32_t seen = 0;
    for (std::int64_t k = op.key + kRangeWidth - 1; k >= op.key; --k) {
      if (k == op.absent || class_of_[k] != class_of_[got]) continue;
      if (++seen == kTopK) return k == got;
    }
    return false;
  }

  void run_op(Cluster& cluster, const Op& op, OpLog& log) const {
    const ProcessId p = cluster.process(MachineId{op.machine});
    const std::string& text = texts_[op.key];
    SearchResponse r;
    switch (op.kind) {
      case Kind::kInsert: {
        bool ok = false;
        log.insert_us.push_back(timed_op(
            [&] { ok = cluster.insert_sync(p, tuple_of(op.key, text)); }));
        log.check(ok, [&] { return "insert " + std::to_string(op.key); });
        return;
      }
      case Kind::kReadDel:
        log.read_del_us.push_back(
            timed_op([&] { r = cluster.read_del_sync(p, by_key(op.key)); }));
        log.check(holds(r, op.key, text),
                  [&] { return "read&del " + std::to_string(op.key); });
        return;
      case Kind::kExact:
        log.read_us.push_back(
            timed_op([&] { r = cluster.read_sync(p, by_key(op.key)); }));
        log.check(holds(r, op.key, text),
                  [&] { return "read " + std::to_string(op.key); });
        return;
      case Kind::kRange:
        log.read_us.push_back(timed_op([&] {
          r = cluster.read_sync(
              p, criterion(IntRange{op.key, op.key + kRangeWidth - 1},
                           TypedAny{FieldType::kText}));
        }));
        log.check(live_in_range(r, op),
                  [&] { return "range read at " + std::to_string(op.key); });
        return;
      case Kind::kPrefix: {
        const std::string prefix = text.substr(0, 2);
        log.read_us.push_back(timed_op([&] {
          r = cluster.read_sync(
              p, criterion(TypedAny{FieldType::kInt}, TextPrefix{prefix}));
        }));
        bool good = r && r->fields.size() == 2 &&
                    std::get_if<std::int64_t>(&r->fields[0]) != nullptr;
        if (good) {
          const auto key = std::get<std::int64_t>(r->fields[0]);
          good = key >= 0 && key < kLive && key != op.absent &&
                 holds(r, key, texts_[key]) &&
                 texts_[key].compare(0, 2, prefix) == 0;
        }
        log.check(good, [&] { return "prefix read '" + prefix + "'"; });
        return;
      }
      case Kind::kTopK:
        log.read_us.push_back(timed_op([&] {
          r = cluster.read_sync(
              p, ranked(criterion(IntRange{op.key, op.key + kRangeWidth - 1},
                                  TypedAny{FieldType::kText}),
                        TopK{.field = 0, .k = kTopK, .descending = true}));
        }));
        log.check(is_kth_of_its_class(r, op),
                  [&] { return "top-k read at " + std::to_string(op.key); });
        return;
    }
  }

  Schema schema_;
  std::vector<std::string> texts_;
  std::vector<std::uint32_t> class_of_;
  std::vector<Op> program_;
};

/// threaded-batch: bursts of async robust inserts and read&dels through
/// the gcast batcher and a queueing admission gate. 4 machines, the class
/// hash-split into 4 partitions with basic support {p, p+1}, two client
/// threads on machines 0 and 2, and a small preload so recoveries move
/// some state.
class ThreadedBatch final : public Workload {
 public:
  static constexpr std::uint32_t kMachines = 4;
  static constexpr std::int64_t kPreload = 1024;
  /// Client keys stay below this; preloaded keys start at it.
  static constexpr std::int64_t kPreloadBase = std::int64_t{1} << 41;
  static constexpr std::size_t kBurst = 16;
  static constexpr std::size_t kBurstsPerClient = 128;

  explicit ThreadedBatch(std::uint64_t seed)
      : keys_(client_keys(seed, kBurst * kBurstsPerClient)) {}

  Schema schema() const override {
    return Schema({ClassSpec{
        "kv", {FieldType::kInt, FieldType::kText}, 0, kMachines}});
  }

  ClusterConfig config() const override {
    ClusterConfig config;
    config.machines = kMachines;
    config.lambda = 1;
    config.transport = TransportKind::kThreaded;
    config.record_history = false;
    config.runtime.batch_window = 50;  // microseconds on the threaded clock
    config.runtime.max_batch = kBurst;
    config.runtime.admission = AdmissionMode::kQueue;
    config.runtime.admission_limit = kBurst / 2;
    return config;
  }

  void prepare(Cluster& cluster) override {
    for (std::uint32_t p = 0; p < kMachines; ++p) {
      cluster.set_basic_support(
          ClassId{p}, {MachineId{p}, MachineId{(p + 1) % kMachines}});
    }
    cluster.assign_basic_support();
    std::vector<Tuple> tuples;
    for (std::int64_t i = 0; i < kPreload; ++i) {
      tuples.push_back(tuple_of(kPreloadBase + i, text_of(kPreloadBase + i)));
    }
    preload(cluster, tuples);
  }

  void round(Cluster& cluster, OpLog& log,
             const std::shared_ptr<ProbeSamples>&) override {
    std::vector<OpLog> logs(kClientMachines.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClientMachines.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          client(cluster, c, logs[c]);
        } catch (const std::exception& e) {
          logs[c].errors.push_back(std::string("client failed: ") + e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (OpLog& l : logs) log.merge(l);
  }

  std::size_t clients() const override { return kClientMachines.size(); }
  std::vector<MachineId> victims() const override {
    return {MachineId{1}, MachineId{3}};
  }
  std::size_t setups() const override { return 51; }
  bool model_exact() const override { return false; }

 private:
  static constexpr std::array<std::uint32_t, 2> kClientMachines{0, 2};

  struct Slot {
    std::int64_t issued_ns = 0;
    std::int64_t done_ns = 0;
    OpReport report;
  };

  /// `per_client` distinct fresh keys for each client, below kPreloadBase.
  static std::vector<std::vector<std::int64_t>> client_keys(
      std::uint64_t seed, std::size_t per_client) {
    Rng rng(seed);
    std::vector<std::vector<std::int64_t>> keys(kClientMachines.size());
    std::vector<std::int64_t> seen;
    for (auto& list : keys) {
      while (list.size() < per_client) {
        const auto k = static_cast<std::int64_t>(
            rng.uniform(0, static_cast<std::uint64_t>(kPreloadBase - 1)));
        if (std::find(seen.begin(), seen.end(), k) != seen.end()) continue;
        seen.push_back(k);
        list.push_back(k);
      }
    }
    return keys;
  }

  static std::string text_of(std::int64_t key) {
    return padded_text("v-", static_cast<std::uint64_t>(key) % 1000000007);
  }

  /// One client's round: each burst of inserts is followed by the
  /// read&dels of the burst before it, so every round ends with the live
  /// set it started with.
  void client(Cluster& cluster, std::size_t c, OpLog& log) const {
    const MachineId m{kClientMachines[c]};
    const std::vector<std::int64_t>& keys = keys_[c];
    for (std::size_t b = 0; b < kBurstsPerClient; ++b) {
      burst(cluster, m, keys, b, /*insert=*/true, log);
      if (b > 0) burst(cluster, m, keys, b - 1, /*insert=*/false, log);
    }
    burst(cluster, m, keys, kBurstsPerClient - 1, /*insert=*/false, log);
  }

  /// Issues one burst of kBurst async ops under the global domain and waits
  /// for every report.
  static void burst(Cluster& cluster, MachineId m,
                    const std::vector<std::int64_t>& keys, std::size_t b,
                    bool insert, OpLog& log) {
    auto slots = std::make_shared<std::vector<Slot>>(kBurst);
    auto left = std::make_shared<Countdown>(kBurst);
    PasoRuntime& rt = cluster.runtime(m);
    const ProcessId p = cluster.process(m);
    cluster.transport().run_exclusive([&] {
      for (std::size_t i = 0; i < kBurst; ++i) {
        const std::int64_t key = keys[b * kBurst + i];
        auto done = [slots, left, i](OpReport report) {
          (*slots)[i].done_ns = now_ns();
          (*slots)[i].report = std::move(report);
          left->done();
        };
        (*slots)[i].issued_ns = now_ns();
        if (insert) {
          rt.insert_robust(p, tuple_of(key, text_of(key)), done);
        } else {
          rt.read_del_robust(p, by_key(key), done);
        }
      }
    });
    left->wait(cluster);
    for (std::size_t i = 0; i < kBurst; ++i) {
      const Slot& s = (*slots)[i];
      const std::int64_t key = keys[b * kBurst + i];
      if (Tracer::enabled()) {
        Tracer::record(SpanKind::kOp, s.issued_ns, s.done_ns);
      }
      const double us = static_cast<double>(s.done_ns - s.issued_ns) / 1e3;
      const bool ok = s.report.status == OpStatus::kOk;
      if (insert) {
        log.insert_us.push_back(us);
        log.check(ok, [&] {
          return "insert_robust " + std::to_string(key) + ": " +
                 op_status_name(s.report.status);
        });
      } else {
        log.read_del_us.push_back(us);
        log.check(ok && holds(s.report.object, key, text_of(key)), [&] {
          return "read_del_robust " + std::to_string(key) + ": " +
                 op_status_name(s.report.status);
        });
      }
    }
  }

  std::vector<std::vector<std::int64_t>> keys_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sim-query") return std::make_unique<SimQuery>(seed);
  if (name == "threaded-batch") return std::make_unique<ThreadedBatch>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- counters and phases -----------------------------------------------------

/// Public counters of every layer, read at a quiescent point.
struct Counters {
  double msg_cost = 0;
  double work = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t gcasts = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t overflowed = 0;
  std::uint64_t parked = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_ops = 0;

  Counters operator-(const Counters& o) const {
    return {msg_cost - o.msg_cost,       work - o.work,
            messages - o.messages,       bytes - o.bytes,
            gcasts - o.gcasts,           retransmits - o.retransmits,
            sim_events - o.sim_events,   overflowed - o.overflowed,
            parked - o.parked,           batches - o.batches,
            batched_ops - o.batched_ops};
  }
};

Counters read_counters(Cluster& cluster) {
  Counters k;
  cluster.transport().run_exclusive([&] {
    k.msg_cost = cluster.ledger().total_msg_cost();
    k.work = cluster.ledger().total_work();
    for (const auto& [tag, stats] : cluster.ledger().per_tag()) {
      k.messages += stats.messages;
      k.bytes += stats.bytes;
    }
    k.gcasts = cluster.groups().gcasts_completed();
    k.retransmits = cluster.groups().retransmits();
    for (std::uint32_t m = 0; m < cluster.machine_count(); ++m) {
      PasoRuntime& rt = cluster.runtime(MachineId{m});
      k.parked += rt.admission_parked();
      k.batches += rt.batcher().batches();
      k.batched_ops += rt.batcher().batched_ops();
    }
  });
  k.sim_events = cluster.simulator().events_processed();
  if (cluster.transport_kind() == TransportKind::kThreaded) {
    k.overflowed = cluster.threaded_transport().overflowed();
  }
  return k;
}

/// Wall-clock figures of one timed round.
struct Round {
  double ops_per_sec = 0;
  double cpu_us_per_op = 0;
  double p50_us = 0;
  double insert_p50_us = 0;
  double read_del_p50_us = 0;
};

struct Phase {
  OpLog log;
  std::vector<Round> rounds;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Counters delta;
  std::uint64_t ctx_switches = 0;
  double steal_pct = 0;
  std::shared_ptr<ProbeSamples> probes;
  std::vector<double> recovery_ms;
  /// Peak RSS through set-up, warm-up and recoveries. Read before the timed
  /// rounds, whose dedup tables grow with the number of rounds run.
  double setup_rss_mb = 0;
  /// Criterion probes the traced store calls of the timed rounds made.
  std::uint64_t store_probes = 0;

  double per_op(double x) const {
    return log.attempted == 0 ? 0 : x / static_cast<double>(log.attempted);
  }
  std::vector<double> latencies() const {
    std::vector<double> all = log.insert_us;
    all.insert(all.end(), log.read_us.begin(), log.read_us.end());
    all.insert(all.end(), log.read_del_us.begin(), log.read_del_us.end());
    return all;
  }
  /// The best value of one round figure over the timed rounds: the highest
  /// when `higher`, else the lowest. Other tenants of the host slow some
  /// rounds and never speed one up, so the best round is the steadiest
  /// estimate of the program's own cost (see README.md, "Steadiness").
  double best(double Round::*figure, bool higher) const {
    double b = rounds.front().*figure;
    for (const Round& r : rounds) {
      b = higher ? std::max(b, r.*figure) : std::min(b, r.*figure);
    }
    return b;
  }
  std::vector<double> round_ops_per_sec() const {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.ops_per_sec);
    return v;
  }
};

/// Every write-group member of every class holds the expected live count,
/// and every group is back at full strength.
void check_replicas(Workload& w, Cluster& cluster,
                    std::vector<std::string>& errors) {
  cluster.settle();
  cluster.transport().run_exclusive([&] {
    for (std::uint32_t c = 0; c < cluster.schema().class_count(); ++c) {
      const ClassId cls{c};
      const vsync::View view =
          cluster.groups().view_of(cluster.schema().group_name(cls));
      if (view.size() != cluster.lambda() + 1) {
        errors.push_back("class " + std::to_string(c) + " has " +
                         std::to_string(view.size()) + " write-group members");
      }
      for (const MachineId m : view.members) {
        const std::size_t live = cluster.server(m).live_count(cls);
        if (live != w.expected_live()[c]) {
          errors.push_back("class " + std::to_string(c) + " on machine " +
                           std::to_string(m.value) + " holds " +
                           std::to_string(live) + " objects, expected " +
                           std::to_string(w.expected_live()[c]));
        }
      }
    }
  });
}

/// Crash `m`, wait until the failure detector has expelled it, then time
/// Cluster::recover(m) until its `initialized` callback.
double recover_ms(Cluster& cluster, MachineId m) {
  cluster.crash(m);
  if (cluster.transport_kind() == TransportKind::kSim) {
    cluster.settle();
  } else {
    const auto limit = Clock::now() + kWaitLimit;
    for (bool expelled = false; !expelled;) {
      if (Clock::now() > limit) {
        throw std::runtime_error("crash never detected");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      cluster.transport().run_exclusive(
          [&] { expelled = cluster.groups().groups_of(m).empty(); });
    }
  }
  auto initialized = std::make_shared<Countdown>(1);
  const std::int64_t start = now_ns();
  cluster.recover(m, [initialized] { initialized->done(); });
  initialized->wait(cluster);
  const double ms = static_cast<double>(now_ns() - start) / 1e6;
  cluster.settle();
  return ms;
}

std::vector<double> recovery_cycles(Workload& w, Cluster& cluster) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < kRecoveryCycles; ++i) {
    ms.push_back(recover_ms(cluster, w.victims()[i % w.victims().size()]));
  }
  return ms;
}

/// One warm-up round, then the recovery cycles, then timed rounds until
/// `seconds` have passed (at least kMinRounds). Recoveries run before the
/// timed rounds because the state a joiner receives includes every insert
/// identity the class has applied: after the timed phase its size would
/// depend on how many rounds the host managed to run.
Phase run_phase(Workload& w, Cluster& cluster, double seconds,
                bool traced) {
  Phase p;
  OpLog warm;
  w.round(cluster, warm, nullptr);
  for (const std::string& e : warm.errors) {
    p.log.errors.push_back("warm-up: " + e);
  }
  check_replicas(w, cluster, p.log.errors);
  Tracer::set_enabled(traced);
  p.recovery_ms = recovery_cycles(w, cluster);
  Tracer::set_enabled(false);
  check_replicas(w, cluster, p.log.errors);
  p.setup_rss_mb = rusage_self().max_rss_mb;

  const bool sim = cluster.transport_kind() == TransportKind::kSim;
  const Counters before = read_counters(cluster);
  const Rusage ru_before = rusage_self();
  const CpuTimes cpu_before = cpu_times();
  std::atomic<bool> stop_probe{false};
  std::thread prober;
  if (traced) {
    p.probes = std::make_shared<ProbeSamples>();
    Tracer::set_enabled(true);
    if (!sim) {
      prober = std::thread([&] {
        while (!stop_probe.load(std::memory_order_relaxed)) {
          probe_tick(cluster, p.probes);
          std::this_thread::sleep_for(kProbePeriod);
        }
      });
    }
  }
  const std::uint64_t probes_before = Tracer::probes();
  p.start_ns = now_ns();
  do {
    const std::uint64_t ops_before = p.log.attempted;
    const std::size_t inserts_before = p.log.insert_us.size();
    const std::size_t reads_before = p.log.read_us.size();
    const std::size_t read_dels_before = p.log.read_del_us.size();
    const double cpu_round = rusage_self().cpu_us;
    const std::int64_t t0 = now_ns();
    w.round(cluster, p.log, sim ? p.probes : nullptr);
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    const auto ops = static_cast<double>(p.log.attempted - ops_before);
    const std::vector<double> inserts(
        p.log.insert_us.begin() + static_cast<std::ptrdiff_t>(inserts_before),
        p.log.insert_us.end());
    const std::vector<double> read_dels(
        p.log.read_del_us.begin() +
            static_cast<std::ptrdiff_t>(read_dels_before),
        p.log.read_del_us.end());
    std::vector<double> all = inserts;
    all.insert(all.end(),
               p.log.read_us.begin() + static_cast<std::ptrdiff_t>(reads_before),
               p.log.read_us.end());
    all.insert(all.end(), read_dels.begin(), read_dels.end());
    p.rounds.push_back({ops / wall, (rusage_self().cpu_us - cpu_round) / ops,
                        median(all), median(inserts), median(read_dels)});
  } while (static_cast<double>(now_ns() - p.start_ns) / 1e9 < seconds ||
           p.rounds.size() < kMinRounds);
  p.end_ns = now_ns();
  if (prober.joinable()) {
    stop_probe.store(true);
    prober.join();
  }
  Tracer::set_enabled(false);
  p.store_probes = Tracer::probes() - probes_before;
  const Rusage ru_after = rusage_self();
  const CpuTimes cpu_after = cpu_times();
  cluster.settle();
  p.delta = read_counters(cluster) - before;
  check_replicas(w, cluster, p.log.errors);
  p.ctx_switches = ru_after.ctx_switches - ru_before.ctx_switches;
  p.steal_pct = steal_pct(cpu_before, cpu_after);
  return p;
}

std::vector<Metric> model_metrics(const Phase& p) {
  return {
      {"msg_cost_per_op", p.per_op(p.delta.msg_cost), "cost"},
      {"work_per_op", p.per_op(p.delta.work), "cost"},
      {"net.messages_per_op", p.per_op(static_cast<double>(p.delta.messages)),
       "count"},
      {"net.bytes_per_op", p.per_op(static_cast<double>(p.delta.bytes)),
       "bytes"},
      {"vsync.gcasts_per_op", p.per_op(static_cast<double>(p.delta.gcasts)),
       "count"},
  };
}

std::vector<Metric> host_metrics(const Phase& p) {
  return {
      {"nproc", static_cast<double>(std::thread::hardware_concurrency()),
       "count"},
      {"host.steal_pct", p.steal_pct, "%"},
      {"os.ctx_switches_per_op",
       p.per_op(static_cast<double>(p.ctx_switches)), "count"},
  };
}

void finish_report(Report& report, const Phase& p) {
  report.attempted = p.log.attempted;
  report.failed = p.log.attempted - p.log.ok;
  report.errors.insert(report.errors.end(), p.log.errors.begin(),
                       p.log.errors.end());
  report.model = model_metrics(p);
  report.host = host_metrics(p);
}

// --- the untraced run: end-to-end metrics ------------------------------------

Report run_untraced(Workload& w, const Options& o) {
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (std::size_t i = 0; i < w.setups(); ++i) {
    cluster.reset();
    const std::int64_t start = now_ns();
    cluster = std::make_unique<Cluster>(w.schema(), w.config());
    w.prepare(*cluster);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }

  const Phase p = run_phase(w, *cluster, o.seconds, false);
  Report report;
  finish_report(report, p);

  report.metrics = {
      {"ops_per_sec", p.best(&Round::ops_per_sec, true), "1/s"},
      {"p50_us", p.best(&Round::p50_us, false), "us"},
      {"insert_p50_us", p.best(&Round::insert_p50_us, false), "us"},
      {"read_del_p50_us", p.best(&Round::read_del_p50_us, false), "us"},
      {"ok_ratio",
       static_cast<double>(p.log.ok) / static_cast<double>(p.log.attempted),
       "ratio"},
      {"msg_cost_per_op", p.per_op(p.delta.msg_cost), "cost"},
      {"work_per_op", p.per_op(p.delta.work), "cost"},
      {"cpu_us_per_op", p.best(&Round::cpu_us_per_op, false), "us"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", p.setup_rss_mb, "MB"},
  };
  return report;
}

// --- the traced run: per-layer metrics ---------------------------------------

Report run_traced(Workload& w, const Options& o) {
  // Spans and history grow with every op, so the traced part is capped; the
  // rest of the time goes to an untraced part on the same cluster and
  // program as a --trace 0 run, the baseline for the overhead and for the
  // model counts tracing must not move.
  const double traced_s = std::min(o.seconds / 2, kMaxTracedSeconds);
  Phase plain;
  {
    Cluster cluster(w.schema(), w.config());
    w.prepare(cluster);
    plain = run_phase(w, cluster, o.seconds - traced_s, false);
  }

  ClusterConfig config = w.config();
  config.record_history = true;
  MemoryServer::ClassStoreFactory inner = config.store_factory;
  if (!inner) {
    inner = [](ClassId) { return std::make_unique<storage::HashStore>(0); };
  }
  config.store_factory = [inner](ClassId cls) {
    return std::make_unique<TimingStore>(inner(cls));
  };
  Cluster cluster(w.schema(), config);
  w.prepare(cluster);
  Tracer::clear();
  const Phase p = run_phase(w, cluster, traced_s, true);

  Report report;
  finish_report(report, p);
  report.errors.insert(report.errors.end(), plain.log.errors.begin(),
                       plain.log.errors.end());

  const semantics::CheckResult axioms =
      semantics::check_history(cluster.history(), cluster.run_context());
  for (std::size_t i = 0; i < axioms.violations.size() && i < 8; ++i) {
    report.errors.push_back("A1-A3: " + axioms.violations[i]);
  }
  if (w.model_exact()) {
    const std::vector<Metric> untraced = model_metrics(plain);
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      if (untraced[i].value != report.model[i].value) {
        report.errors.push_back("tracing moved " + untraced[i].name);
      }
    }
  }

  // Spans of the timed phase, and the state-transfer spans before it.
  std::vector<double> find_ns, update_ns, snapshot_ms, load_ms;
  double op_ns = 0, storage_ns = 0, child_ns = 0;
  for (const Span& s : Tracer::collect()) {
    const auto d = static_cast<double>(s.end_ns - s.start_ns);
    const bool in_phase = s.start_ns >= p.start_ns && s.end_ns <= p.end_ns;
    switch (s.kind) {
      case SpanKind::kOp:
        if (in_phase) op_ns += d;
        break;
      case SpanKind::kFind:
      case SpanKind::kUpdate:
        if (!in_phase) break;
        (s.kind == SpanKind::kFind ? find_ns : update_ns).push_back(d);
        storage_ns += d;
        if (s.parent != 0) child_ns += d;
        break;
      case SpanKind::kSnapshot:
        if (s.end_ns < p.start_ns) snapshot_ms.push_back(d / 1e6);
        break;
      case SpanKind::kLoad:
        if (s.end_ns < p.start_ns) load_ms.push_back(d / 1e6);
        break;
    }
  }
  if (!o.spans_path.empty() && !Tracer::write_csv(o.spans_path)) {
    report.errors.push_back("cannot write spans to " + o.spans_path);
  }
  Tracer::clear();

  const double ops = static_cast<double>(p.log.attempted);
  const double wall_ns = static_cast<double>(p.end_ns - p.start_ns);
  const double accounted_pct =
      100 * op_ns / (wall_ns * static_cast<double>(w.clients()));
  // With one synchronous client, every store call runs inside an op span,
  // so the op spans (storage self time plus the remainder) must cover the
  // timed wall time but for the benchmark's own loop.
  if (w.clients() == 1 && accounted_pct < kMinAccountedPct) {
    report.errors.push_back("op spans cover only " +
                            std::to_string(accounted_pct) +
                            "% of the timed wall time");
  }
  std::uint64_t batches = p.delta.batches;
  const ProbeSamples& probe = *p.probes;
  report.metrics = {
      {"storage.find_ns_p50", median(find_ns), "ns"},
      {"storage.update_ns_p50", median(update_ns), "ns"},
      {"storage.calls_per_op",
       static_cast<double>(find_ns.size() + update_ns.size()) / ops, "count"},
      {"storage.probes_per_op", static_cast<double>(p.store_probes) / ops,
       "count"},
      {"storage.busy_share", storage_ns / wall_ns, "ratio"},
      {"storage.snapshot_ms", median(snapshot_ms), "ms"},
      {"storage.load_ms", median(load_ms), "ms"},
      {"sim.events_per_op", p.per_op(static_cast<double>(p.delta.sim_events)),
       "count"},
      {"net.messages_per_op", p.per_op(static_cast<double>(p.delta.messages)),
       "count"},
      {"net.bytes_per_op", p.per_op(static_cast<double>(p.delta.bytes)),
       "bytes"},
      {"net.ring_overflow_per_op",
       p.per_op(static_cast<double>(p.delta.overflowed)), "count"},
      {"net.shard_wait_us_p50", quantile(probe.shard_wait_us, 0.50), "us"},
      {"net.shard_wait_us_p99", quantile(probe.shard_wait_us, 0.99), "us"},
      {"exec.timer_lag_us_p50", quantile(probe.timer_lag_us, 0.50), "us"},
      {"exec.timer_lag_us_p99", quantile(probe.timer_lag_us, 0.99), "us"},
      {"exec.timer_queue_depth",
       probe.queue_depth.empty()
           ? 0
           : std::accumulate(probe.queue_depth.begin(),
                             probe.queue_depth.end(), 0.0) /
                 static_cast<double>(probe.queue_depth.size()),
       "count"},
      {"vsync.gcasts_per_op", p.per_op(static_cast<double>(p.delta.gcasts)),
       "count"},
      {"vsync.retransmits", static_cast<double>(p.delta.retransmits), "count"},
      {"vsync.ops_per_batch",
       batches == 0 ? 0
                    : static_cast<double>(p.delta.batched_ops) /
                          static_cast<double>(batches),
       "count"},
      {"paso.admission_parked_per_op",
       p.per_op(static_cast<double>(p.delta.parked)), "count"},
      {"os.ctx_switches_per_op",
       p.per_op(static_cast<double>(p.ctx_switches)), "count"},
      {"host.steal_pct", p.steal_pct, "%"},
      {"tail.p99_us", quantile(plain.latencies(), 0.99), "us"},
      {"paso.recovery_ms", median(plain.recovery_ms), "ms"},
      {"trace.overhead_pct",
       100 * (median(plain.round_ops_per_sec()) /
                  median(p.round_ops_per_sec()) -
              1),
       "%"},
      {"trace.op_us", op_ns / ops / 1e3, "us"},
      {"trace.storage_self_us", storage_ns / ops / 1e3, "us"},
      {"trace.remainder_us", (op_ns - child_ns) / ops / 1e3, "us"},
      {"trace.accounted_pct", accounted_pct, "%"},
  };
  return report;
}

}  // namespace

Report run(const Options& options) {
  const std::unique_ptr<Workload> w =
      make_workload(options.workload, options.seed);
  // One CPU: on a shared VM the hypervisor steals time from a second
  // busy vCPU far more often than from the first (see README.md).
  const std::size_t cpus = pin_to_cpus(1);
  Report report =
      options.trace ? run_traced(*w, options) : run_untraced(*w, options);
  report.host.insert(report.host.begin() + 1,
                     Metric{"cpus", static_cast<double>(cpus), "count"});
  return report;
}

}  // namespace perfbench
