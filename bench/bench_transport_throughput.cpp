// bench_transport_throughput — wall-clock throughput and latency of the two
// real-clock transports: threaded (TransportKind::kThreaded: worker
// threads, SPSC rings, steady_clock timers) and socket (kSocket: one OS
// process per machine on TCP loopback, writev-batched broker).
//
// For each transport, sweeps machine count x client-thread count; each
// client runs an insert-then-read loop over its own keyspace slice through
// the cluster's synchronous wrappers, so every op crosses the fabric end to
// end. Reported axes are the wall-clock quartet — ns_per_op, ops_per_sec,
// p50_ns, p99_ns (per-op latency quantiles from an obs::Histogram) — plus
// the model msg_cost and bytes for cross-checking against the simulated-bus
// benches; socket rows add the broker's frames and writev calls over the
// measured window (frames / writes is the syscall-coalescing win).
// Wall-clock axes are machine-dependent and never gated by tools/bench_diff;
// these rows exist to make real-time regressions *visible*, not to fail CI.
//
// The threaded sweeps run first. Their clusters join every thread before
// the socket sweeps start, so the socket transport still forks its machine
// processes from a single-threaded parent.
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "obs/metrics.hpp"

using namespace paso;
using namespace paso::bench;

namespace {

/// Exponential-ish ns buckets, 1us .. 1s; per-op latencies under load land
/// mid-range so p50/p99 interpolate instead of saturating.
std::vector<double> latency_bounds_ns() {
  return {1e3, 2e3, 5e3, 1e4, 2e4,   5e4, 1e5, 2e5,
          5e5, 1e6, 2e6, 5e6, 1e7, 5e7, 1e8, 1e9};
}

/// One real-clock transport under test: its kind, the prefix of its row
/// names and configs, and its scaling-sweep op count (a socket op costs
/// two loopback hops per message, so its sweeps run fewer).
struct Fabric {
  TransportKind kind;
  std::string name;
  std::uint64_t scale_ops;
  const char* detail;
};

struct LoadResult {
  std::uint64_t ops = 0;
  double wall_ns = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  Cost msg_cost = 0;
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;  // socket only
  std::uint64_t writes = 0;
};

/// Run `clients` threads, client c issuing from machine c % machines an
/// insert-then-read loop over its own keys, and measure the window.
LoadResult drive(Cluster& cluster, std::size_t clients,
                 std::uint64_t ops_per_client) {
  const bool socket = cluster.transport_kind() == TransportKind::kSocket;
  const std::uint64_t frames_before =
      socket ? cluster.socket_transport().frames_sent() : 0;
  const std::uint64_t writes_before =
      socket ? cluster.socket_transport().write_syscalls() : 0;

  obs::Histogram latency(latency_bounds_ns());
  std::mutex latency_mu;  // clients share one histogram; observe() is cheap
  const auto timed = [&](const std::function<void()>& op) {
    const auto start = std::chrono::steady_clock::now();
    op();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    std::lock_guard<std::mutex> lock(latency_mu);
    latency.observe(ns);
  };

  const std::size_t machines = cluster.machine_count();
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const ProcessId process = cluster.process(
          MachineId{static_cast<std::uint32_t>(c % machines)});
      for (std::uint64_t i = 0; i < ops_per_client; ++i) {
        const std::int64_t key =
            static_cast<std::int64_t>(c) * 1'000'000 +
            static_cast<std::int64_t>(i);
        timed([&] { cluster.insert_sync(process, TaskCluster::tuple(key)); });
        timed([&] { cluster.read_sync(process, TaskCluster::by_key(key)); });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  cluster.settle();

  LoadResult result;
  result.ops = 2 * clients * ops_per_client;  // insert + read per iteration
  result.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  result.p50_ns = latency.quantile(0.50);
  result.p99_ns = latency.quantile(0.99);
  cluster.transport().run_exclusive([&] {
    result.msg_cost = cluster.ledger().total_msg_cost();
    for (const auto& [tag, stats] : cluster.ledger().per_tag()) {
      result.bytes += stats.bytes;
    }
  });
  if (socket) {
    result.frames = cluster.socket_transport().frames_sent() - frames_before;
    result.writes =
        cluster.socket_transport().write_syscalls() - writes_before;
  }
  return result;
}

/// Throughput variant: the one-class task cluster with basic support.
LoadResult run_load(TransportKind kind, std::size_t machines,
                    std::size_t clients, std::uint64_t ops_per_client) {
  ClusterConfig config;
  config.machines = machines;
  config.lambda = 1;
  config.transport = kind;
  config.record_history = false;
  Cluster cluster(TaskCluster::schema(), config);
  cluster.assign_basic_support();
  return drive(cluster, clients, ops_per_client);
}

/// Scaling variant: one hash partition (= one object class, one write
/// group) per machine, support {p, p+1 mod n}, every client issuing against
/// its own machine's slice. Op domains are then tiny ({issuer} ∪ two
/// support machines), so with the sharded stack lock independent machines'
/// ops hold disjoint shard sets and genuinely overlap — this sweep is the
/// direct measurement of the sharding win (ops/sec should grow with the
/// machine count; under a global stack lock it is flat). Both transports
/// run the same shape, so their curves are directly comparable.
LoadResult run_scaling_load(TransportKind kind, std::size_t machines,
                            std::size_t clients,
                            std::uint64_t ops_per_client) {
  ClusterConfig config;
  config.machines = machines;
  config.lambda = machines > 1 ? 1 : 0;
  config.transport = kind;
  config.record_history = false;
  Schema schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, machines},
  });
  Cluster cluster(schema, config);
  for (std::size_t p = 0; p < machines; ++p) {
    std::vector<MachineId> support{
        MachineId{static_cast<std::uint32_t>(p)}};
    if (machines > 1) {
      support.push_back(
          MachineId{static_cast<std::uint32_t>((p + 1) % machines)});
    }
    cluster.set_basic_support(ClassId{static_cast<std::uint32_t>(p)},
                              std::move(support));
  }
  cluster.assign_basic_support();  // overrides are kept; this performs joins
  return drive(cluster, clients, ops_per_client);
}

void emit_row(const Fabric& fabric, const std::string& bench,
              const std::string& config, const LoadResult& r) {
  const double ns_per_op = r.wall_ns / static_cast<double>(r.ops);
  const double ops_per_sec = static_cast<double>(r.ops) * 1e9 / r.wall_ns;
  std::printf("%-34s | %10.0f %12.0f %12.0f %12.0f", config.c_str(),
              ns_per_op, ops_per_sec, r.p50_ns, r.p99_ns);
  JsonLine line(fabric.name + "_" + bench);
  line.field("config", fabric.name + "/" + config)
      .field("ops", r.ops)
      .field("ns_per_op", ns_per_op)
      .field("ops_per_sec", ops_per_sec)
      .field("p50_ns", r.p50_ns)
      .field("p99_ns", r.p99_ns)
      .field("msg_cost", r.msg_cost)
      .field("bytes", r.bytes);
  if (fabric.kind == TransportKind::kSocket) {
    const double coalesce = r.writes > 0 ? static_cast<double>(r.frames) /
                                               static_cast<double>(r.writes)
                                         : 0.0;
    std::printf(" %9.1f", coalesce);
    line.field("frames", r.frames).field("writes", r.writes);
  }
  std::printf("\n");
  line.emit();
}

void run_fabric(const Fabric& fabric) {
  const bool socket = fabric.kind == TransportKind::kSocket;
  print_header(fabric.name + " transport: wall-clock throughput / latency (" +
               fabric.detail + ", 1 cost unit = 1 us)");
  std::printf("%-34s | %10s %12s %12s %12s%s\n", "config", "ns/op",
              "ops/sec", "p50_ns", "p99_ns", socket ? "  fr/write" : "");
  print_rule();

  constexpr std::uint64_t kOpsPerClient = 50;
  for (const std::size_t machines : {4u, 8u}) {
    for (const std::size_t clients : {1u, 4u}) {
      emit_row(fabric, "throughput",
               "machines=" + std::to_string(machines) +
                   "/clients=" + std::to_string(clients),
               run_load(fabric.kind, machines, clients, kOpsPerClient));
    }
  }

  // Machine-count sweep: clients track machines, so the offered parallelism
  // grows with the fabric. ops/sec increasing monotonically 1 -> 8 is the
  // sharding win; a global stack lock flattens this curve.
  for (const std::size_t machines : {1u, 2u, 4u, 8u}) {
    emit_row(fabric, "scaling",
             "scale/machines=" + std::to_string(machines) +
                 "/clients=" + std::to_string(machines),
             run_scaling_load(fabric.kind, machines, machines,
                              fabric.scale_ops));
  }
  // Thread-count sweep at fixed fabric width: contention growth at 8
  // machines as client threads multiply.
  for (const std::size_t clients : {1u, 2u, 4u, 8u}) {
    emit_row(fabric, "scaling", "scale8/clients=" + std::to_string(clients),
             run_scaling_load(fabric.kind, 8, clients, fabric.scale_ops));
  }
}

}  // namespace

int main() {
  run_fabric({TransportKind::kThreaded, "threaded", 150,
              "steady_clock, SPSC fabric"});
  run_fabric({TransportKind::kSocket, "socket", 50,
              "one OS process per machine, TCP loopback"});

  std::printf(
      "\nEvery op crosses the fabric end to end. Threaded: client thread ->\n"
      "stack shards -> per-segment transmit token -> SPSC ring -> worker\n"
      "thread. Socket: the payload frame rides the TCP loopback to the\n"
      "destination machine's OS process and only the returning ack releases\n"
      "the delivery, so ns/op includes two kernel socket hops per message.\n"
      "ns/op is real time, not virtual cost; msg_cost must equal the\n"
      "simulated-bus charge for the same trace (tools/trace_diff\n"
      "--transport=all automates that check).\n");
  return 0;
}
