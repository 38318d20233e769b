#include "probes.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

namespace perfbench {

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sample.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(sample.begin(), sample.begin() + index, sample.end());
  return sample[index];
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kFind: return "store.find";
    case SpanKind::kUpdate: return "store.update";
    case SpanKind::kSnapshot: return "store.snapshot";
    case SpanKind::kLoad: return "store.load";
  }
  return "?";
}

// --- spans -------------------------------------------------------------------

std::atomic<bool> Tracer::enabled_{false};

namespace {

struct ThreadBuffer {
  std::uint64_t index = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t open_op = 0;
  std::int64_t open_start = 0;
  std::uint64_t probes = 0;
  std::vector<Span> spans;
};

// Buffers outlive their threads (worker threads end with their cluster),
// so the registry owns them.
std::mutex registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> registry;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu);
    registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = registry.back().get();
    buffer->index = registry.size();
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

std::uint64_t next_id(ThreadBuffer& b) {
  return (b.index << 40) | b.next_seq++;
}

}  // namespace

void Tracer::begin_op() {
  if (!enabled()) return;
  ThreadBuffer& b = local_buffer();
  b.open_op = next_id(b);
  b.open_start = now_ns();
}

void Tracer::end_op() {
  if (!enabled()) return;
  ThreadBuffer& b = local_buffer();
  if (b.open_op == 0) return;
  b.spans.push_back(Span{b.open_op, 0, b.open_start, now_ns(), SpanKind::kOp});
  b.open_op = 0;
}

void Tracer::record(SpanKind kind, std::int64_t start_ns,
                    std::int64_t end_ns) {
  ThreadBuffer& b = local_buffer();
  b.spans.push_back(Span{next_id(b), b.open_op, start_ns, end_ns, kind});
}

void Tracer::add_probes(std::uint64_t n) { local_buffer().probes += n; }

std::vector<Span> Tracer::collect() {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::vector<Span> all;
  for (const auto& b : registry) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::uint64_t Tracer::probes() {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::uint64_t total = 0;
  for (const auto& b : registry) total += b->probes;
  return total;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registry_mu);
  for (const auto& b : registry) {
    b->spans.clear();
    b->probes = 0;
  }
}

bool Tracer::write_csv(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "id,parent,kind,start_ns,end_ns\n";
  for (const Span& s : collect()) {
    os << s.id << ',' << s.parent << ',' << span_kind_name(s.kind) << ','
       << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(os);
}

// --- TimingStore -------------------------------------------------------------

namespace {

/// Times one decorated call when the tracer is on; free otherwise.
class Timed {
 public:
  explicit Timed(SpanKind kind)
      : kind_(kind), start_(Tracer::enabled() ? now_ns() : 0) {}
  ~Timed() {
    if (start_ != 0) Tracer::record(kind_, start_, now_ns());
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanKind kind_;
  std::int64_t start_;
};

}  // namespace

void TimingStore::store(paso::PasoObject object, std::uint64_t age) {
  Timed timed(SpanKind::kUpdate);
  inner_->store(std::move(object), age);
}

std::optional<paso::PasoObject> TimingStore::find(
    const paso::SearchCriterion& sc) const {
  const std::uint64_t probes = inner_->match_probes();
  std::optional<paso::PasoObject> found;
  {
    Timed timed(SpanKind::kFind);
    found = inner_->find(sc);
  }
  if (Tracer::enabled()) Tracer::add_probes(inner_->match_probes() - probes);
  return found;
}

std::optional<paso::PasoObject> TimingStore::remove(
    const paso::SearchCriterion& sc) {
  const std::uint64_t probes = inner_->match_probes();
  std::optional<paso::PasoObject> removed;
  {
    Timed timed(SpanKind::kUpdate);
    removed = inner_->remove(sc);
  }
  if (Tracer::enabled()) Tracer::add_probes(inner_->match_probes() - probes);
  return removed;
}

bool TimingStore::erase(paso::ObjectId id) {
  Timed timed(SpanKind::kUpdate);
  return inner_->erase(id);
}

std::vector<paso::storage::StoredObject> TimingStore::snapshot() const {
  Timed timed(SpanKind::kSnapshot);
  return inner_->snapshot();
}

void TimingStore::load(
    const std::vector<paso::storage::StoredObject>& objects) {
  Timed timed(SpanKind::kLoad);
  inner_->load(objects);
}

// --- process and host counters ----------------------------------------------

std::size_t pin_to_cpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::size_t taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < n; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &chosen);
      ++taken;
    }
  }
  if (taken == 0 || sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    return static_cast<std::size_t>(CPU_COUNT(&allowed));
  }
  return taken;
}

Rusage rusage_self() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.cpu_us =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  r.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

CpuTimes cpu_times() {
  // Only the CPUs this process may run on: after pin_to_cpus, steal on the
  // others says nothing about this run.
  cpu_set_t mine;
  CPU_ZERO(&mine);
  if (sched_getaffinity(0, sizeof mine, &mine) != 0) return {};
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string label;
  while (stat >> label && label.rfind("cpu", 0) == 0) {
    std::uint64_t v[8] = {};
    for (std::uint64_t& x : v) stat >> x;
    stat.ignore(1024, '\n');
    if (label == "cpu") continue;
    const int cpu = std::atoi(label.c_str() + 3);
    if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &mine)) continue;
    for (const std::uint64_t x : v) t.total += x;
    t.steal += v[7];
  }
  return t;
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0) return 0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

}  // namespace perfbench
