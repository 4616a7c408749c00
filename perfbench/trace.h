// In-memory spans for the traced run. Spans are recorded by the benchmark's
// own code around calls into the stack's public boundaries (the client
// request, and forwarding wrappers around the mutation observer and the
// replication bridge); nothing inside src/ is instrumented. Spans of one
// request share an id: a SET is identified by (key id, version), which both
// the client and the server-side wrappers can derive.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kClientGet,       // client: send to response
  kClientSet,       // client: send to response
  kOnSet,           // MutationObserver::OnSet (inside the bucket lock)
  kWaitDurable,     // MutationObserver::WaitDurable (blocks the event loop)
  kWaitReplicated,  // ReplicationBridge::WaitReplicated, inside WaitDurable
};

const char* SpanName(SpanKind kind);

// The span each kind is a child of, or itself for roots.
SpanKind SpanParent(SpanKind kind);

inline std::uint64_t SetRequestId(std::uint64_t key, std::uint32_t version) {
  return (key << 32) | version;
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kClientGet;
};

class SpanLog {
 public:
  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(span);
    }
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  static constexpr std::size_t kMaxSpans = 2u << 20;  // 64 MB
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Self time per layer along the blocking path of a SET: for each request
// whose client span was recorded, the client time not covered by its
// server-side children, the observer's OnSet, WaitDurable minus its replica
// child, and WaitReplicated. Each field is the median over those requests.
struct SetBreakdown {
  std::uint64_t requests = 0;
  double client_p50_us = 0;
  double rest_p50_us = 0;  // socket, parse, table, event loop, queueing
  double on_set_p50_us = 0;
  double wait_durable_self_p50_us = 0;
  double wait_durable_self_p99_us = 0;
  double wait_replicated_p50_us = 0;
  double wait_replicated_p99_us = 0;
};
SetBreakdown AnalyzeSets(const std::vector<Span>& spans);

// Writes one tab-separated line per span: id, name, parent, start, end.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// Value at quantile q of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<std::uint64_t>* values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
