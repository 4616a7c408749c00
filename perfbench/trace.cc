#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientGet:
      return "client.get";
    case SpanKind::kClientSet:
      return "client.set";
    case SpanKind::kOnSet:
      return "persist.on_set";
    case SpanKind::kWaitDurable:
      return "persist.wait_durable";
    case SpanKind::kWaitReplicated:
      return "repl.wait_replicated";
  }
  return "unknown";
}

SpanKind SpanParent(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOnSet:
    case SpanKind::kWaitDurable:
      return SpanKind::kClientSet;
    case SpanKind::kWaitReplicated:
      return SpanKind::kWaitDurable;
    default:
      return kind;
  }
}

double Quantile(std::vector<std::uint64_t>* values, double q) {
  if (values->empty()) {
    return 0;
  }
  const std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(values->size() - 1));
  std::nth_element(values->begin(), values->begin() + static_cast<std::ptrdiff_t>(rank),
                   values->end());
  return static_cast<double>((*values)[rank]);
}

SetBreakdown AnalyzeSets(const std::vector<Span>& spans) {
  struct Chain {
    std::uint64_t dur[5] = {};
    bool seen[5] = {};
  };
  std::unordered_map<std::uint64_t, Chain> chains;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kClientGet) {
      continue;
    }
    Chain& c = chains[s.id];
    const int k = static_cast<int>(s.kind);
    c.dur[k] = s.end_ns - s.start_ns;
    c.seen[k] = true;
  }
  std::vector<std::uint64_t> client, rest, on_set, wd_self, wr;
  for (const auto& [id, c] : chains) {
    (void)id;
    const int kc = static_cast<int>(SpanKind::kClientSet);
    const int ko = static_cast<int>(SpanKind::kOnSet);
    const int kd = static_cast<int>(SpanKind::kWaitDurable);
    const int kr = static_cast<int>(SpanKind::kWaitReplicated);
    if (!c.seen[kc] || !c.seen[kd]) {
      continue;  // no durability layer, or a SET sent before tracing began
    }
    const std::uint64_t children = c.dur[ko] + c.dur[kd];
    client.push_back(c.dur[kc]);
    rest.push_back(c.dur[kc] > children ? c.dur[kc] - children : 0);
    on_set.push_back(c.dur[ko]);
    wd_self.push_back(c.dur[kd] > c.dur[kr] ? c.dur[kd] - c.dur[kr] : 0);
    wr.push_back(c.dur[kr]);
  }
  SetBreakdown b;
  b.requests = client.size();
  b.client_p50_us = Quantile(&client, 0.5) / 1e3;
  b.rest_p50_us = Quantile(&rest, 0.5) / 1e3;
  b.on_set_p50_us = Quantile(&on_set, 0.5) / 1e3;
  b.wait_durable_self_p50_us = Quantile(&wd_self, 0.5) / 1e3;
  b.wait_durable_self_p99_us = Quantile(&wd_self, 0.99) / 1e3;
  b.wait_replicated_p50_us = Quantile(&wr, 0.5) / 1e3;
  b.wait_replicated_p99_us = Quantile(&wr, 0.99) / 1e3;
  return b;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id\tname\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    const SpanKind parent = SpanParent(s.kind);
    std::fprintf(f, "%llu\t%s\t%s\t%llu\t%llu\n", static_cast<unsigned long long>(s.id),
                 SpanName(s.kind), parent == s.kind ? "-" : SpanName(parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
