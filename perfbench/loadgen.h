// Load generator: one thread multiplexing every connection over ppoll, so
// the client costs the stack at most one core. Requests are pipelined on
// their connection; every response is parsed and checked:
//   * a GET must return every requested key, in order, with a value that
//     decodes to that key with a valid checksum;
//   * its version must be at least the version whose SET was acked before
//     the GET was sent, and at most the last version sent;
//   * a SET must answer STORED.
// A failed request counts in `failed` and enters the latency sample as
// slower than every percentile.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/workload.h"

namespace perfbench {

// Per-key versions: last sent and last acked SET.
struct KeyState {
  explicit KeyState(std::uint64_t keys) : sent(keys, 0), acked(keys, 0) {}
  std::vector<std::uint32_t> sent;
  std::vector<std::uint32_t> acked;
};

inline constexpr std::uint64_t kFailedLatency = ~std::uint64_t{0};

// A measured phase is split into this many equal windows, so that a host
// stall covering a few of them does not move a median taken over windows.
inline constexpr std::size_t kWindows = 10;
using WindowSamples = std::array<std::vector<std::uint64_t>, kWindows>;

struct PhaseStats {
  double seconds = 0;
  std::uint64_t commands = 0;  // completed inside the phase window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_keys = 0;
  std::uint64_t sets = 0;
  std::uint64_t set_user_bytes = 0;  // key + value bytes of SETs sent
  // Closed loop only: commands completed in each window.
  std::array<std::uint64_t, kWindows> window_commands{};
  // Open loop only, nanoseconds from each request's due time, by the window
  // the request was due in.
  WindowSamples get_ns;
  WindowSamples set_ns;
  std::vector<std::uint64_t> late_ns;  // send time minus due time
};

class LoadGen {
 public:
  LoadGen(const WorkloadSpec& spec, KeyState* keys);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool Connect(const std::string& socket_path);
  void Close();

  // SET version 1 of every key through its owner connection, `depth` deep.
  bool Load(const KeyPicker& picker, int depth, PhaseStats* out);
  // Sends ops.Next() at `rate` commands/s for `seconds`, then drains.
  bool RunOpen(OpStream* ops, double rate, double seconds, PhaseStats* out);
  // Keeps spec.pipeline_depth commands outstanding per connection.
  bool RunClosed(OpStream* ops, double seconds, PhaseStats* out);

  // Traced run: record a client span per request into `log` (null = off),
  // and call `sampler` from the loop about once per millisecond.
  void SetTrace(SpanLog* log, std::function<void()> sampler);

  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct Pending {
    std::uint64_t due_ns = 0;
    std::uint64_t sent_ns = 0;
    std::uint64_t id = 0;
    bool get = false;
    int nkeys = 0;
    std::uint64_t keys[16] = {};
    std::uint32_t min_version[16] = {};
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_off = 0;
    std::deque<Pending> queue;
  };
  enum class Mode { kLoad, kOpen, kClosed };

  void Issue(Conn* conn, const Op& op, std::uint64_t due_ns, PhaseStats* out);
  bool Flush(Conn* conn);
  // Reads what the socket has and completes every whole response.
  bool Receive(Conn* conn, Mode mode, std::uint64_t window_end, PhaseStats* out,
               int* completed);
  // 1 = one response consumed, 0 = incomplete; sets *ok.
  int ParseResponse(Conn* conn, const Pending& p, bool* ok);
  bool CheckValue(const Pending& p, int index, std::string_view key, std::string_view data);
  bool Poll(std::uint64_t timeout_ns, Mode mode, std::uint64_t window_end, PhaseStats* out,
            std::vector<int>* completed);
  std::size_t Outstanding() const;
  void Fail(const std::string& what);
  void BeginPhase(std::uint64_t start_ns, double seconds);
  // The window of the current phase that time `t` falls in.
  std::size_t WindowOf(std::uint64_t t) const;

  const WorkloadSpec& spec_;
  KeyState* keys_;
  std::vector<Conn> conns_;
  std::string value_buf_;
  std::uint64_t next_get_id_ = 0;
  SpanLog* trace_ = nullptr;
  std::function<void()> sampler_;
  std::uint64_t next_sample_ns_ = 0;
  std::uint64_t phase_start_ns_ = 0;
  std::uint64_t window_ns_ = 1;
  std::vector<std::string> errors_;
  bool broken_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
