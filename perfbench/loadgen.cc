#include "perfbench/loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "src/common/timing.h"

namespace perfbench {

namespace {

// A request unanswered this long fails the run.
constexpr std::uint64_t kRequestTimeoutNs = 30'000'000'000ull;
constexpr std::uint64_t kSamplePeriodNs = 1'000'000;

bool ParseUint(std::string_view s, std::uint64_t* out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

}  // namespace

LoadGen::LoadGen(const WorkloadSpec& spec, KeyState* keys) : spec_(spec), keys_(keys) {
  // ppoll wakes for the next due request; the default 50 us timer slack
  // would show up as generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
}

LoadGen::~LoadGen() { Close(); }

bool LoadGen::Connect(const std::string& socket_path) {
  Close();
  broken_ = false;
  conns_.resize(static_cast<std::size_t>(spec_.connections));
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK) != 0) {
      Fail("cannot connect to " + socket_path + ": " + std::strerror(errno));
      return false;
    }
  }
  return true;
}

void LoadGen::Close() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      ::close(c.fd);
    }
  }
  conns_.clear();
}

void LoadGen::SetTrace(SpanLog* log, std::function<void()> sampler) {
  trace_ = log;
  sampler_ = std::move(sampler);
  next_sample_ns_ = 0;
}

void LoadGen::Fail(const std::string& what) {
  if (errors_.size() < 10) {
    errors_.push_back(what);
  }
}

void LoadGen::BeginPhase(std::uint64_t start_ns, double seconds) {
  phase_start_ns_ = start_ns;
  window_ns_ =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(seconds * 1e9 / kWindows));
}

std::size_t LoadGen::WindowOf(std::uint64_t t) const {
  const std::uint64_t w = t > phase_start_ns_ ? (t - phase_start_ns_) / window_ns_ : 0;
  return static_cast<std::size_t>(std::min<std::uint64_t>(w, kWindows - 1));
}

std::size_t LoadGen::Outstanding() const {
  std::size_t n = 0;
  for (const Conn& c : conns_) {
    n += c.queue.size();
  }
  return n;
}

void LoadGen::Issue(Conn* conn, const Op& op, std::uint64_t due_ns, PhaseStats* out) {
  Pending p;
  p.due_ns = due_ns;
  p.get = op.get;
  p.nkeys = op.nkeys;
  std::copy(op.keys, op.keys + op.nkeys, p.keys);
  if (op.get) {
    conn->out.append("get");
    for (int i = 0; i < op.nkeys; ++i) {
      conn->out.push_back(' ');
      AppendKeyName(op.keys[i], &conn->out);
      p.min_version[i] = keys_->acked[op.keys[i]];
    }
    conn->out.append("\r\n");
    p.id = (std::uint64_t{1} << 63) | next_get_id_++;
    ++out->gets;
    out->get_keys += static_cast<std::uint64_t>(op.nkeys);
  } else {
    const std::uint64_t k = op.keys[0];
    const std::uint32_t version = ++keys_->sent[k];
    EncodeValue(k, version, spec_.value_size, &value_buf_);
    conn->out.append("set ");
    AppendKeyName(k, &conn->out);
    conn->out.append(" 0 0 ");
    conn->out.append(std::to_string(spec_.value_size));
    conn->out.append("\r\n");
    conn->out.append(value_buf_);
    conn->out.append("\r\n");
    p.min_version[0] = version;
    p.id = SetRequestId(k, version);
    ++out->sets;
    out->set_user_bytes += kKeyBytes + spec_.value_size;
  }
  ++out->attempted;
  p.sent_ns = cuckoo::NowNanos();
  conn->queue.push_back(p);
}

bool LoadGen::Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn->out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      Fail(std::string("send failed: ") + std::strerror(errno));
      broken_ = true;
      return false;
    }
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  }
  return true;
}

bool LoadGen::CheckValue(const Pending& p, int index, std::string_view key,
                         std::string_view data) {
  const std::uint64_t want = p.keys[index];
  std::uint64_t got_key = 0;
  std::uint64_t value_key = 0;
  std::uint32_t version = 0;
  if (!ParseKey(key, &got_key) || got_key != want) {
    Fail("get of " + KeyName(want) + " answered for key " + std::string(key));
    return false;
  }
  if (!DecodeValue(data, spec_.value_size, &value_key, &version)) {
    Fail("checksum or size violation in value of " + KeyName(want));
    return false;
  }
  if (value_key != want) {
    Fail("value of " + KeyName(value_key) + " returned for " + KeyName(want));
    return false;
  }
  if (version < p.min_version[index] || version > keys_->sent[want]) {
    Fail("version violation on " + KeyName(want) + ": got " + std::to_string(version) +
         ", acked before send " + std::to_string(p.min_version[index]) + ", last sent " +
         std::to_string(keys_->sent[want]));
    return false;
  }
  return true;
}

int LoadGen::ParseResponse(Conn* conn, const Pending& p, bool* ok) {
  const std::string& in = conn->in;
  std::size_t pos = conn->in_off;
  *ok = true;
  int found = 0;
  for (;;) {
    const std::size_t eol = in.find("\r\n", pos);
    if (eol == std::string::npos) {
      return 0;
    }
    const std::string_view line(in.data() + pos, eol - pos);
    if (!p.get) {
      if (line != "STORED") {
        *ok = false;
        Fail("set answered: " + std::string(line));
      }
      conn->in_off = eol + 2;
      return 1;
    }
    if (line == "END") {
      pos = eol + 2;
      break;
    }
    if (line.substr(0, 6) != "VALUE ") {
      *ok = false;
      Fail("get answered: " + std::string(line));
      pos = eol + 2;
      break;
    }
    // VALUE <key> <flags> <bytes>
    const std::string_view rest = line.substr(6);
    const std::size_t sp1 = rest.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos ? sp1 : rest.find(' ', sp1 + 1);
    std::uint64_t bytes = 0;
    if (sp2 == std::string_view::npos || !ParseUint(rest.substr(sp2 + 1), &bytes)) {
      *ok = false;
      Fail("malformed VALUE line: " + std::string(line));
      broken_ = true;
      return 0;
    }
    if (eol + 2 + bytes + 2 > in.size()) {
      return 0;
    }
    const std::string_view data(in.data() + eol + 2, bytes);
    if (found >= p.nkeys || !CheckValue(p, found, rest.substr(0, sp1), data)) {
      *ok = false;
    }
    ++found;
    pos = eol + 2 + bytes + 2;
  }
  if (*ok && found != p.nkeys) {
    *ok = false;
    Fail("get returned " + std::to_string(found) + " of " + std::to_string(p.nkeys) +
         " keys (first " + KeyName(p.keys[0]) + ")");
  }
  conn->in_off = pos;
  return 1;
}

bool LoadGen::Receive(Conn* conn, Mode mode, std::uint64_t window_end, PhaseStats* out,
                      int* completed) {
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn->in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) {
        break;
      }
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      Fail(n == 0 ? "server closed a connection" : std::string("recv: ") + std::strerror(errno));
      broken_ = true;
      return false;
    }
  }
  while (!conn->queue.empty()) {
    const Pending& p = conn->queue.front();
    bool ok = true;
    if (ParseResponse(conn, p, &ok) == 0) {
      break;
    }
    const std::uint64_t now = cuckoo::NowNanos();
    if (!ok) {
      ++out->failed;
    }
    if (mode == Mode::kOpen) {
      WindowSamples& samples = p.get ? out->get_ns : out->set_ns;
      samples[WindowOf(p.due_ns)].push_back(ok ? now - p.due_ns : kFailedLatency);
    }
    if (now <= window_end) {
      ++out->commands;
      if (mode == Mode::kClosed) {
        ++out->window_commands[WindowOf(now)];
      }
    }
    if (ok && !p.get) {
      std::uint32_t& acked = keys_->acked[p.keys[0]];
      acked = std::max(acked, p.min_version[0]);
    }
    if (trace_ != nullptr) {
      trace_->Add({p.id, p.sent_ns, now, p.get ? SpanKind::kClientGet : SpanKind::kClientSet});
    }
    conn->queue.pop_front();
    ++*completed;
  }
  if (conn->in_off == conn->in.size()) {
    conn->in.clear();
    conn->in_off = 0;
  } else if (conn->in_off > (1u << 20)) {
    conn->in.erase(0, conn->in_off);
    conn->in_off = 0;
  }
  return !broken_;
}

bool LoadGen::Poll(std::uint64_t timeout_ns, Mode mode, std::uint64_t window_end,
                   PhaseStats* out, std::vector<int>* completed) {
  pollfd fds[16];
  const std::size_t n = conns_.size();
  for (std::size_t i = 0; i < n; ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
    fds[i].revents = 0;
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ull),
              static_cast<long>(timeout_ns % 1'000'000'000ull)};
  const int ready = ::ppoll(fds, n, &ts, nullptr);
  if (ready < 0 && errno != EINTR) {
    Fail(std::string("ppoll: ") + std::strerror(errno));
    broken_ = true;
    return false;
  }
  completed->assign(n, 0);
  for (std::size_t i = 0; i < n && ready > 0; ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !Receive(&conns_[i], mode, window_end, out, &(*completed)[i])) {
      return false;
    }
    if ((fds[i].revents & POLLOUT) != 0 && !Flush(&conns_[i])) {
      return false;
    }
  }
  const std::uint64_t now = cuckoo::NowNanos();
  if (sampler_ && now >= next_sample_ns_) {
    sampler_();
    next_sample_ns_ = now + kSamplePeriodNs;
  }
  for (const Conn& c : conns_) {
    if (!c.queue.empty() && now - c.queue.front().sent_ns > kRequestTimeoutNs) {
      Fail("request timed out after 30 s");
      broken_ = true;
      return false;
    }
  }
  return true;
}

bool LoadGen::Load(const KeyPicker& picker, int depth, PhaseStats* out) {
  const std::uint64_t conns = conns_.size();
  std::vector<std::uint64_t> next_rank(conns);
  for (std::uint64_t c = 0; c < conns; ++c) {
    next_rank[c] = c;
  }
  std::vector<int> completed(conns, depth);
  const std::uint64_t start = cuckoo::NowNanos();
  for (;;) {
    bool issued_any = false;
    for (std::uint64_t c = 0; c < conns; ++c) {
      for (int j = 0; j < completed[c] && next_rank[c] < picker.size(); ++j) {
        Op op;
        op.nkeys = 1;
        op.keys[0] = picker.KeyAt(next_rank[c]);
        op.conn = static_cast<int>(c);
        next_rank[c] += conns;
        Issue(&conns_[c], op, cuckoo::NowNanos(), out);
        issued_any = true;
      }
      if (issued_any && !Flush(&conns_[c])) {
        return false;
      }
    }
    if (Outstanding() == 0) {
      break;
    }
    if (!Poll(100'000'000, Mode::kLoad, ~std::uint64_t{0}, out, &completed)) {
      return false;
    }
  }
  out->seconds = static_cast<double>(cuckoo::NowNanos() - start) / 1e9;
  return !broken_;
}

bool LoadGen::RunOpen(OpStream* ops, double rate, double seconds, PhaseStats* out) {
  const double interval = 1e9 / rate;
  const std::uint64_t start = cuckoo::NowNanos() + 1'000'000;
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  BeginPhase(start, seconds);
  std::uint64_t issued = 0;
  std::uint64_t next_due = start;
  std::vector<int> completed;
  for (;;) {
    const std::uint64_t now = cuckoo::NowNanos();
    while (next_due <= now && next_due < end) {
      const Op op = ops->Next();
      Conn* conn = &conns_[static_cast<std::size_t>(op.conn)];
      Issue(conn, op, next_due, out);
      out->late_ns.push_back(conn->queue.back().sent_ns - next_due);
      ++issued;
      next_due = start + static_cast<std::uint64_t>(static_cast<double>(issued) * interval);
    }
    for (Conn& c : conns_) {
      if (!c.out.empty() && !Flush(&c)) {
        return false;
      }
    }
    if (next_due >= end && Outstanding() == 0) {
      break;
    }
    const std::uint64_t after = cuckoo::NowNanos();
    const std::uint64_t timeout =
        next_due < end ? (next_due > after ? next_due - after : 0) : 100'000'000;
    if (!Poll(timeout, Mode::kOpen, ~std::uint64_t{0}, out, &completed)) {
      return false;
    }
  }
  out->seconds = seconds;
  return !broken_;
}

bool LoadGen::RunClosed(OpStream* ops, double seconds, PhaseStats* out) {
  const std::uint64_t start = cuckoo::NowNanos();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  BeginPhase(start, seconds);
  std::vector<int> completed(conns_.size(), spec_.pipeline_depth);
  for (;;) {
    const std::uint64_t now = cuckoo::NowNanos();
    if (now < end) {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        for (int j = 0; j < completed[c]; ++j) {
          Issue(&conns_[c], ops->NextFor(static_cast<int>(c)), now, out);
        }
        if (completed[c] > 0 && !Flush(&conns_[c])) {
          return false;
        }
      }
    } else if (Outstanding() == 0) {
      break;
    }
    const std::uint64_t timeout = now < end ? end - now : 100'000'000;
    if (!Poll(timeout, Mode::kClosed, end, out, &completed)) {
      return false;
    }
  }
  out->seconds = seconds;
  return !broken_;
}

}  // namespace perfbench
