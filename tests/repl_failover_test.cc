// Replication failover and fault-injection suite: real multi-process
// clusters (one cuckoo_kv_server per role) wired over loopback TCP, with a
// userspace proxy in front of the replication link so the tests can drop,
// partition, and throttle it.
//
// The headline guarantee under test: at --ack=semi-sync, a client ack
// implies the record is applied on a replica, so kill -9 of the primary
// followed by `replicaof none` promotion loses nothing that was ever
// acknowledged. Async mode only promises convergence, which the lag/fault
// tests pin down.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/file_util.h"
#include "src/persist/wal.h"
#include "tests/process_harness.h"

namespace cuckoo {
namespace {

using testsupport::Client;
using testsupport::HttpGet;
using testsupport::ServerProcess;
using testsupport::StatValue;
using testsupport::TempDir;

std::string ValueFor(int i) { return "value-" + std::to_string(i) + "-payload"; }

// Spin (10ms steps) until the replica serves `value` for `key`; false on
// timeout. Opens a fresh connection per probe so a dead server fails fast
// instead of wedging a stale fd.
bool WaitForKey(const std::string& sock, const std::string& key,
                const std::string& value, int spins = 1500) {
  for (int i = 0; i < spins; ++i) {
    Client probe(sock);
    if (probe.connected() && probe.Get(key) == value) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// Spin until `stats` reports `name` with a value accepted by `pred`.
template <typename Pred>
long long WaitForStat(const std::string& sock, const std::string& name, Pred pred,
                      int spins = 1500) {
  long long value = -1;
  for (int i = 0; i < spins; ++i) {
    Client probe(sock);
    value = StatValue(probe.Roundtrip("stats\r\n", "END\r\n"), name);
    if (pred(value)) {
      return value;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return value;
}

std::vector<std::string> PrimaryArgs() {
  // --tcp-port=0: the replication link runs over TCP; 0 = ephemeral, the
  // harness reads the bound port off the READY line.
  return {"--tcp-port=0"};
}

// ---- Fault-injection proxy --------------------------------------------------

// A loopback TCP proxy the replica dials instead of the primary. Three
// faults, switchable at runtime:
//   DropConnections() — RST every proxied pair (link flap; forces the
//                       replica through its reconnect/resume path).
//   SetPaused(true)   — partition: primary->replica bytes are buffered, not
//                       delivered (acks keep flowing, so the primary sees a
//                       live but infinitely lagging replica). Unpausing
//                       releases the buffer in order — no corruption.
//   SetThrottle(n)    — slow link: at most n bytes delivered per 20ms slice.
class TcpProxy {
 public:
  explicit TcpProxy(int target_port) : target_port_(target_port) {
    Listen();  // ASSERTs live there
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~TcpProxy() {
    stop_.store(true, std::memory_order_release);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    DropConnections();
    for (std::thread& t : pumps_) {
      t.join();
    }
  }

  int port() const { return port_; }
  void SetPaused(bool paused) { paused_.store(paused, std::memory_order_release); }
  void SetThrottle(std::size_t bytes_per_slice) {
    throttle_.store(bytes_per_slice, std::memory_order_release);
  }

  // Hard-close every currently proxied connection (both sides).
  void DropConnections() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : conn_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    // Pump threads observe EOF, deregister their fd, and close it — the fd
    // stays in conn_fds_ until then so this never touches a recycled number.
  }

 private:
  void Listen() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd_, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }

  void AcceptLoop() {
    while (!stop_.load(std::memory_order_acquire)) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) {
        return;  // listener shut down
      }
      const int upstream = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(target_port_));
      if (upstream < 0 ||
          ::connect(upstream, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(client);
        if (upstream >= 0) {
          ::close(upstream);
        }
        continue;
      }
      const int one = 1;
      ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::setsockopt(upstream, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::lock_guard<std::mutex> lock(mu_);
      conn_fds_.push_back(client);
      conn_fds_.push_back(upstream);
      // Faults only shape the downstream direction (primary -> replica, the
      // WAL frames); acks keep flowing so "partitioned" reads as a live,
      // lagging peer rather than a dead one.
      pumps_.emplace_back([this, upstream, client] { Pump(upstream, client, true); });
      pumps_.emplace_back([this, client, upstream] { Pump(client, upstream, false); });
    }
  }

  void Pump(int from, int to, bool shaped) {
    std::string pending;
    char buf[16384];
    bool open = true;
    while (open || !pending.empty()) {
      if (open) {
        pollfd pfd{from, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 20);
        if (rc > 0) {
          const ssize_t n = ::read(from, buf, sizeof(buf));
          if (n <= 0) {
            open = false;
          } else {
            pending.append(buf, static_cast<std::size_t>(n));
          }
        }
      } else if (pending.empty() || stop_.load(std::memory_order_acquire)) {
        break;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (shaped && paused_.load(std::memory_order_acquire) &&
          !stop_.load(std::memory_order_acquire)) {
        continue;  // partition: hold the bytes
      }
      std::size_t quota = pending.size();
      if (shaped) {
        const std::size_t throttle = throttle_.load(std::memory_order_acquire);
        if (throttle != 0 && throttle < quota) {
          quota = throttle;  // slow link: one slice per loop turn
        }
      }
      std::size_t off = 0;
      while (off < quota) {
        const ssize_t n = ::send(to, pending.data() + off, quota - off, MSG_NOSIGNAL);
        if (n <= 0) {
          open = false;
          pending.clear();
          off = 0;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
      pending.erase(0, off);
    }
    ::shutdown(to, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < conn_fds_.size(); ++i) {
        if (conn_fds_[i] == from) {
          conn_fds_.erase(conn_fds_.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
    ::close(from);  // each pump owns its `from` fd; the paired pump closes `to`
  }

  int target_port_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::atomic<std::size_t> throttle_{0};
  std::mutex mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> pumps_;
};

// ---- Tests ------------------------------------------------------------------

TEST(ReplFailoverTest, AsyncReplicaConvergesServesReadsAndRejectsWrites) {
  TempDir dir;
  const std::string psock = dir.path + "/primary.sock";
  const std::string rsock = dir.path + "/replica.sock";

  std::vector<std::string> pargs = PrimaryArgs();
  pargs.push_back("--ack=async");
  pargs.push_back("--metrics-port=0");
  ServerProcess primary(dir.path + "/pwal", psock, "always", pargs);
  ASSERT_GT(primary.tcp_port(), 0);
  EXPECT_EQ(primary.repl_role(), "primary");

  Client load(psock);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(load.Set("key" + std::to_string(i), ValueFor(i)));
  }

  ServerProcess replica(
      dir.path + "/rwal", rsock, "always",
      {"--replicaof=127.0.0.1:" + std::to_string(primary.tcp_port())});
  EXPECT_EQ(replica.repl_role(), "replica");

  // The replica announces itself read-only and serves the streamed data.
  ASSERT_TRUE(WaitForKey(rsock, "key499", ValueFor(499)));
  Client reader(rsock);
  for (int i = 0; i < 500; i += 31) {
    EXPECT_EQ(reader.Get("key" + std::to_string(i)), ValueFor(i));
  }
  const std::string refused =
      reader.Roundtrip("set nope 0 0 1\r\nx\r\n", "\r\n");
  EXPECT_NE(refused.find("SERVER_ERROR read only replica"), std::string::npos)
      << refused;
  EXPECT_NE(refused.find("127.0.0.1:" + std::to_string(primary.tcp_port())),
            std::string::npos)
      << refused;
  const std::string rstats = reader.Roundtrip("stats\r\n", "END\r\n");
  EXPECT_NE(rstats.find("STAT repl_role replica\r\n"), std::string::npos) << rstats;
  EXPECT_NE(rstats.find("STAT repl_state streaming\r\n"), std::string::npos) << rstats;
  EXPECT_GE(StatValue(rstats, "replica_applied_records"), 500) << rstats;

  // Primary sees one connected, caught-up replica, over stats and /metrics.
  EXPECT_EQ(WaitForStat(psock, "repl_replicas", [](long long v) { return v == 1; }), 1);
  EXPECT_EQ(WaitForStat(psock, "repl_lag_lsn", [](long long v) { return v == 0; }), 0);
  const std::string page = HttpGet(primary.metrics_port(), "/metrics");
  EXPECT_NE(page.find("cuckoo_repl_lag_lsn 0\n"), std::string::npos) << page;
  EXPECT_NE(page.find("cuckoo_repl_replicas 1\n"), std::string::npos) << page;

  // Writes keep replicating after the initial catch-up.
  ASSERT_TRUE(load.Set("late", "late-value"));
  EXPECT_TRUE(WaitForKey(rsock, "late", "late-value"));
}

TEST(ReplFailoverTest, SemiSyncKill9FailoverLosesNoAckedWrite) {
  TempDir dir;
  const std::string psock = dir.path + "/primary.sock";
  const std::string rsock = dir.path + "/replica.sock";

  std::vector<std::string> pargs = PrimaryArgs();
  pargs.push_back("--ack=semi-sync");
  ServerProcess primary(dir.path + "/pwal", psock, "always", pargs);
  ServerProcess replica(
      dir.path + "/rwal", rsock, "always",
      {"--replicaof=127.0.0.1:" + std::to_string(primary.tcp_port())});
  // Make sure the replica is attached before the load starts, so acks are
  // genuinely replica-gated rather than degraded-mode.
  ASSERT_EQ(WaitForStat(psock, "repl_replicas", [](long long v) { return v == 1; }), 1);

  std::atomic<int> last_acked{-1};
  std::thread loader([&] {
    Client client(psock);
    for (int i = 0; i < 100000; ++i) {
      if (!client.Set("key" + std::to_string(i), ValueFor(i))) {
        return;  // EOF/EPIPE: the primary died; i was NOT acked
      }
      last_acked.store(i, std::memory_order_release);
    }
  });
  while (last_acked.load(std::memory_order_acquire) < 300) {
    std::this_thread::yield();
  }
  primary.Kill9();
  loader.join();
  const int acked = last_acked.load(std::memory_order_acquire);
  ASSERT_GE(acked, 300);

  // Promote the survivor. It must accept the promotion, flip its role, and
  // hold every write the dead primary ever acknowledged.
  Client admin(rsock);
  EXPECT_EQ(admin.Roundtrip("replicaof none\r\n", "\r\n"), "OK\r\n");
  const std::string stats = admin.Roundtrip("stats\r\n", "END\r\n");
  EXPECT_NE(stats.find("STAT repl_role primary\r\n"), std::string::npos) << stats;
  for (int i = 0; i <= acked; ++i) {
    ASSERT_EQ(admin.Get("key" + std::to_string(i)), ValueFor(i))
        << "semi-sync acked write key" << i << " lost in failover";
  }
  // The promoted node is a real primary: writes flow again.
  ASSERT_TRUE(admin.Set("post-failover", "v"));
  EXPECT_EQ(admin.Get("post-failover"), "v");
}

TEST(ReplFailoverTest, SemiSyncWithoutReplicasDegradesToLocalAcks) {
  TempDir dir;
  const std::string psock = dir.path + "/primary.sock";
  std::vector<std::string> pargs = PrimaryArgs();
  pargs.push_back("--ack=semi-sync");
  ServerProcess primary(dir.path + "/pwal", psock, "always", pargs);

  // No replica connected: semi-sync must not brick the server — writes ack
  // locally and the degradation is visible in stats.
  Client client(psock);
  ASSERT_TRUE(client.Set("k", "v"));
  EXPECT_EQ(client.Get("k"), "v");
  const std::string stats = client.Roundtrip("stats\r\n", "END\r\n");
  EXPECT_GE(StatValue(stats, "repl_degraded_acks"), 1) << stats;
  EXPECT_NE(stats.find("STAT repl_ack semi-sync\r\n"), std::string::npos) << stats;
}

TEST(ReplFailoverTest, ReplicaBootstrapsViaFullSyncAfterWalGc) {
  TempDir dir;
  const std::string psock = dir.path + "/primary.sock";
  const std::string rsock = dir.path + "/replica.sock";
  const std::string pwal = dir.path + "/pwal";

  std::vector<std::string> pargs = PrimaryArgs();
  pargs.push_back("--segment-bytes=4096");
  ServerProcess primary(pwal, psock, "always", pargs);
  Client load(psock);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(load.Set("key" + std::to_string(i), ValueFor(i)));
  }
  // Snapshot + segment GC: with no replica connected there is no holdback,
  // so every sealed segment (including the one holding LSN 1) is removed.
  // A replica that connected before GC would resume by SYNC from LSN 1 and
  // never need the FULLSYNC under test, so wait until that segment is gone.
  ASSERT_EQ(load.Roundtrip("bgsave\r\n", "\r\n"), "OK\r\n");
  bool gc_done = false;
  for (int spin = 0; spin < 1000 && !gc_done; ++spin) {
    gc_done = true;
    for (const std::string& name : ListFilesWithPrefix(pwal, "wal-")) {
      std::uint64_t first_lsn = 0;
      gc_done &= !(persist::internal::ParseSegmentName(name, &first_lsn) && first_lsn == 1);
    }
    if (!gc_done) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(gc_done) << "snapshot GC never removed the first WAL segment";

  // A brand-new replica asks for LSN 1, which is gone: the primary must
  // bootstrap it with a full snapshot, then stream the tail.
  ServerProcess replica(
      dir.path + "/rwal", rsock, "always",
      {"--replicaof=127.0.0.1:" + std::to_string(primary.tcp_port())});
  // The replica loads the snapshot into its live table entry by entry, in
  // bucket order, and bumps both bootstrap counters only once the load is
  // complete: until then one key being present says nothing about another.
  EXPECT_GE(WaitForStat(rsock, "repl_client_full_syncs",
                        [](long long v) { return v >= 1; }),
            1);
  EXPECT_GE(WaitForStat(rsock, "replica_resyncs", [](long long v) { return v >= 1; }),
            1);
  ASSERT_TRUE(WaitForKey(rsock, "key399", ValueFor(399)));
  Client reader(rsock);
  for (int i = 0; i < 400; i += 17) {
    EXPECT_EQ(reader.Get("key" + std::to_string(i)), ValueFor(i));
  }
  Client pstats(psock);
  EXPECT_GE(StatValue(pstats.Roundtrip("stats\r\n", "END\r\n"), "repl_full_syncs"), 1);

  // The bootstrapped replica keeps tailing live writes.
  ASSERT_TRUE(load.Set("after-fullsync", "v"));
  EXPECT_TRUE(WaitForKey(rsock, "after-fullsync", "v"));
}

TEST(ReplFailoverTest, LinkFlapReconnectsAndConverges) {
  TempDir dir;
  const std::string psock = dir.path + "/primary.sock";
  const std::string rsock = dir.path + "/replica.sock";

  ServerProcess primary(dir.path + "/pwal", psock, "always", PrimaryArgs());
  TcpProxy proxy(primary.tcp_port());
  ServerProcess replica(dir.path + "/rwal", rsock, "always",
                        {"--replicaof=127.0.0.1:" + std::to_string(proxy.port())});

  Client load(psock);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(load.Set("key" + std::to_string(i), ValueFor(i)));
  }
  ASSERT_TRUE(WaitForKey(rsock, "key199", ValueFor(199)));

  // Flap the link, keep writing through the outage, and verify the replica
  // resumes from its own WAL position and converges on the whole history.
  proxy.DropConnections();
  for (int i = 200; i < 400; ++i) {
    ASSERT_TRUE(load.Set("key" + std::to_string(i), ValueFor(i)));
  }
  ASSERT_TRUE(WaitForKey(rsock, "key399", ValueFor(399)));
  Client reader(rsock);
  for (int i = 0; i < 400; i += 23) {
    EXPECT_EQ(reader.Get("key" + std::to_string(i)), ValueFor(i));
  }
  EXPECT_GE(StatValue(reader.Roundtrip("stats\r\n", "END\r\n"), "repl_reconnects"), 1);
}

TEST(ReplFailoverTest, PartitionShowsLagThenHealsWithoutLoss) {
  TempDir dir;
  const std::string psock = dir.path + "/primary.sock";
  const std::string rsock = dir.path + "/replica.sock";

  ServerProcess primary(dir.path + "/pwal", psock, "always", PrimaryArgs());
  TcpProxy proxy(primary.tcp_port());
  ServerProcess replica(dir.path + "/rwal", rsock, "always",
                        {"--replicaof=127.0.0.1:" + std::to_string(proxy.port())});
  Client load(psock);
  ASSERT_TRUE(load.Set("pre", "v"));
  ASSERT_TRUE(WaitForKey(rsock, "pre", "v"));

  // Partition the downstream direction. Async writes keep acking; the
  // primary's lag gauge must expose the growing debt.
  proxy.SetPaused(true);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(load.Set("part" + std::to_string(i), ValueFor(i)));
  }
  EXPECT_GT(WaitForStat(psock, "repl_lag_lsn", [](long long v) { return v > 0; }), 0);
  {
    Client reader(rsock);
    EXPECT_EQ(reader.Get("part149"), "") << "write crossed a partitioned link";
  }

  // Heal: the buffered frames drain in order; no reconnect, no loss.
  proxy.SetPaused(false);
  ASSERT_TRUE(WaitForKey(rsock, "part149", ValueFor(149)));
  EXPECT_EQ(WaitForStat(psock, "repl_lag_lsn", [](long long v) { return v == 0; }), 0);
  Client reader(rsock);
  for (int i = 0; i < 150; i += 13) {
    EXPECT_EQ(reader.Get("part" + std::to_string(i)), ValueFor(i));
  }
}

TEST(ReplFailoverTest, SlowLinkStillConvergesAndNeverBlocksAsyncAcks) {
  TempDir dir;
  const std::string psock = dir.path + "/primary.sock";
  const std::string rsock = dir.path + "/replica.sock";

  ServerProcess primary(dir.path + "/pwal", psock, "always", PrimaryArgs());
  TcpProxy proxy(primary.tcp_port());
  // ~2 KB per 20ms slice: slower than the write burst below, so the stream
  // visibly trails the load, but fast enough for the test to converge.
  proxy.SetThrottle(2048);
  ServerProcess replica(dir.path + "/rwal", rsock, "always",
                        {"--replicaof=127.0.0.1:" + std::to_string(proxy.port())});

  Client load(psock);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(load.Set("key" + std::to_string(i), ValueFor(i)));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Async acks are local-durability-only: a slow replica link must not leak
  // into the client write path. 300 fsync=always sets finish in well under
  // a minute even on a loaded CI box; the bound just catches pathological
  // coupling (e.g. acks gated on the throttled stream).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 60);

  ASSERT_TRUE(WaitForKey(rsock, "key299", ValueFor(299)));
  Client reader(rsock);
  for (int i = 0; i < 300; i += 29) {
    EXPECT_EQ(reader.Get("key" + std::to_string(i)), ValueFor(i));
  }
}

}  // namespace
}  // namespace cuckoo
