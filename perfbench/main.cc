// kvbench: one end-to-end run of one workload against the in-process
// serving stack, driven over unix sockets by a single-threaded load
// generator.
//
//   kvbench --workload <cache_read|durable_mixed|tiered_cold> --seed <n>
//           --seconds <s> --trace <0|1> [--dir <path>] [--keys-scale <f>]
//
// A run sets the stack up (three times, reporting the median, unless
// traced), then measures an open-loop phase at the workload's fixed offered
// rate (latency, timed from each request's due time) and a closed-loop
// phase at a fixed pipeline depth (throughput). It then stops the stack
// gracefully, recovers it from disk where there is a WAL, and checks every
// key. With --trace 1 it instead reports per-layer figures: spans around
// the observer and replication boundaries, stack counters, and the layer
// ladder. The last line of stdout is the JSON result.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/host.h"
#include "perfbench/ladder.h"
#include "perfbench/loadgen.h"
#include "perfbench/stack.h"
#include "perfbench/trace.h"
#include "perfbench/workload.h"
#include "src/benchkit/memory.h"
#include "src/common/file_util.h"
#include "src/common/timing.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kLoadDepth = 32;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_build/run";
  double keys_scale = 1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--dir") {
      a->dir = v;
    } else if (flag == "--keys-scale") {
      a->keys_scale = std::atof(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->keys_scale > 0 && a->keys_scale <= 1;
}

// ----- Result collection ------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.12g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

double Us(double ns) { return ns / 1e3; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Every window's samples in one vector, for the tail percentiles.
std::vector<std::uint64_t> Pooled(const WindowSamples& by_window) {
  std::vector<std::uint64_t> all;
  for (const std::vector<std::uint64_t>& w : by_window) {
    all.insert(all.end(), w.begin(), w.end());
  }
  return all;
}

// The median over windows of each window's median latency, in us. A host
// stall that covers fewer than half of the windows does not move it.
double WindowedP50Us(WindowSamples by_window) {
  std::vector<double> p50s;
  for (std::vector<std::uint64_t>& w : by_window) {
    if (!w.empty()) {
      p50s.push_back(Us(Quantile(&w, 0.5)));
    }
  }
  return Median(p50s);
}

// Closed-loop commands per second: the median over the phase's windows.
double WindowedRate(const PhaseStats& p) {
  std::vector<double> rates;
  const double window_s = p.seconds / static_cast<double>(kWindows);
  for (std::uint64_t n : p.window_commands) {
    rates.push_back(static_cast<double>(n) / window_s);
  }
  return Median(rates);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

cuckoo::obs::HistogramSnapshot Delta(const cuckoo::obs::HistogramSnapshot& after,
                                     const cuckoo::obs::HistogramSnapshot& before) {
  cuckoo::obs::HistogramSnapshot d = after;
  d.total = 0;
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] = after.counts[i] >= before.counts[i] ? after.counts[i] - before.counts[i] : 0;
    d.total += d.counts[i];
  }
  d.sum = after.sum - before.sum;
  return d;
}

// Stack counters read at a phase boundary; per-phase figures are deltas.
struct Counters {
  cuckoo::MapStatsSnapshot map;
  cuckoo::SocketServer::StatsSnapshot socket;
  cuckoo::obs::HistogramSnapshot cmd_get;
  cuckoo::obs::HistogramSnapshot cmd_set;
  cuckoo::persist::WalStats wal;
  std::uint64_t snapshots = 0;
  cuckoo::store::TieredStoreStats tier;
  cuckoo::obs::HistogramSnapshot disk_read;
};

Counters Capture(Stack& stack) {
  Counters c;
  c.map = stack.service().StoreStats();
  c.socket = stack.server().Stats();
  c.cmd_get = stack.service().CommandLatency(cuckoo::RequestType::kGet);
  c.cmd_set = stack.service().CommandLatency(cuckoo::RequestType::kSet);
  if (stack.durability() != nullptr) {
    c.wal = stack.durability()->wal().Stats();
    c.snapshots = stack.durability()->SnapshotsCompleted();
  }
  if (stack.tier() != nullptr) {
    c.tier = stack.tier()->Stats();
    c.disk_read = stack.tier()->DiskReadLatency();
  }
  return c;
}

void Merge(PhaseStats* into, const PhaseStats& from) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->gets += from.gets;
  into->get_keys += from.get_keys;
  into->sets += from.sets;
  into->set_user_bytes += from.set_user_bytes;
  into->commands += from.commands;
}

// Reads one key through the in-process service and checks it decodes to the
// expected version.
bool CheckKey(cuckoo::KvService& service, const WorkloadSpec& spec, std::uint64_t key,
              std::uint32_t want, std::string* reply, std::string* why) {
  cuckoo::Request r;
  r.type = cuckoo::RequestType::kGet;
  r.key = KeyName(key);
  reply->clear();
  service.Process(r, reply);
  const std::size_t eol = reply->find("\r\n");
  std::uint64_t got_key = 0;
  std::uint32_t version = 0;
  if (reply->compare(0, 6, "VALUE ") != 0 || eol == std::string::npos ||
      !DecodeValue(std::string_view(*reply).substr(eol + 2, spec.value_size), spec.value_size,
                   &got_key, &version) ||
      got_key != key || version != want) {
    *why = KeyName(key) + " does not hold its last acked version " + std::to_string(want);
    return false;
  }
  return true;
}

using EntryMap = std::unordered_map<std::string, std::string>;

EntryMap Entries(const cuckoo::KvService& service) {
  EntryMap m;
  for (int attempt = 0; attempt < 8; ++attempt) {
    m.clear();
    if (service.TrySnapshotEntries(
            [&m](const std::string& key, const cuckoo::KvService::StoredValue& v) {
              m[key] = std::to_string(v.flags) + "/" + std::to_string(v.cas_id) + "/" +
                       std::to_string(v.expires_at) + "/" + v.data;
            })) {
      break;
    }
  }
  return m;
}

// Bytes of the newest snapshot file in `dir`.
std::uint64_t SnapshotFileBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const std::string& name : cuckoo::ListFilesWithPrefix(dir, "snap-")) {
    bytes = std::max(bytes, cuckoo::FileSize(dir + "/" + name));
  }
  return bytes;
}

void PrintPhase(const char* name, const PhaseStats& p) {
  std::printf("phase %-8s %8.2f s  commands=%llu gets=%llu sets=%llu failed=%llu\n", name,
              p.seconds, static_cast<unsigned long long>(p.commands),
              static_cast<unsigned long long>(p.gets), static_cast<unsigned long long>(p.sets),
              static_cast<unsigned long long>(p.failed));
}

void PrintSettings(const WorkloadSpec& s) {
  const double user_bytes =
      static_cast<double>(s.keys) * static_cast<double>(kKeyBytes + s.value_size);
  std::printf("workload %s: %s\n", s.name, s.why);
  std::printf("settings keys=%llu value_bytes=%zu dataset_mb=%.1f get_fraction=%.2f "
              "keys_per_get=%d zipf_theta=%.2f\n",
              static_cast<unsigned long long>(s.keys), s.value_size, user_bytes / 1e6,
              s.get_fraction, s.keys_per_get, s.zipf_theta);
  std::printf("settings connections=%d pipeline_depth=%d open_rate=%.0f/s event_threads=%d\n",
              s.connections, s.pipeline_depth, s.open_rate, s.event_threads);
  std::printf("settings wal=%d fsync=%s wal_segment_bytes=%llu snapshot_trigger_bytes=%llu "
              "ack=%s\n",
              s.wal ? 1 : 0, s.wal ? cuckoo::persist::FsyncPolicyName(s.fsync) : "-",
              static_cast<unsigned long long>(s.wal_segment_bytes),
              static_cast<unsigned long long>(s.snapshot_trigger_bytes),
              s.replica ? "semi-sync(1 replica, 5000 ms timeout)" : "-");
  std::printf("settings tier=%d threshold_bytes=%zu hot_cache_bytes=%zu gc_trigger=%.2f "
              "vlog_segment_bytes=%llu dataset_vs_hot_cache=%.1fx\n",
              s.tier ? 1 : 0, s.tier_threshold, s.hot_cache_bytes, s.gc_trigger,
              static_cast<unsigned long long>(s.vlog_segment_bytes),
              s.tier ? user_bytes / static_cast<double>(s.hot_cache_bytes) : 0.0);
}

void PrintLadder(const LadderResult& l) {
  auto row = [](const char* track, int step, const char* name, double ns, double below) {
    if (ns <= 0) {
      std::printf("ladder %s %d %-18s %12s\n", track, step, name, "n/a");
    } else if (below <= 0) {
      std::printf("ladder %s %d %-18s %12.0f ns/op\n", track, step, name, ns);
    } else {
      std::printf("ladder %s %d %-18s %12.0f ns/op  %+12.0f vs step below\n", track, step,
                  name, ns, ns - below);
    }
  };
  row("get", 1, "table", l.table_get_ns, 0);
  row("get", 2, "Process", l.process_get_ns, l.table_get_ns);
  row("get", 3, "parse+Drive", l.drive_get_ns, l.process_get_ns);
  row("get", 4, "socket", l.socket_get_ns, l.drive_get_ns);
  row("set", 1, "table", l.table_set_ns, 0);
  row("set", 2, "Process", l.process_set_ns, l.table_set_ns);
  row("set", 3, "parse+Drive", l.drive_set_ns, l.process_set_ns);
  row("set", 4, "socket", l.socket_set_ns, l.drive_set_ns);
  row("set", 5, "+WAL", l.wal_set_ns, l.socket_set_ns);
  row("set", 5, "+WAL fsync=always", l.wal_always_set_ns, l.socket_set_ns);
  row("set", 6, "+replica", l.replica_set_ns, l.wal_set_ns);
  row("get", 7, "tier cold read", l.tier_cold_read_ns, 0);
  std::printf("ladder table share of a strict socket GET: %.3f\n",
              Ratio(l.table_get_ns, l.socket_get_ns));
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  WorkloadSpec spec = *found;
  if (args.keys_scale < 1) {
    // Self-check only: a shrunken dataset, same code paths.
    spec.keys = std::max<std::uint64_t>(
        4096, static_cast<std::uint64_t>(static_cast<double>(spec.keys) * args.keys_scale));
    spec.hot_cache_bytes = static_cast<std::size_t>(
        std::max(1.0, static_cast<double>(spec.hot_cache_bytes) * args.keys_scale));
  }
  const std::string base = args.dir + "/" + spec.name;
  RemoveDir(base);
  std::filesystem::create_directories(base);
  const std::string data_dir = base + "/stack";
  const std::string socket = base + "/kv.sock";

  PrintSettings(spec);
  const HostFacts host = CalibrateHost(base);
  std::printf("host vcpus=%d spin_1=%.3fs spin_%d=%.3fs parallelism=%.2f probe_kernel=%s "
              "thp=%s fs=%s l2=%llu KiB l3=%llu KiB dataset_vs_l2=%.1fx\n",
              host.vcpus, host.spin_1_s, host.vcpus, host.spin_n_s, host.parallelism,
              host.probe_kernel.c_str(), host.thp.c_str(), host.fs_type.c_str(),
              static_cast<unsigned long long>(host.l2_bytes >> 10),
              static_cast<unsigned long long>(host.l3_bytes >> 10),
              Ratio(static_cast<double>(spec.keys * (kKeyBytes + spec.value_size)),
                    static_cast<double>(host.l2_bytes)));

  KeyState keys(spec.keys);
  const KeyPicker picker(spec, args.seed);
  OpStream ops(spec, args.seed);
  LoadGen gen(spec, &keys);
  PhaseStats totals;
  SpanLog spans;
  std::vector<std::string> violations;
  auto fail_run = [&](const std::string& what) {
    std::fprintf(stderr, "FAIL %s: %s\n", spec.name, what.c_str());
    for (const std::string& e : gen.errors()) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    return 1;
  };

  // ---- Setup: start the stack and load the dataset through the wire.
  const int repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_s;
  double mem_ratio = 0;
  std::unique_ptr<Stack> stack;
  const double user_bytes =
      static_cast<double>(spec.keys) * static_cast<double>(kKeyBytes + spec.value_size);
  for (int rep = 0; rep < repeats; ++rep) {
    if (stack) {
      gen.Close();
      stack->Stop();
      stack.reset();
      RemoveDir(data_dir);
      keys = KeyState(spec.keys);
    }
    const std::size_t rss_before = cuckoo::CurrentRssBytes();
    const std::uint64_t t0 = cuckoo::NowNanos();
    stack = std::make_unique<Stack>(
        StackConfig{spec, data_dir, socket, args.trace ? &spans : nullptr});
    std::string error;
    if (!stack->Start(&error)) {
      return fail_run("stack start: " + error);
    }
    PhaseStats load;
    if (!gen.Connect(socket) || !gen.Load(picker, kLoadDepth, &load) || !stack->Settle()) {
      return fail_run("load");
    }
    setup_s.push_back(static_cast<double>(cuckoo::NowNanos() - t0) / 1e9);
    Merge(&totals, load);
    if (rep == 0) {
      mem_ratio = static_cast<double>(cuckoo::CurrentRssBytes() - rss_before) / user_bytes;
    }
    std::printf("setup %d: %.3f s (%llu keys loaded)\n", rep, setup_s.back(),
                static_cast<unsigned long long>(load.sets));
  }
  const cuckoo::MapStatsSnapshot after_load = stack->service().StoreStats();

  // ---- Measured phases.
  PhaseStats open;
  PhaseStats closed;
  PhaseStats untraced;
  std::uint64_t lag_max = 0;
  Counters c_open;
  if (args.trace) {
    if (!gen.RunClosed(&ops, args.seconds * 0.25, &untraced)) {
      return fail_run("untraced closed loop");
    }
    PrintPhase("untraced", untraced);
    Merge(&totals, untraced);
    stack->BeginTracing(keys.acked);
    cuckoo::repl::ReplicationHub* hub = stack->hub();
    gen.SetTrace(&spans, [hub, &lag_max] {
      if (hub != nullptr) {
        lag_max = std::max(lag_max, hub->LagLsns());
      }
    });
  }
  const Counters c1 = Capture(*stack);
  if (!gen.RunOpen(&ops, spec.open_rate, args.seconds * 0.5, &open)) {
    return fail_run("open loop");
  }
  c_open = Capture(*stack);
  PrintPhase("open", open);
  if (!gen.RunClosed(&ops, args.seconds * (args.trace ? 0.25 : 0.5), &closed)) {
    return fail_run("closed loop");
  }
  PrintPhase("closed", closed);
  gen.SetTrace(nullptr, nullptr);
  const Counters c2 = Capture(*stack);
  Merge(&totals, open);
  Merge(&totals, closed);

  // ---- Replica convergence: byte-exact equality with the primary.
  double converge_ms = 0;
  if (spec.replica) {
    const std::uint64_t t0 = cuckoo::NowNanos();
    bool same = false;
    while (!same && cuckoo::NowNanos() - t0 < 10'000'000'000ull) {
      if (stack->hub()->LagLsns() == 0) {
        const EntryMap primary = Entries(stack->service());
        const EntryMap replica = Entries(*stack->replica_service());
        same = primary == replica && primary.size() == spec.keys;
      }
      if (!same) {
        ::usleep(2000);
      }
    }
    converge_ms = static_cast<double>(cuckoo::NowNanos() - t0) / 1e6;
    ++totals.attempted;
    if (!same) {
      ++totals.failed;
      violations.push_back("replica does not match the primary byte for byte");
    }
    std::printf("replica converged=%d in %.2f ms\n", same ? 1 : 0, converge_ms);
  }

  // ---- Graceful stop, then recovery from disk with every key checked.
  const std::uint64_t snapshot_bytes = spec.wal ? SnapshotFileBytes(stack->WalDir()) : 0;
  const cuckoo::obs::HistogramSnapshot walk =
      spec.wal ? stack->durability()->SnapshotWalkSnapshot() : cuckoo::obs::HistogramSnapshot{};
  const cuckoo::obs::HistogramSnapshot append_ns =
      stack->observer() != nullptr ? stack->observer()->AppendNs()
                                   : cuckoo::obs::HistogramSnapshot{};
  const cuckoo::obs::HistogramSnapshot on_commit_ns =
      stack->bridge() != nullptr ? stack->bridge()->OnCommitNs()
                                 : cuckoo::obs::HistogramSnapshot{};
  gen.Close();
  stack->Stop();
  stack.reset();
  double recovery_s = 0;
  std::uint64_t replayed = 0;
  if (spec.wal) {
    Recovered rec;
    std::string error;
    if (!Recover(spec, data_dir, &rec, &error)) {
      return fail_run("recovery: " + error);
    }
    recovery_s = rec.seconds;
    replayed = rec.durability->recovery().wal_records_applied;
    std::string reply;
    std::string why;
    std::uint64_t bad = 0;
    for (std::uint64_t k = 0; k < spec.keys; ++k) {
      if (!CheckKey(*rec.service, spec, k, keys.acked[k], &reply, &why)) {
        if (bad++ == 0) {
          violations.push_back("after recovery " + why);
        }
      }
    }
    totals.attempted += spec.keys;
    totals.failed += bad;
    std::printf("recovery %.3f s: snapshot_entries=%llu wal_records=%llu, %llu keys checked, "
                "%llu wrong\n",
                recovery_s,
                static_cast<unsigned long long>(rec.durability->recovery().snapshot_entries),
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(spec.keys), static_cast<unsigned long long>(bad));
  }
  for (const std::string& e : gen.errors()) {
    violations.push_back(e);
  }

  // ---- Figures shared by both modes.
  PhaseStats measured;
  Merge(&measured, open);
  Merge(&measured, closed);
  const double set_bytes = static_cast<double>(measured.set_user_bytes);
  const double wal_bytes = static_cast<double>(c2.wal.bytes_appended - c1.wal.bytes_appended);
  const double vlog_bytes =
      static_cast<double>(c2.tier.log.append_bytes - c1.tier.log.append_bytes);
  const double snap_bytes =
      static_cast<double>((c2.snapshots - c1.snapshots) * snapshot_bytes);
  const double disk_ratio =
      spec.wal || spec.tier ? Ratio(wal_bytes + snap_bytes + vlog_bytes, set_bytes) : 0;
  const double error_ratio =
      Ratio(static_cast<double>(totals.failed), static_cast<double>(totals.attempted));
  // Tails are reported, not bounded: on a small shared VM, p90 and p99 of
  // the disk-backed workloads follow host and device stalls and spread 20-70%
  // between runs, past any bound a regression gate could use. p50 is the
  // median of the windows' medians; the tails pool every window.
  std::vector<std::uint64_t> get_ns = Pooled(open.get_ns);
  std::vector<std::uint64_t> set_ns = Pooled(open.set_ns);
  const double get_p50 = WindowedP50Us(open.get_ns);
  const double get_p90 = Us(Quantile(&get_ns, 0.9));
  const double get_p99 = Us(Quantile(&get_ns, 0.99));
  const double set_p50 = WindowedP50Us(open.set_ns);
  const double set_p90 = Us(Quantile(&set_ns, 0.9));
  const double set_p99 = Us(Quantile(&set_ns, 0.99));
  std::printf("latency open-loop gets=%zu (beyond p99: %zu) p50=%.1f (pooled %.1f) p90=%.1f "
              "p99=%.1f max=%.1f us\n",
              get_ns.size(), get_ns.size() / 100, get_p50, Us(Quantile(&get_ns, 0.5)), get_p90,
              get_p99, Us(Quantile(&get_ns, 1.0)));
  std::printf("latency open-loop sets=%zu (beyond p99: %zu) p50=%.1f (pooled %.1f) p90=%.1f "
              "p99=%.1f max=%.1f us\n",
              set_ns.size(), set_ns.size() / 100, set_p50, Us(Quantile(&set_ns, 0.5)), set_p90,
              set_p99, Us(Quantile(&set_ns, 1.0)));
  std::printf("throughput closed-loop median of %zu windows %.0f/s (whole phase %.0f/s)\n",
              kWindows, WindowedRate(closed),
              Ratio(static_cast<double>(closed.commands), closed.seconds));
  std::printf("info error_ratio=%.6g recovery_s=%.6g disk_bytes_per_user_byte=%.6g "
              "(0 = not applicable to this workload)\n",
              error_ratio, recovery_s, disk_ratio);
  std::printf("gate checked responses=%llu failed=%llu violations=%zu\n",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed), violations.size());

  Report report;
  if (!args.trace) {
    report.Add("throughput_ops_s", WindowedRate(closed), "ops/s");
    report.Add("get_p50_us", get_p50, "us");
    report.Add("set_p50_us", set_p50, "us");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("mem_bytes_per_user_byte", mem_ratio, "ratio");
  } else {
    const LadderResult ladder = RunLadder(spec, args.seed, base);
    if (!ladder.ok) {
      violations.push_back(ladder.error);
      ++totals.failed;
    }
    PrintLadder(ladder);
    std::vector<Span> all = spans.Take();
    WriteSpans(all, args.dir + "/" + spec.name + ".spans.tsv");
    const SetBreakdown sb = AnalyzeSets(all);

    const cuckoo::obs::HistogramSnapshot cmd_get = Delta(c_open.cmd_get, c1.cmd_get);
    const cuckoo::obs::HistogramSnapshot cmd_set = Delta(c_open.cmd_set, c1.cmd_set);
    const double cmd_get_p50 = Us(static_cast<double>(cmd_get.P50()));
    const double cmd_set_p50 = Us(static_cast<double>(cmd_set.P50()));
    const double table_ops =
        static_cast<double>(measured.get_keys + measured.sets);
    const cuckoo::MapStatsSnapshot& m1 = c1.map;
    const cuckoo::MapStatsSnapshot& m2 = c2.map;

    // Blocking path of a GET and a SET: self times against the client median.
    std::printf("breakdown get: client p50 %.1f us = server Process p50 %.1f us (table per "
                "ladder %.1f us) + socket/event loop/queueing remainder %.1f us\n",
                get_p50, cmd_get_p50, Us(ladder.table_get_ns), get_p50 - cmd_get_p50);
    if (sb.requests > 0) {
      const double sum = sb.rest_p50_us + sb.on_set_p50_us + sb.wait_durable_self_p50_us +
                         sb.wait_replicated_p50_us;
      std::printf("breakdown set (%llu traced requests): client send-to-ack p50 %.1f us = "
                  "the rest (socket, parse, value log, table, event loop) %.1f + OnSet %.1f + "
                  "WaitDurable self %.1f + WaitReplicated %.1f; remainder of medians %.1f us\n",
                  static_cast<unsigned long long>(sb.requests), sb.client_p50_us,
                  sb.rest_p50_us, sb.on_set_p50_us, sb.wait_durable_self_p50_us,
                  sb.wait_replicated_p50_us, sb.client_p50_us - sum);
    } else {
      std::printf("breakdown set: client p50 %.1f us = server Process p50 %.1f us + "
                  "remainder %.1f us\n",
                  set_p50, cmd_set_p50, set_p50 - cmd_set_p50);
    }

    report.Add("get_p90_us", get_p90, "us");
    report.Add("get_p99_us", get_p99, "us");
    report.Add("set_p90_us", set_p90, "us");
    report.Add("set_p99_us", set_p99, "us");
    report.Add("cuckoo.lookup_ns", ladder.lookup_ns, "ns");
    report.Add("cuckoo.batch_lookup_ns_per_key", ladder.batch_lookup_ns_per_key, "ns");
    report.Add("cuckoo.upsert_ns", ladder.upsert_ns, "ns");
    report.Add("cuckoo.read_retry_ratio",
               Ratio(static_cast<double>(m2.read_retries - m1.read_retries),
                     static_cast<double>(m2.lookups - m1.lookups)),
               "ratio");
    report.Add("cuckoo.lock_contended_ratio",
               Ratio(static_cast<double>(m2.lock_contended - m1.lock_contended), table_ops),
               "ratio");
    report.Add("cuckoo.expansions", static_cast<double>(after_load.expansions), "count");
    report.Add("cuckoo.migration_max_stall_us",
               Us(static_cast<double>(after_load.migration_max_stall_ns)), "us");
    report.Add("kvserver.parse_ns", ladder.parse_ns, "ns");
    report.Add("kvserver.drive_ns", ladder.drive_get_ns, "ns");
    report.Add("kvserver.cmd_get_p50_us", cmd_get_p50, "us");
    report.Add("kvserver.cmd_set_p50_us", cmd_set_p50, "us");
    report.Add("kvserver.socket_share", get_p50 > 0 ? 1 - cmd_get_p50 / get_p50 : 0, "ratio");
    report.Add("kvserver.bytes_per_op",
               Ratio(static_cast<double>(c2.socket.bytes_read + c2.socket.bytes_written -
                                         c1.socket.bytes_read - c1.socket.bytes_written),
                     static_cast<double>(measured.commands)),
               "bytes");
    report.Add("persist.append_ns", static_cast<double>(append_ns.P50()), "ns");
    report.Add("persist.wait_durable_p50_us", sb.wait_durable_self_p50_us, "us");
    report.Add("persist.wait_durable_p99_us", sb.wait_durable_self_p99_us, "us");
    report.Add("persist.acks_per_fsync",
               Ratio(static_cast<double>(c2.wal.records_appended - c1.wal.records_appended),
                     static_cast<double>(std::max<std::uint64_t>(1, c2.wal.fsyncs - c1.wal.fsyncs))),
               "ratio");
    report.Add("persist.snapshot_walk_ms", static_cast<double>(walk.P50()) / 1e6, "ms");
    report.Add("persist.snapshots", static_cast<double>(c2.snapshots - c1.snapshots), "count");
    report.Add("persist.wal_bytes_per_user_byte", Ratio(wal_bytes, set_bytes), "ratio");
    report.Add("persist.replayed_records", static_cast<double>(replayed), "count");
    report.Add("repl.wait_replicated_p50_us", sb.wait_replicated_p50_us, "us");
    report.Add("repl.wait_replicated_p99_us", sb.wait_replicated_p99_us, "us");
    report.Add("repl.on_commit_ns", static_cast<double>(on_commit_ns.P50()), "ns");
    report.Add("repl.lag_lsn_max", static_cast<double>(lag_max), "lsn");
    report.Add("repl.converge_ms", converge_ms, "ms");
    const cuckoo::store::TieredStoreStats& t1 = c1.tier;
    const cuckoo::store::TieredStoreStats& t2 = c2.tier;
    const cuckoo::obs::HistogramSnapshot disk = Delta(c2.disk_read, c1.disk_read);
    report.Add("store.hot_hit_ratio",
               Ratio(static_cast<double>(t2.hot_hits - t1.hot_hits),
                     static_cast<double>(t2.hot_hits - t1.hot_hits + t2.hot_misses - t1.hot_misses)),
               "ratio");
    report.Add("store.disk_reads_per_get",
               Ratio(static_cast<double>(t2.disk_reads - t1.disk_reads),
                     static_cast<double>(measured.get_keys)),
               "ratio");
    report.Add("store.disk_read_p50_us", Us(static_cast<double>(disk.P50())), "us");
    report.Add("store.disk_read_p99_us", Us(static_cast<double>(disk.P99())), "us");
    report.Add("store.parked_ratio",
               spec.tier ? Ratio(static_cast<double>(c2.socket.parked_reads - c1.socket.parked_reads),
                                 static_cast<double>(measured.gets))
                         : 0,
               "ratio");
    report.Add("store.read_value_us", Us(ladder.tier_cold_read_ns), "us");
    report.Add("store.gc_relocated",
               static_cast<double>(t2.gc_records_relocated - t1.gc_records_relocated), "count");
    report.Add("store.vlog_bytes_per_user_byte", Ratio(vlog_bytes, set_bytes), "ratio");
    std::vector<std::uint64_t> late = open.late_ns;
    report.Add("loadgen.late_p99_us", Us(Quantile(&late, 0.99)), "us");
    report.Add("loadgen.achieved_ops_s",
               Ratio(static_cast<double>(open.commands), open.seconds), "ops/s");
    report.Add("host.vcpus", host.vcpus, "count");
    report.Add("host.parallelism", host.parallelism, "x");
    report.Add("host.probe_kernel", host.probe_level, "level");
    report.Add("host.thp", host.thp_mode, "mode");
    report.Add("trace.overhead_ratio",
               Ratio(Ratio(static_cast<double>(closed.commands), closed.seconds),
                     Ratio(static_cast<double>(untraced.commands), untraced.seconds)),
               "ratio");
    report.Add("ladder.table_share_get", Ratio(ladder.table_get_ns, ladder.socket_get_ns),
               "ratio");
    report.Add("ladder.fsync_always_set_us", Us(ladder.wal_always_set_ns), "us");
    report.Add("error_ratio", error_ratio, "ratio");
    report.Add("recovery_s", recovery_s, "s");
    report.Add("disk_bytes_per_user_byte", disk_ratio, "ratio");
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
  }
  const bool correct = violations.empty() && totals.failed == 0;
  RemoveDir(base);
  report.PrintJson(correct, totals.attempted, totals.failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--dir <path>] [--keys-scale <f>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
