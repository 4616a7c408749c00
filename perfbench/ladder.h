// Layer ladder: one workload's generated commands replayed at each public
// boundary of the stack, one layer more per step, so each layer's cost is
// its difference from the step below. GET track: table, Process, parse +
// Drive, unix-socket round trip. SET track adds the WAL (at the workload's
// fsync policy, and again at fsync=always) and the replica.
// The tier's cold read is its own step. All steps run strictly one command
// at a time, on an otherwise idle process.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <string>

#include "perfbench/workload.h"

namespace perfbench {

// Nanoseconds per command unless named otherwise; 0 = step not applicable.
struct LadderResult {
  bool ok = true;
  std::string error;
  // GET track (a command is one multi-get on cache_read).
  double table_get_ns = 0;
  double process_get_ns = 0;
  double drive_get_ns = 0;
  double socket_get_ns = 0;
  // SET track.
  double table_set_ns = 0;
  double process_set_ns = 0;
  double drive_set_ns = 0;
  double socket_set_ns = 0;
  double wal_set_ns = 0;         // with the workload's fsync policy
  double wal_always_set_ns = 0;  // the same step with fsync=always
  double replica_set_ns = 0;
  double tier_cold_read_ns = 0;
  // Table and parser figures in their own units.
  double lookup_ns = 0;                // WithValue, per key
  double batch_lookup_ns_per_key = 0;  // 16-key WithValueBatch
  double upsert_ns = 0;                // loading from 2^10 buckets, per key
  double parse_ns = 0;                 // RequestParser, per GET command
};

LadderResult RunLadder(const WorkloadSpec& spec, std::uint64_t seed, const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
