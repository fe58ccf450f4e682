#ifndef PERFBENCH_HARNESS_WORKLOAD_COMMON_H_
#define PERFBENCH_HARNESS_WORKLOAD_COMMON_H_

/// \file workload_common.h
/// Pieces every workload shares: run options, the closed-loop phase record,
/// set-up timing, probes of single layers, and the metrics derived from the
/// summed `QueryResult::metrics_delta` counters of a traced phase.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/stats.h"
#include "engine/database.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for database files; created empty and removed at the end.
  std::string run_dir;
  /// Small data sizes for smoke tests (PERFBENCH_SCALE=tiny).
  bool tiny = false;
};

struct RunResult {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when a check outside the timed statements failed (durability,
  /// a wrong warm-up result).
  bool checks_ok = true;
};

RunResult RunUdfScan(const RunOptions& opts);
RunResult RunAnalytic(const RunOptions& opts);
RunResult RunOltp(const RunOptions& opts);

/// A failure of the harness itself (set-up, probes): the run is void.
class HarnessError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using Totals = std::map<std::string, uint64_t>;

void Accumulate(Totals* into, const Totals& delta);
uint64_t Get(const Totals& t, const std::string& name);

/// Removes the database file and its WAL, then opens a fresh database.
std::unique_ptr<jaguar::Database> OpenFresh(
    const std::string& path, const jaguar::DatabaseOptions& options);
/// Runs a set-up statement; throws HarnessError on failure.
jaguar::QueryResult MustExecute(jaguar::Database* db, const std::string& sql);
void RemoveDbFiles(const std::string& path);

/// Latencies and (when traced) summed counters of one statement kind.
struct KindStats {
  std::vector<double> latency_ns;
  Totals delta;
  /// Rows the kind's statements wrote (0 for reads).
  uint64_t rows = 0;
};

/// One closed-loop measurement window.
struct Phase {
  std::map<std::string, KindStats> kinds;
  /// Latencies of the statements that count as reads (read_p50/p90).
  std::vector<double> read_latency_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  /// Sum of every statement's metrics_delta (traced phases only).
  Totals delta;
  /// Statement spans plus the layer spans attributed inside them; enabled
  /// in traced phases.
  Tracer tracer{false};

  /// Records one statement: latency, outcome and (traced) its counters.
  void Record(const std::string& kind, bool is_read, int64_t start_ns,
              int64_t end_ns, bool ok, const Totals* delta, uint64_t rows);
};

/// Calls `step(i)` for i = 0, 1, ... until `seconds` have elapsed (at least
/// once); returns the elapsed seconds.
double RunClosedLoop(double seconds, const std::function<void(uint64_t)>& step);

/// Median of `reps` timings of `fn`, in nanoseconds. With `tracer` set, each
/// timing is also recorded as a span of `layer`.
double MedianProbeNs(int reps, const std::function<void()>& fn,
                     Tracer* tracer = nullptr, const std::string& layer = "");

double PeakRssMb();
/// Bytes this process passed to write(2)-family calls on files (socket
/// sends are not counted): WAL appends plus data-page write-back.
uint64_t ProcWriteBytes();
uint64_t FileBytes(const std::string& path);

/// Seed, nproc, compiler, build type, kernel, sanitizer/debug flags.
void AddRunContext(Report* report, const RunOptions& opts);

/// The end-to-end metrics every workload reports: setup_s, throughput_qps,
/// read_p50_ms, read_p90_ms, error_rate, peak_rss_mb. `prefix` is "" for
/// the untraced phase and "traced." for the traced one.
void AddCommonEndToEnd(Report* report, const std::string& prefix,
                       const Phase& phase);
void AddSetup(Report* report, const std::vector<double>& setup_seconds);

/// Per-layer probes on an open database: sql.parse_us (parsing
/// `statement`), obs.snapshot_us, obs.registered_metrics and
/// storage.fetch_hot_us (fetching resident page `hot_page`).
void AddCommonProbes(Report* report, jaguar::Database* db,
                     const std::string& statement, uint32_t hot_page,
                     Tracer* probes);

/// Extra inputs to the per-layer ratios that counters alone do not give.
struct LayerInputs {
  /// Bytes of user data the phase's acknowledged writes stored.
  uint64_t user_bytes_written = 0;
  /// Full-table rows examined per updated row (UPDATE scans the heap).
  Ratio update_rows_examined;
  /// CREATE INDEX during set-up: WAL bytes and rows indexed.
  Ratio backfill_wal_bytes_per_row;
};

/// Per-layer metrics derived from a traced phase's counters (0 when the
/// layer was idle on this workload), plus trace.residual_frac and the
/// tracing overhead against the untraced phase.
void AddLayerMetrics(Report* report, const Phase& untraced,
                     const Phase& traced, const LayerInputs& inputs);

/// Attributes the layer time a statement's counters reveal to child spans
/// of `root`: UDF crossing time (in-process designs → "udf", isolated
/// designs → "ipc"), JIT compile time ("jvm"), plus fixed per-statement
/// costs measured by probes (`fixed`: layer → ns). Children are laid end
/// to end from the root's start and clipped to it.
void AttributeLayers(Tracer* tracer, int root, const Totals& delta,
                     const std::map<std::string, double>& fixed);

/// Registers the paper's generic UDF under every design as g_cpp, g_bcpp,
/// g_sfi, g_jni, g_icpp and g_ijni (signature BYTEARRAY, INT, INT, INT).
void RegisterGenericDesigns(jaguar::Database* db);

/// splitmix64 of (seed, i): independent, reproducible per-row values.
uint64_t Mix(uint64_t seed, uint64_t i);
/// A positive 31-bit `randbytes` seed for row `i`.
int64_t PayloadSeed(uint64_t seed, uint64_t i);

/// space_amp: database plus WAL file bytes per live user byte, taken after
/// a checkpoint (Database::Flush) so the log's position in its
/// auto-checkpoint cycle does not decide the number.
void AddSpaceAmp(Report* report, jaguar::Database* db, const std::string& path,
                 uint64_t live_user_bytes);

/// The six design metric keys in Table 1 order.
const std::vector<std::string>& DesignKeys();
/// True for the designs whose UDF runs in a child process.
bool IsIsolatedDesign(const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_COMMON_H_
