#include "harness/workload_common.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "jjc/jjc.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "udf/generic_udf.h"

namespace perfbench {

using jaguar::Database;
using jaguar::DatabaseOptions;
using jaguar::QueryResult;
using jaguar::Result;

void Accumulate(Totals* into, const Totals& delta) {
  for (const auto& [name, value] : delta) (*into)[name] += value;
}

uint64_t Get(const Totals& t, const std::string& name) {
  auto it = t.find(name);
  return it == t.end() ? 0 : it->second;
}

void RemoveDbFiles(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".wal", ec);
  std::filesystem::remove(path + ".wal.tmp", ec);
}

std::unique_ptr<Database> OpenFresh(const std::string& path,
                                    const DatabaseOptions& options) {
  RemoveDbFiles(path);
  Result<std::unique_ptr<Database>> db = Database::Open(path, options);
  if (!db.ok()) {
    throw HarnessError("open " + path + ": " + db.status().ToString());
  }
  return std::move(db).value();
}

QueryResult MustExecute(Database* db, const std::string& sql) {
  Result<QueryResult> r = db->Execute(sql);
  if (!r.ok()) {
    throw HarnessError(sql.substr(0, 120) + " -> " + r.status().ToString());
  }
  return std::move(r).value();
}

void Phase::Record(const std::string& kind, bool is_read, int64_t start_ns,
                   int64_t end_ns, bool ok, const Totals* delta,
                   uint64_t rows) {
  ++attempted;
  if (!ok) ++failed;
  const double ns = static_cast<double>(end_ns - start_ns);
  KindStats& k = kinds[kind];
  k.latency_ns.push_back(ns);
  k.rows += rows;
  if (is_read) read_latency_ns.push_back(ns);
  if (tracer.enabled() && delta != nullptr) {
    Accumulate(&k.delta, *delta);
    Accumulate(&this->delta, *delta);
  }
}

double RunClosedLoop(double seconds,
                     const std::function<void(uint64_t)>& step) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t i = 0;
  do {
    step(i++);
  } while (NowNs() < deadline);
  return static_cast<double>(NowNs() - start) / 1e9;
}

double MedianProbeNs(int reps, const std::function<void()>& fn,
                     Tracer* tracer, const std::string& layer) {
  std::vector<double> ns;
  ns.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    const int64_t t1 = NowNs();
    ns.push_back(static_cast<double>(t1 - t0));
    if (tracer != nullptr) tracer->Record(layer, t0, t1, -1, 0);
  }
  return Percentile(std::move(ns), 50);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t ProcWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  throw HarnessError("cannot read wchar from /proc/self/io");
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

namespace {

std::string Kernel() {
  struct utsname u {};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release + " " + u.machine;
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

void AddRunContext(Report* report, const RunOptions& opts) {
  report->SetContext("workload", opts.workload);
  report->SetContext("seed", std::to_string(opts.seed));
  report->SetContext("seconds", std::to_string(opts.seconds));
  report->SetContext("trace", opts.trace ? "1" : "0");
  report->SetContext("scale", opts.tiny ? "tiny" : "full");
  report->SetContext("nproc",
                     std::to_string(std::thread::hardware_concurrency()));
  report->SetContext("compiler", std::string("gcc-compatible ") + __VERSION__);
  report->SetContext("build_type", PERFBENCH_BUILD_TYPE);
  report->SetContext("cxx_flags", PERFBENCH_CXX_FLAGS);
  report->SetContext("kernel", Kernel());
  const std::string flags = std::string(PERFBENCH_CXX_FLAGS);
  const bool sanitized =
      SanitizerBuild() || flags.find("-fsanitize") != std::string::npos;
#ifdef NDEBUG
  const bool debug = false;
#else
  const bool debug = true;
#endif
  report->SetContext("sanitizer_build", sanitized ? "YES (numbers invalid)" : "no");
  report->SetContext("debug_build", debug ? "YES (numbers invalid)" : "no");
}

void AddSetup(Report* report, const std::vector<double>& setup_seconds) {
  report->Add("setup_s", "s", Percentile(setup_seconds, 50),
              "median of n=" + std::to_string(setup_seconds.size()) +
                  " set-ups");
}

void AddCommonEndToEnd(Report* report, const std::string& prefix,
                       const Phase& phase) {
  report->Add(prefix + "throughput_qps", "1/s",
              static_cast<double>(phase.attempted) / phase.elapsed_s,
              "= " + std::to_string(phase.attempted) + " statements / " +
                  std::to_string(phase.elapsed_s) + " s");
  report->AddQuantile(prefix + "read_p50_ms", "ms",
                      QuantileOf(phase.read_latency_ns, 50), 1e6);
  report->AddQuantile(prefix + "read_p90_ms", "ms",
                      QuantileOf(phase.read_latency_ns, 90), 1e6);
  report->AddRatio(prefix + "error_rate", "frac",
                   Ratio{static_cast<double>(phase.failed),
                         static_cast<double>(phase.attempted)});
  if (prefix.empty()) report->Add("peak_rss_mb", "MB", PeakRssMb());
}

void AddCommonProbes(Report* report, Database* db,
                     const std::string& statement, uint32_t hot_page,
                     Tracer* probes) {
  const double parse_ns = MedianProbeNs(
      200,
      [&] {
        if (!jaguar::sql::Parse(statement).ok()) {
          throw HarnessError("probe statement does not parse: " + statement);
        }
      },
      probes, "sql");
  report->Add("sql.parse_us", "us", parse_ns / 1e3, "median of 200");
  auto* registry = jaguar::obs::MetricsRegistry::Global();
  size_t entries = 0;
  const double snap_ns = MedianProbeNs(
      200, [&] { entries = registry->Snapshot("").size(); }, probes, "obs");
  report->Add("obs.snapshot_us", "us", snap_ns / 1e3, "median of 200");
  report->Add("obs.registered_metrics", "count",
              static_cast<double>(entries), "snapshot entries");
  jaguar::BufferPool* pool = db->storage()->buffer_pool();
  {
    auto warm = pool->FetchPage(hot_page);
    if (!warm.ok()) throw HarnessError("fetch probe: " + warm.status().ToString());
  }
  const double fetch_ns = MedianProbeNs(
      1000,
      [&] {
        auto guard = pool->FetchPage(hot_page);
        if (!guard.ok()) throw HarnessError(guard.status().ToString());
      },
      probes, "storage");
  report->Add("storage.fetch_hot_us", "us", fetch_ns / 1e3, "median of 1000");
}

void RegisterGenericDesigns(Database* db) {
  using jaguar::TypeId;
  using jaguar::UdfLanguage;
  const std::vector<TypeId> sig = {TypeId::kBytes, TypeId::kInt, TypeId::kInt,
                                   TypeId::kInt};
  auto must = [&](jaguar::UdfInfo info) {
    const std::string name = info.name;
    jaguar::Status s = db->RegisterUdf(std::move(info));
    if (!s.ok()) throw HarnessError("register " + name + ": " + s.ToString());
  };
  must({"g_cpp", UdfLanguage::kNative, TypeId::kInt, sig, "generic_udf", {}});
  must({"g_bcpp", UdfLanguage::kNativeChecked, TypeId::kInt, sig,
        "generic_udf_checked", {}});
  must({"g_sfi", UdfLanguage::kNativeSfi, TypeId::kInt, sig, "generic_udf",
        {}});
  must({"g_icpp", UdfLanguage::kNativeIsolated, TypeId::kInt, sig,
        "generic_udf", {}});
  Result<jaguar::jvm::ClassFile> cf =
      jaguar::jjc::Compile(jaguar::GenericUdfJJavaSource());
  if (!cf.ok()) throw HarnessError("jjc: " + cf.status().ToString());
  must({"g_jni", UdfLanguage::kJJava, TypeId::kInt, sig, "GenericUdf.run",
        cf->Serialize()});
  must({"g_ijni", UdfLanguage::kJJavaIsolated, TypeId::kInt, sig,
        "GenericUdf.run", cf->Serialize()});
}

uint64_t Mix(uint64_t seed, uint64_t i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t PayloadSeed(uint64_t seed, uint64_t i) {
  return static_cast<int64_t>((Mix(seed, i) & 0x7fffffffULL) | 1ULL);
}

void AddSpaceAmp(Report* report, Database* db, const std::string& path,
                 uint64_t live_user_bytes) {
  jaguar::Status flushed = db->Flush();
  if (!flushed.ok()) throw HarnessError("flush: " + flushed.ToString());
  report->AddRatio("space_amp", "ratio",
                   {static_cast<double>(FileBytes(path) + FileBytes(path + ".wal")),
                    static_cast<double>(live_user_bytes)});
}

const std::vector<std::string>& DesignKeys() {
  static const std::vector<std::string> keys = {"cpp",  "bcpp", "sfi_cpp",
                                                "jni",  "icpp", "ijni"};
  return keys;
}

bool IsIsolatedDesign(const std::string& key) {
  return key == "icpp" || key == "ijni";
}

void AttributeLayers(Tracer* tracer, int root, const Totals& delta,
                     const std::map<std::string, double>& fixed) {
  if (root < 0) return;
  const Span parent = tracer->spans()[static_cast<size_t>(root)];
  int64_t cursor = parent.start_ns;
  auto lay = [&](const std::string& layer, double ns) {
    if (ns <= 0 || cursor >= parent.end_ns) return;
    const int64_t end =
        std::min(parent.end_ns, cursor + static_cast<int64_t>(ns));
    tracer->Record(layer, cursor, end, root, parent.request);
    cursor = end;
  };
  for (const auto& [layer, ns] : fixed) lay(layer, ns);
  for (const std::string& d : DesignKeys()) {
    lay(IsIsolatedDesign(d) ? "ipc" : "udf",
        static_cast<double>(Get(delta, "udf." + d + ".latency_ns.sum")));
  }
  lay("jvm", static_cast<double>(Get(delta, "jvm.jit.compile_ns.sum")));
}

namespace {

double D(uint64_t v) { return static_cast<double>(v); }

Ratio PerKind(const Phase& p, const std::string& kind,
              const std::function<double(const KindStats&)>& num) {
  auto it = p.kinds.find(kind);
  if (it == p.kinds.end()) return {0, 0};
  return {num ? num(it->second) : 0, D(it->second.latency_ns.size())};
}

/// One design's counters over a phase. Where the phase has a statement kind
/// named after the design (udf_scan), only that kind's statements count and
/// the design's runner key is used: BC++ and the base no-op UDF report
/// under the C++ runner's "udf.cpp." counters.
struct DesignTotals {
  double calls = 0;
  double latency_ns = 0;
  double arg_bytes = 0;
  double crossings = 0;
  /// Time of the statements that invoked the design.
  double stmt_ns = 0;
};

DesignTotals DesignTotalsOf(const Phase& p, const std::string& design) {
  auto sum = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  };
  DesignTotals dt;
  auto read = [&](const Totals& t, const std::string& key) {
    const std::string base = "udf." + key + ".";
    dt.calls += D(Get(t, base + "invocations"));
    dt.latency_ns += D(Get(t, base + "latency_ns.sum"));
    dt.arg_bytes += D(Get(t, base + "arg_bytes"));
    dt.crossings += D(Get(t, base + "latency_ns.count"));
  };
  auto own = p.kinds.find(design);
  if (own != p.kinds.end()) {
    read(own->second.delta, design == "bcpp" ? "cpp" : design);
    dt.stmt_ns = sum(own->second.latency_ns);
    return dt;
  }
  read(p.delta, design);
  for (const auto& [kind, k] : p.kinds) {
    if (Get(k.delta, "udf." + design + ".invocations") > 0) {
      dt.stmt_ns += sum(k.latency_ns);
    }
  }
  return dt;
}

}  // namespace

void AddLayerMetrics(Report* report, const Phase& untraced,
                     const Phase& traced, const LayerInputs& inputs) {
  const Totals& t = traced.delta;
  const double stmts = D(traced.attempted);
  auto fetches = [](const Totals& d) {
    return D(Get(d, "storage.bufferpool.hits") +
             Get(d, "storage.bufferpool.misses"));
  };

  // storage
  const double hits = D(Get(t, "storage.bufferpool.hits"));
  const double misses = D(Get(t, "storage.bufferpool.misses"));
  report->AddRatio("storage.hit_ratio", "frac", {hits, hits + misses});
  report->AddRatio("storage.misses_per_stmt", "count", {misses, stmts});
  report->AddRatio("storage.evictions_per_stmt", "count",
                   {D(Get(t, "storage.bufferpool.evictions")), stmts});
  report->AddRatio("storage.io_waits_per_stmt", "count",
                   {D(Get(t, "storage.bufferpool.io_waits")), stmts});
  report->AddRatio("storage.readahead_useful_ratio", "frac",
                   {D(Get(t, "storage.bufferpool.readahead.hits")),
                    D(Get(t, "storage.bufferpool.readahead.issued"))});
  report->AddRatio("storage.fetches_per_insert", "count",
                   PerKind(traced, "insert", [&](const KindStats& k) {
                     return fetches(k.delta);
                   }));

  // wal
  const double writes = PerKind(traced, "insert", nullptr).base +
                        PerKind(traced, "update", nullptr).base;
  report->AddRatio("wal.bytes_per_user_byte", "ratio",
                   {D(Get(t, "wal.bytes")), D(inputs.user_bytes_written)});
  report->AddRatio("wal.fsyncs_per_write", "count",
                   {D(Get(t, "wal.fsyncs")), writes});
  report->AddRatio("wal.group_commit_ratio", "frac",
                   {D(Get(t, "wal.group_commits")), writes});
  report->AddRatio("wal.backfill_bytes_per_row", "B",
                   inputs.backfill_wal_bytes_per_row);

  // index / exec
  report->AddRatio("index.lookups_per_select", "count",
                   PerKind(traced, "select", [](const KindStats& k) {
                     return D(Get(k.delta, "exec.index.lookups"));
                   }));
  report->AddRatio("exec.update_rows_examined_per_row", "count",
                   inputs.update_rows_examined);
  report->AddRatio("exec.morsels_per_query", "count",
                   {D(Get(t, "exec.parallel.morsels")), stmts});
  report->AddRatio("exec.partial_merges_per_query", "count",
                   {D(Get(t, "exec.agg.partial_merges")), stmts});
  report->AddRatio("exec.runs_merged_per_query", "count",
                   {D(Get(t, "exec.sort.runs_merged")), stmts});

  // udf: per design, then across designs.
  double udf_rows = 0;
  double crossings = 0;
  double isolated_rows = 0;
  for (const std::string& d : DesignKeys()) {
    const DesignTotals dt = DesignTotalsOf(traced, d);
    const std::string base = "udf." + d + ".";
    report->AddRatio(base + "time_share", "frac", {dt.latency_ns, dt.stmt_ns});
    report->AddRatio(base + "ns_per_call", "ns", {dt.latency_ns, dt.calls});
    report->AddRatio(base + "arg_bytes_per_call", "B",
                     {dt.arg_bytes, dt.calls});
    udf_rows += dt.calls;
    crossings += dt.crossings;
    if (IsIsolatedDesign(d)) isolated_rows += dt.calls;
  }
  report->AddRatio("udf.callbacks_per_row", "count",
                   {D(Get(t, "udf.callbacks")), udf_rows});
  report->AddRatio("udf.crossings_per_row", "count", {crossings, udf_rows});
  report->AddRatio("udf.pool.waits_per_query", "count",
                   {D(Get(t, "udf.pool.waits")), stmts});

  // jvm (in-process JNI design; an isolated JVM's counters stay in the child)
  report->AddRatio("jvm.boundary.crossings_per_row", "count",
                   {D(Get(t, "jvm.boundary.crossings")),
                    D(Get(t, "udf.jni.invocations"))});
  report->Add("jvm.interp.bytecodes", "count",
              D(Get(t, "jvm.interp.bytecodes")), "parent process only");

  // ipc (parent side of IC++/IJNI crossings)
  const double messages = D(Get(t, "ipc.shm.messages"));
  report->AddRatio("ipc.messages_per_row", "count", {messages, isolated_rows});
  report->AddRatio("ipc.payload_bytes_per_row", "B",
                   {D(Get(t, "ipc.shm.payload_bytes")), isolated_rows});
  report->AddRatio("ipc.ring.parks_per_message", "count",
                   {D(Get(t, "ipc.ring.parks")), messages});
  report->AddRatio("ipc.ring.spins_per_message", "count",
                   {D(Get(t, "ipc.ring.spins")), messages});

  // trace
  report->Add("trace.residual_frac", "frac",
              ResidualFraction(traced.tracer.spans()),
              "statement time not covered by attributed layer spans");
  for (const auto& layer : SelfTimeByLayer(traced.tracer.spans())) {
    report->Add("trace.self_ms." + layer.first, "ms",
                static_cast<double>(layer.second) / 1e6,
                "summed self time over the traced phase");
  }
  auto overhead = [&](const std::string& name, double u, double tr) {
    report->Add("trace.overhead_frac." + name, "frac", u == 0 ? 0 : tr / u - 1,
                "traced " + std::to_string(tr) + " vs untraced " +
                    std::to_string(u));
  };
  overhead("read_p50_ms", Percentile(untraced.read_latency_ns, 50),
           Percentile(traced.read_latency_ns, 50));
  overhead("read_p90_ms", Percentile(untraced.read_latency_ns, 90),
           Percentile(traced.read_latency_ns, 90));
  // Throughput: lower is worse, so report the traced run's loss as positive.
  const double u_qps = D(untraced.attempted) / untraced.elapsed_s;
  const double t_qps = D(traced.attempted) / traced.elapsed_s;
  report->Add("trace.overhead_frac.throughput_qps", "frac",
              t_qps == 0 ? 0 : u_qps / t_qps - 1,
              "untraced " + std::to_string(u_qps) + " vs traced " +
                  std::to_string(t_qps) + " statements/s");
}

}  // namespace perfbench
