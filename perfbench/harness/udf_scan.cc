// udf_scan: the paper's query SELECT g(R.ByteArray, 20, 1, 1) FROM Rel100 R
// WHERE R.id < 10000, rotated over the six UDF designs plus the Fig. 4 base
// scan (the same statement with a no-op C++ UDF). Tuple-at-a-time execution
// (default options): one boundary crossing per row. The udf, jvm and ipc
// layers do almost all the work; storage, wal and net do almost none.

#include <algorithm>
#include <iterator>

#include "common/random.h"
#include "common/string_util.h"
#include "harness/workload_common.h"
#include "udf/generic_udf.h"

namespace perfbench {

namespace {

using jaguar::Database;
using jaguar::QueryResult;

constexpr int64_t kIndep = 20;
constexpr int64_t kDep = 1;
constexpr int64_t kCallbacks = 1;
constexpr size_t kPayloadBytes = 100;
constexpr int kSetups = 5;  // set-up is cheap here; more makes its median steadier

struct Kind {
  std::string name;  // report key: "base" or the design key
  std::string fn;
};

const std::vector<Kind>& Kinds() {
  static const std::vector<Kind> kinds = {
      {"base", "noop_udf"}, {"cpp", "g_cpp"},   {"bcpp", "g_bcpp"},
      {"sfi_cpp", "g_sfi"}, {"jni", "g_jni"},   {"icpp", "g_icpp"},
      {"ijni", "g_ijni"}};
  return kinds;
}

/// One round of the closed loop, as indices into Kinds(). The costs form
/// three clusters: base and the three in-process C++ designs, JNI (about
/// 1.4x), and the isolated designs (about 5x). Running IC++ and IJNI twice
/// per round puts the median of all statements (4.5 of 9) in the middle of
/// the JNI cluster rather than at the upper edge of the C++ cluster.
constexpr size_t kRound[] = {0, 1, 2, 3, 4, 5, 6, 5, 6};

std::string Query(const std::string& fn, int64_t rows) {
  return jaguar::StringPrintf(
      "SELECT %s(R.ByteArray, %lld, %lld, %lld) FROM Rel100 R WHERE R.id < %lld",
      fn.c_str(), static_cast<long long>(kIndep), static_cast<long long>(kDep),
      static_cast<long long>(kCallbacks), static_cast<long long>(rows));
}

/// Row-for-row comparison of a result's single INT column with `expected`.
bool SameColumn(const QueryResult& r, const std::vector<int64_t>& expected) {
  if (r.rows.size() != expected.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    const jaguar::Tuple& t = r.rows[i];
    if (t.num_values() != 1 || t.value(0).type() != jaguar::TypeId::kInt ||
        t.value(0).AsInt() != expected[i]) {
      return false;
    }
  }
  return true;
}

struct Env {
  std::unique_ptr<Database> db;
  double jit_compile_ms = 0;
};

}  // namespace

RunResult RunUdfScan(const RunOptions& opts) {
  RunResult out;
  Report& report = out.report;
  AddRunContext(&report, opts);
  const int64_t rows = opts.tiny ? 500 : 10000;

  // Client-side model: what every design must return, row by row.
  std::vector<int64_t> expected(static_cast<size_t>(rows));
  std::vector<int64_t> zeros(static_cast<size_t>(rows), 0);
  for (int64_t id = 0; id < rows; ++id) {
    jaguar::Random rng(static_cast<uint64_t>(PayloadSeed(opts.seed, id)));
    expected[static_cast<size_t>(id)] = jaguar::GenericUdfExpected(
        rng.Bytes(kPayloadBytes), kIndep, kDep, kCallbacks);
  }
  auto expected_for = [&](const Kind& k) -> const std::vector<int64_t>& {
    return k.name == "base" ? zeros : expected;
  };

  jaguar::DatabaseOptions options;
  // 2048 pages (16 MB) hold Rel100 (about 1.5 MB) many times over.
  options.buffer_pool_pages = 2048;

  const std::string db_path = opts.run_dir + "/udf_scan.db";
  std::vector<double> setup_s;
  Env env;
  for (int rep = 0; rep < kSetups; ++rep) {
    env = Env{};
    const int64_t t0 = NowNs();
    env.db = OpenFresh(db_path, options);
    Database* db = env.db.get();
    MustExecute(db, "CREATE TABLE Rel100 (id INT, ByteArray BYTEARRAY)");
    const int64_t batch = 500;
    for (int64_t base = 0; base < rows; base += batch) {
      std::string sql = "INSERT INTO Rel100 VALUES ";
      for (int64_t id = base; id < std::min(rows, base + batch); ++id) {
        if (id > base) sql += ", ";
        sql += jaguar::StringPrintf("(%lld, randbytes(%zu, %lld))",
                                    static_cast<long long>(id), kPayloadBytes,
                                    static_cast<long long>(
                                        PayloadSeed(opts.seed, id)));
      }
      MustExecute(db, sql);
    }
    RegisterGenericDesigns(db);
    // Warm-up: JIT compile, executor spawn, runner cache fill.
    for (const Kind& k : Kinds()) {
      QueryResult r = MustExecute(db, Query(k.fn, rows));
      if (!SameColumn(r, expected_for(k))) {
        report.Note("warm-up result of " + k.name + " differs from the model");
        out.checks_ok = false;
      }
      auto it = r.metrics_delta.find("jvm.jit.compile_ns.sum");
      if (it != r.metrics_delta.end()) {
        env.jit_compile_ms += static_cast<double>(it->second) / 1e6;
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  AddSetup(&report, setup_s);
  Database* db = env.db.get();

  auto run_phase = [&](double seconds, bool traced,
                       const std::map<std::string, double>& fixed) {
    Phase phase;
    phase.tracer = Tracer(traced);
    phase.elapsed_s = RunClosedLoop(seconds, [&](uint64_t i) {
      const Kind& k = Kinds()[kRound[i % std::size(kRound)]];
      const std::string sql = Query(k.fn, rows);
      const int64_t t0 = NowNs();
      jaguar::Result<QueryResult> r = db->Execute(sql);
      const int64_t t1 = NowNs();
      const bool ok = r.ok() && SameColumn(*r, expected_for(k));
      const Totals* delta = r.ok() ? &r->metrics_delta : nullptr;
      phase.Record(k.name, true, t0, t1, ok, delta, 0);
      if (traced && delta != nullptr) {
        const int root =
            phase.tracer.Record("stmt", t0, t1, -1, static_cast<uint64_t>(i + 1));
        AttributeLayers(&phase.tracer, root, *delta, fixed);
      }
    });
    return phase;
  };

  auto add_workload_metrics = [&](const std::string& prefix,
                                   const Phase& phase) {
    for (const Kind& k : Kinds()) {
      auto it = phase.kinds.find(k.name);
      if (it == phase.kinds.end()) continue;
      const std::string name = k.name == "base"
                                   ? prefix + "exec.base_scan_ms"
                                   : prefix + "udf_" + k.name + "_p50_ms";
      report.AddQuantile(name, "ms", QuantileOf(it->second.latency_ns, 50),
                         1e6);
    }
  };

  auto add_space = [&] {
    AddSpaceAmp(&report, db, db_path,
                static_cast<uint64_t>(rows) * (8 + kPayloadBytes));
  };

  if (!opts.trace) {
    Phase phase = run_phase(opts.seconds, false, {});
    AddCommonEndToEnd(&report, "", phase);
    add_workload_metrics("", phase);
    add_space();
    out.attempted = phase.attempted;
    out.failed = phase.failed;
  } else {
    Phase untraced = run_phase(opts.seconds / 2, false, {});
    AddCommonEndToEnd(&report, "", untraced);
    add_workload_metrics("", untraced);
    add_space();
    Tracer probes(true);
    AddCommonProbes(&report, db, Query("g_cpp", rows),
                    db->catalog()->GetTable("Rel100").value()->first_page,
                    &probes);
    const std::map<std::string, double> fixed = {
        {"sql", report.Value("sql.parse_us") * 1e3},
        {"obs", 2 * report.Value("obs.snapshot_us") * 1e3}};
    Phase traced = run_phase(opts.seconds / 2, true, fixed);
    AddCommonEndToEnd(&report, "traced.", traced);
    add_workload_metrics("traced.", traced);
    std::vector<double> all;
    for (const auto& [name, k] : traced.kinds) {
      all.insert(all.end(), k.latency_ns.begin(), k.latency_ns.end());
    }
    report.AddQuantile("engine.execute_us", "us", QuantileOf(all, 50), 1e3);
    report.Add("jvm.jit.compile_ms", "ms", env.jit_compile_ms,
               "JIT compile time during the last set-up's warm-up");
    AddLayerMetrics(&report, untraced, traced, LayerInputs{});
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
  }
  report.Note(
      "udf.icpp.* / udf.ijni.* and ipc.* are parent-side counts: executor "
      "children keep their own counters (docs/METRICS.md)");
  env.db.reset();
  RemoveDbFiles(db_path);
  return out;
}

}  // namespace perfbench
