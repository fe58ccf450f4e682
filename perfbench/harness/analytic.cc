// analytic: GROUP BY, ORDER BY ... LIMIT and a filtered scan that aggregates
// an IJNI UDF, with vectorized execution, batch_size 256 and 4 workers, over
// one table about four times the default 8 MB buffer pool. The exec morsel,
// aggregate and sort layers and storage scan/readahead/eviction do the work;
// net and wal do none.

#include <algorithm>
#include <map>
#include <numeric>

#include "common/random.h"
#include "common/string_util.h"
#include "harness/workload_common.h"
#include "udf/generic_udf.h"

namespace perfbench {

namespace {

using jaguar::Database;
using jaguar::QueryResult;
using jaguar::StringPrintf;

constexpr int64_t kGroups = 64;
constexpr size_t kPadBytes = 760;
constexpr int kSetups = 3;

/// The seeded generator's table, kept client-side to check every result.
struct Model {
  int64_t rows = 0;
  std::vector<int64_t> grp;      // by id
  std::vector<int64_t> val;      // by id: a permutation of 0..rows-1
  std::vector<int64_t> id_of;    // by val
  std::vector<int64_t> udf_prefix;  // prefix sums of the UDF value by val

  Model(uint64_t seed, int64_t n) : rows(n) {
    jaguar::Random rng(Mix(seed, 0xA11A));
    // val = (a * id + b) mod n with gcd(a, n) = 1 is a permutation.
    int64_t a = 0;
    do {
      a = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n - 1))) + 1;
    } while (std::gcd(a, n) != 1);
    const int64_t b = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n)));
    grp.resize(static_cast<size_t>(n));
    val.resize(static_cast<size_t>(n));
    id_of.resize(static_cast<size_t>(n));
    std::vector<int64_t> udf_by_val(static_cast<size_t>(n));
    for (int64_t id = 0; id < n; ++id) {
      const size_t i = static_cast<size_t>(id);
      grp[i] = static_cast<int64_t>(rng.Uniform(kGroups));
      val[i] = static_cast<int64_t>(
          (static_cast<__int128>(a) * id + b) % n);
      id_of[static_cast<size_t>(val[i])] = id;
      jaguar::Random pad(static_cast<uint64_t>(PayloadSeed(Mix(seed, 7), id)));
      udf_by_val[static_cast<size_t>(val[i])] =
          jaguar::GenericUdfExpected(pad.Bytes(kPadBytes), 0, 1, 0);
    }
    udf_prefix.assign(static_cast<size_t>(n) + 1, 0);
    for (int64_t v = 0; v < n; ++v) {
      udf_prefix[static_cast<size_t>(v) + 1] =
          udf_prefix[static_cast<size_t>(v)] + udf_by_val[static_cast<size_t>(v)];
    }
  }

  int64_t pad_seed(uint64_t seed, int64_t id) const {
    return PayloadSeed(Mix(seed, 7), static_cast<uint64_t>(id));
  }
};

/// One generated statement and the check of its result.
struct Statement {
  std::string kind;
  std::string sql;
  std::function<bool(const QueryResult&)> check;
};

bool IntAt(const jaguar::Tuple& t, size_t i, int64_t* out) {
  if (i >= t.num_values() || t.value(i).type() != jaguar::TypeId::kInt) {
    return false;
  }
  *out = t.value(i).AsInt();
  return true;
}

/// Three kinds with equal weight, so the median of all reads sits inside
/// the middle kind's cluster. Exactly one kind (filter_ijni) crosses into
/// an isolated JagVM executor.
Statement Generate(const Model& m, uint64_t seed, uint64_t i) {
  jaguar::Random rng(Mix(seed, 0x5EED0000 + i));
  const int64_t n = m.rows;
  switch (i % 3) {
    case 0: {
      const int64_t lo = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(n / 4)));
      std::string sql = StringPrintf(
          "SELECT grp, COUNT(*), SUM(val) FROM big WHERE val >= %lld GROUP BY grp",
          static_cast<long long>(lo));
      return {"group_by", sql, [&m, lo](const QueryResult& r) {
                std::map<int64_t, std::pair<int64_t, int64_t>> want;
                for (int64_t id = 0; id < m.rows; ++id) {
                  const size_t k = static_cast<size_t>(id);
                  if (m.val[k] < lo) continue;
                  auto& [count, sum] = want[m.grp[k]];
                  ++count;
                  sum += m.val[k];
                }
                if (r.rows.size() != want.size()) return false;
                for (const jaguar::Tuple& t : r.rows) {
                  int64_t g = 0, count = 0, sum = 0;
                  if (!IntAt(t, 0, &g) || !IntAt(t, 1, &count) ||
                      !IntAt(t, 2, &sum)) {
                    return false;
                  }
                  auto it = want.find(g);
                  if (it == want.end() || it->second != std::make_pair(count, sum)) {
                    return false;
                  }
                }
                return true;
              }};
    }
    case 1: {
      const int64_t skip = static_cast<int64_t>(rng.Uniform(kGroups));
      std::string sql = StringPrintf(
          "SELECT id, val FROM big WHERE grp <> %lld ORDER BY val DESC LIMIT 10",
          static_cast<long long>(skip));
      return {"top_k", sql, [&m, skip](const QueryResult& r) {
                size_t got = 0;
                for (int64_t v = m.rows - 1; v >= 0 && got < 10; --v) {
                  const int64_t id = m.id_of[static_cast<size_t>(v)];
                  if (m.grp[static_cast<size_t>(id)] == skip) continue;
                  int64_t rid = 0, rval = 0;
                  if (got >= r.rows.size() || !IntAt(r.rows[got], 0, &rid) ||
                      !IntAt(r.rows[got], 1, &rval) || rid != id || rval != v) {
                    return false;
                  }
                  ++got;
                }
                return got == r.rows.size();
              }};
    }
    default: {
      const int64_t hi = n / 2 + static_cast<int64_t>(rng.Uniform(
                                     static_cast<uint64_t>(n / 4))) -
                         n / 8;
      std::string sql = StringPrintf(
          "SELECT COUNT(*), SUM(g_ijni(B.pad, 0, 1, 0)) FROM big B WHERE B.val < %lld",
          static_cast<long long>(hi));
      return {"filter_ijni", sql, [&m, hi](const QueryResult& r) {
                int64_t count = 0, sum = 0;
                // val is a permutation of 0..n-1: exactly `hi` rows pass.
                return r.rows.size() == 1 && IntAt(r.rows[0], 0, &count) &&
                       IntAt(r.rows[0], 1, &sum) && count == hi &&
                       sum == m.udf_prefix[static_cast<size_t>(hi)];
              }};
    }
  }
}

}  // namespace

RunResult RunAnalytic(const RunOptions& opts) {
  RunResult out;
  Report& report = out.report;
  AddRunContext(&report, opts);
  const int64_t rows = opts.tiny ? 2000 : 40000;
  const Model model(opts.seed, rows);

  jaguar::DatabaseOptions options;  // default 1024-page (8 MB) pool
  options.vectorized_execution = true;
  options.batch_size = 256;
  options.num_workers = 4;
  const std::string db_path = opts.run_dir + "/analytic.db";

  std::vector<double> setup_s;
  std::unique_ptr<Database> db_owner;
  for (int rep = 0; rep < kSetups; ++rep) {
    db_owner.reset();
    const int64_t t0 = NowNs();
    db_owner = OpenFresh(db_path, options);
    Database* db = db_owner.get();
    MustExecute(db, "CREATE TABLE big (id INT, grp INT, val INT, pad BYTEARRAY)");
    const int64_t batch = 500;
    for (int64_t base = 0; base < rows; base += batch) {
      std::string sql = "INSERT INTO big VALUES ";
      for (int64_t id = base; id < std::min(rows, base + batch); ++id) {
        const size_t k = static_cast<size_t>(id);
        if (id > base) sql += ", ";
        sql += StringPrintf("(%lld, %lld, %lld, randbytes(%zu, %lld))",
                            static_cast<long long>(id),
                            static_cast<long long>(model.grp[k]),
                            static_cast<long long>(model.val[k]), kPadBytes,
                            static_cast<long long>(model.pad_seed(opts.seed, id)));
      }
      MustExecute(db, sql);
    }
    RegisterGenericDesigns(db);
    // Warm-up: one statement of each kind (executor spawn, JIT in the
    // children, runner cache).
    for (uint64_t i = 0; i < 3; ++i) {
      Statement s = Generate(model, opts.seed ^ 0xFFFF, i);
      if (!s.check(MustExecute(db, s.sql))) {
        report.Note("warm-up result of " + s.kind + " differs from the model");
        out.checks_ok = false;
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  AddSetup(&report, setup_s);
  Database* db = db_owner.get();

  uint64_t next = 0;
  auto run_phase = [&](double seconds, bool traced,
                       const std::map<std::string, double>& fixed) {
    Phase phase;
    phase.tracer = Tracer(traced);
    phase.elapsed_s = RunClosedLoop(seconds, [&](uint64_t) {
      const uint64_t i = next++;
      Statement s = Generate(model, opts.seed, i);
      const int64_t t0 = NowNs();
      jaguar::Result<QueryResult> r = db->Execute(s.sql);
      const int64_t t1 = NowNs();
      const bool ok = r.ok() && s.check(*r);
      const Totals* delta = r.ok() ? &r->metrics_delta : nullptr;
      phase.Record(s.kind, true, t0, t1, ok, delta, 0);
      if (traced && delta != nullptr) {
        const int root = phase.tracer.Record("stmt", t0, t1, -1, i + 1);
        AttributeLayers(&phase.tracer, root, *delta, fixed);
      }
    });
    return phase;
  };

  auto add_workload_metrics = [&](const std::string& prefix,
                                  const Phase& phase) {
    report.AddQuantile(prefix + "query_p50_ms", "ms",
                       QuantileOf(phase.read_latency_ns, 50), 1e6);
    report.AddQuantile(prefix + "query_p90_ms", "ms",
                       QuantileOf(phase.read_latency_ns, 90), 1e6);
    for (const auto& [kind, k] : phase.kinds) {
      report.AddQuantile(prefix + "analytic." + kind + "_p50_ms", "ms",
                         QuantileOf(k.latency_ns, 50), 1e6);
    }
  };
  auto add_space = [&] {
    AddSpaceAmp(&report, db, db_path,
                static_cast<uint64_t>(rows) * (3 * 8 + kPadBytes));
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
    AddCommonProbes(&report, db, Generate(model, opts.seed, 0).sql,
                    db->catalog()->GetTable("big").value()->first_page, &probes);
    const std::map<std::string, double> fixed = {
        {"sql", report.Value("sql.parse_us") * 1e3},
        {"obs", 2 * report.Value("obs.snapshot_us") * 1e3}};
    Phase traced = run_phase(opts.seconds / 2, true, fixed);
    AddCommonEndToEnd(&report, "traced.", traced);
    add_workload_metrics("traced.", traced);
    report.AddQuantile("engine.execute_us", "us",
                       QuantileOf(traced.read_latency_ns, 50), 1e3);
    AddLayerMetrics(&report, untraced, traced, LayerInputs{});
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
  }
  report.Note(
      "udf.ijni.* and ipc.* are parent-side counts: executor children keep "
      "their own counters (docs/METRICS.md)");
  db_owner.reset();
  RemoveDbFiles(db_path);
  return out;
}

}  // namespace perfbench
