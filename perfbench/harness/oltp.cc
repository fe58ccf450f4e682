// oltp: short statements over the socket (net::Server on 127.0.0.1:0, one
// net::Client connection, closed loop): 80% indexed point SELECT by key, 10%
// single-row INSERT, 10% UPDATE ... SET bal = bal + 1 WHERE id = k. The
// table is about twice the default 8 MB pool and has a B+-tree on id built
// by CREATE INDEX during set-up. wal_fsync keeps its default (true), so every
// acknowledged write is fsynced. Exercises net, sql, per-statement engine and
// obs overhead, index, random storage access and wal; udf and exec
// parallelism are idle.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/random.h"
#include "common/string_util.h"
#include "harness/workload_common.h"
#include "index/btree.h"
#include "net/client.h"
#include "net/server.h"

namespace perfbench {

namespace {

using jaguar::Database;
using jaguar::QueryResult;
using jaguar::StringPrintf;

constexpr size_t kPadBytes = 480;
/// Logical bytes of one row: id and bal (8 each) plus the pad.
constexpr uint64_t kRowBytes = 8 + 8 + kPadBytes;
constexpr int kSetups = 3;
/// Acknowledged writes the forked writer applies before dying.
constexpr int kDurabilityWrites = 16;

/// Client-side model of the table: bal by id (ids are 0..size-1).
struct Model {
  std::vector<int64_t> bal;
  uint64_t seed = 0;

  int64_t next_id() const { return static_cast<int64_t>(bal.size()); }
  int64_t pad_seed(int64_t id) const {
    return PayloadSeed(Mix(seed, 11), static_cast<uint64_t>(id));
  }
  std::string InsertSql(int64_t id, int64_t b) const {
    return StringPrintf("INSERT INTO acct VALUES (%lld, %lld, randbytes(%zu, %lld))",
                        static_cast<long long>(id), static_cast<long long>(b),
                        kPadBytes, static_cast<long long>(pad_seed(id)));
  }
};

std::string SelectSql(int64_t id) {
  return StringPrintf("SELECT bal FROM acct WHERE id = %lld",
                      static_cast<long long>(id));
}

std::string UpdateSql(int64_t id) {
  return StringPrintf("UPDATE acct SET bal = bal + 1 WHERE id = %lld",
                      static_cast<long long>(id));
}

bool BalanceIs(const QueryResult& r, int64_t want) {
  return r.rows.size() == 1 && r.rows[0].num_values() == 1 &&
         r.rows[0].value(0).type() == jaguar::TypeId::kInt &&
         r.rows[0].value(0).AsInt() == want;
}

/// Everything one set-up builds; destroyed in reverse order (client, server,
/// database).
struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<jaguar::net::Server> server;
  std::unique_ptr<jaguar::net::Client> client;
  Model model;
  double backfill_s = 0;
  Ratio backfill_wal_bytes_per_row;

  void Reset() {
    client.reset();
    if (server) server->Stop();
    server.reset();
    db.reset();
  }
  ~Env() { Reset(); }
};

void Setup(Env* env, const std::string& path, uint64_t seed, int64_t rows,
           Report* report, bool* checks_ok) {
  env->Reset();
  env->model = Model{{}, seed};
  env->db = OpenFresh(path, jaguar::DatabaseOptions{});
  Database* db = env->db.get();
  MustExecute(db, "CREATE TABLE acct (id INT, bal INT, pad BYTEARRAY)");
  jaguar::Random rng(Mix(seed, 0xBA1));
  const int64_t batch = 500;
  for (int64_t base = 0; base < rows; base += batch) {
    std::string sql = "INSERT INTO acct VALUES ";
    for (int64_t id = base; id < std::min(rows, base + batch); ++id) {
      const int64_t b = static_cast<int64_t>(rng.Uniform(1000000));
      env->model.bal.push_back(b);
      if (id > base) sql += ", ";
      sql += StringPrintf("(%lld, %lld, randbytes(%zu, %lld))",
                          static_cast<long long>(id), static_cast<long long>(b),
                          kPadBytes,
                          static_cast<long long>(env->model.pad_seed(id)));
    }
    MustExecute(db, sql);
  }
  const int64_t t0 = NowNs();
  QueryResult idx = MustExecute(db, "CREATE INDEX acct_id ON acct (id)");
  env->backfill_s = static_cast<double>(NowNs() - t0) / 1e9;
  env->backfill_wal_bytes_per_row = {
      static_cast<double>(Get(idx.metrics_delta, "wal.bytes")),
      static_cast<double>(rows)};

  env->server = std::make_unique<jaguar::net::Server>(db);
  jaguar::Status started = env->server->Start(0);
  if (!started.ok()) throw HarnessError("server: " + started.ToString());
  auto client = jaguar::net::Client::Connect("127.0.0.1", env->server->port());
  if (!client.ok()) throw HarnessError("connect: " + client.status().ToString());
  env->client = std::move(client).value();

  // Warm-up: one statement of each kind through the socket.
  jaguar::net::Client* c = env->client.get();
  Model& m = env->model;
  const int64_t k = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(rows)));
  auto sel = c->Execute(SelectSql(k));
  const bool sel_ok = sel.ok() && BalanceIs(*sel, m.bal[static_cast<size_t>(k)]);
  const int64_t id = m.next_id();
  const int64_t b = static_cast<int64_t>(rng.Uniform(1000000));
  auto ins = c->Execute(m.InsertSql(id, b));
  if (ins.ok()) m.bal.push_back(b);
  auto upd = c->Execute(UpdateSql(k));
  if (upd.ok()) ++m.bal[static_cast<size_t>(k)];
  if (!sel_ok || !ins.ok() || ins->rows_affected != 1 || !upd.ok() ||
      upd->rows_affected != 1) {
    report->Note("warm-up statements failed or returned wrong results");
    *checks_ok = false;
  }
}

/// A forked writer applies a seeded list of writes, reporting each one the
/// database acknowledged through a pipe, then _exits without Close. The
/// parent reopens the database (WAL recovery) and counts acknowledged writes
/// whose effect is missing.
struct DurabilityResult {
  int acked = 0;
  int lost = 0;
};

DurabilityResult CheckDurability(const std::string& path, Model* model,
                                 uint64_t seed) {
  struct Write {
    bool insert;
    int64_t id;
    int64_t bal;  // insert: the new row's balance; update: balance after
  };
  jaguar::Random rng(Mix(seed, 0xD0AB));
  std::vector<Write> writes;
  int64_t next_id = model->next_id();
  std::vector<int64_t> updated;
  for (int j = 0; j < kDurabilityWrites; ++j) {
    if (j % 2 == 0) {
      writes.push_back({true, next_id++, static_cast<int64_t>(rng.Uniform(1000000))});
    } else {
      int64_t k = 0;
      do {
        k = static_cast<int64_t>(rng.Uniform(model->bal.size()));
      } while (std::find(updated.begin(), updated.end(), k) != updated.end());
      updated.push_back(k);
      writes.push_back({false, k, model->bal[static_cast<size_t>(k)] + 1});
    }
  }

  int fds[2];
  if (pipe(fds) != 0) throw HarnessError("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw HarnessError("fork failed");
  if (pid == 0) {
    close(fds[0]);
    auto db = Database::Open(path, jaguar::DatabaseOptions{});
    if (!db.ok()) _exit(3);
    for (int j = 0; j < kDurabilityWrites; ++j) {
      const Write& w = writes[static_cast<size_t>(j)];
      auto r = (*db)->Execute(w.insert ? model->InsertSql(w.id, w.bal)
                                       : UpdateSql(w.id));
      if (!r.ok() || r->rows_affected != 1) break;
      const uint8_t ack = static_cast<uint8_t>(j);
      if (write(fds[1], &ack, 1) != 1) break;
    }
    _exit(0);  // no Close, no checkpoint: recovery must redo the log
  }
  close(fds[1]);
  DurabilityResult result;
  uint8_t ack = 0;
  while (true) {
    const ssize_t n = read(fds[0], &ack, 1);
    if (n == 1) {
      ++result.acked;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  auto db = Database::Open(path, jaguar::DatabaseOptions{});
  if (!db.ok()) throw HarnessError("reopen: " + db.status().ToString());
  for (int j = 0; j < result.acked; ++j) {
    const Write& w = writes[static_cast<size_t>(j)];
    auto r = (*db)->Execute(SelectSql(w.id));
    if (!r.ok() || !BalanceIs(*r, w.bal)) ++result.lost;
    if (w.insert) {
      model->bal.push_back(w.bal);
    } else {
      model->bal[static_cast<size_t>(w.id)] = w.bal;
    }
  }
  return result;
}

}  // namespace

RunResult RunOltp(const RunOptions& opts) {
  RunResult out;
  Report& report = out.report;
  AddRunContext(&report, opts);
  const int64_t rows = opts.tiny ? 1000 : 25000;
  const std::string db_path = opts.run_dir + "/oltp.db";

  std::vector<double> setup_s;
  Env env;
  for (int rep = 0; rep < kSetups; ++rep) {
    const int64_t t0 = NowNs();
    Setup(&env, db_path, opts.seed, rows, &report, &out.checks_ok);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  AddSetup(&report, setup_s);
  report.Add("index.backfill_s", "s", env.backfill_s,
             "CREATE INDEX span in the last set-up");

  Model& model = env.model;
  jaguar::net::Client* client = env.client.get();
  jaguar::Random rng(Mix(opts.seed, 0x071F));
  uint64_t user_bytes = 0;
  std::string mix = "ssssssssiu";

  auto run_phase = [&](double seconds, bool traced,
                       const std::map<std::string, double>& fixed) {
    Phase phase;
    phase.tracer = Tracer(traced);
    user_bytes = 0;
    phase.elapsed_s = RunClosedLoop(seconds, [&](uint64_t i) {
      // Each block of ten statements holds exactly eight SELECTs, one
      // INSERT and one UPDATE in a seeded order, so the mix never drifts.
      if (i % 10 == 0) {
        for (size_t j = 9; j > 0; --j) {
          std::swap(mix[j], mix[rng.Uniform(j + 1)]);
        }
      }
      const char pick = mix[i % 10];
      std::string kind;
      std::string sql;
      int64_t id = 0;
      int64_t new_bal = 0;
      if (pick == 's') {
        kind = "select";
        id = static_cast<int64_t>(rng.Uniform(model.bal.size()));
        sql = SelectSql(id);
      } else if (pick == 'i') {
        kind = "insert";
        id = model.next_id();
        new_bal = static_cast<int64_t>(rng.Uniform(1000000));
        sql = model.InsertSql(id, new_bal);
      } else {
        kind = "update";
        id = static_cast<int64_t>(rng.Uniform(model.bal.size()));
        sql = UpdateSql(id);
      }
      const int64_t t0 = NowNs();
      jaguar::Result<QueryResult> r = client->Execute(sql);
      const int64_t t1 = NowNs();
      bool ok = r.ok();
      if (ok && kind == "select") {
        ok = BalanceIs(*r, model.bal[static_cast<size_t>(id)]);
      } else if (ok) {
        ok = r->rows_affected == 1;
        if (kind == "insert") model.bal.push_back(new_bal);
        if (kind == "update") ++model.bal[static_cast<size_t>(id)];
        if (ok) user_bytes += kRowBytes;
      }
      const Totals* delta = r.ok() ? &r->metrics_delta : nullptr;
      phase.Record(kind, kind == "select", t0, t1, ok, delta,
                   kind == "select" ? 0 : 1);
      if (traced && delta != nullptr) {
        const int root = phase.tracer.Record("stmt", t0, t1, -1, i + 1);
        AttributeLayers(&phase.tracer, root, *delta, fixed);
      }
    });
    return phase;
  };

  auto add_workload_metrics = [&](const std::string& prefix,
                                  const Phase& phase, uint64_t wrote_bytes,
                                  uint64_t file_writes) {
    auto kind = [&](const std::string& k) -> const std::vector<double>& {
      static const std::vector<double> none;
      auto it = phase.kinds.find(k);
      return it == phase.kinds.end() ? none : it->second.latency_ns;
    };
    report.AddQuantile(prefix + "select_p50_us", "us",
                       QuantileOf(kind("select"), 50), 1e3);
    report.AddQuantile(prefix + "select_p90_us", "us",
                       QuantileOf(kind("select"), 90), 1e3);
    report.AddQuantile(prefix + "insert_p50_ms", "ms",
                       QuantileOf(kind("insert"), 50), 1e6);
    report.AddQuantile(prefix + "update_p50_ms", "ms",
                       QuantileOf(kind("update"), 50), 1e6);
    report.AddRatio(prefix + "write_amp", "ratio",
                    {static_cast<double>(file_writes),
                     static_cast<double>(wrote_bytes)});
  };
  auto add_space = [&] {
    AddSpaceAmp(&report, env.db.get(), db_path, model.bal.size() * kRowBytes);
  };

  if (!opts.trace) {
    const uint64_t w0 = ProcWriteBytes();
    Phase phase = run_phase(opts.seconds, false, {});
    const uint64_t w1 = ProcWriteBytes();
    AddCommonEndToEnd(&report, "", phase);
    add_workload_metrics("", phase, user_bytes, w1 - w0);
    add_space();
    out.attempted = phase.attempted;
    out.failed = phase.failed;
  } else {
    uint64_t w0 = ProcWriteBytes();
    Phase untraced = run_phase(opts.seconds / 2, false, {});
    uint64_t w1 = ProcWriteBytes();
    AddCommonEndToEnd(&report, "", untraced);
    add_workload_metrics("", untraced, user_bytes, w1 - w0);
    add_space();

    // Probes of single layers (the client is idle between statements, so
    // in-process calls do not race the server thread).
    Database* db = env.db.get();
    const int64_t key = static_cast<int64_t>(rng.Uniform(model.bal.size()));
    const std::string point = SelectSql(key);
    Tracer probes(true);
    AddCommonProbes(&report, db, point,
                    db->catalog()->GetTable("acct").value()->first_page,
                    &probes);
    const double ping_ns = MedianProbeNs(
        200,
        [&] {
          if (!client->Ping().ok()) throw HarnessError("ping failed");
        },
        &probes, "net");
    report.Add("net.ping_us", "us", ping_ns / 1e3, "median of 200");
    const double exec_ns = MedianProbeNs(
        200, [&] { MustExecute(db, point); }, &probes, "engine");
    report.Add("engine.execute_us", "us", exec_ns / 1e3,
               "in-process Database::Execute of a point SELECT, median of 200");
    const double remote_ns = MedianProbeNs(
        200,
        [&] {
          if (!client->Execute(point).ok()) throw HarnessError("select failed");
        },
        &probes, "net");
    report.Add("net.overhead_us", "us", (remote_ns - exec_ns) / 1e3,
               "Client::Execute minus Database::Execute, same SELECT");
    const jaguar::IndexInfo* index = db->catalog()->GetIndex("acct_id").value();
    jaguar::BTree tree(db->storage(), index->root);
    const double probe_ns = MedianProbeNs(
        200,
        [&] {
          auto rids = tree.SearchEqual(jaguar::Value::Int(key));
          if (!rids.ok() || rids->size() != 1) {
            throw HarnessError("index probe did not find exactly one row");
          }
        },
        &probes, "index");
    report.Add("index.probe_us", "us", probe_ns / 1e3, "median of 200");

    const std::map<std::string, double> fixed = {
        {"net", ping_ns},
        {"sql", report.Value("sql.parse_us") * 1e3},
        {"obs", 2 * report.Value("obs.snapshot_us") * 1e3}};
    w0 = ProcWriteBytes();
    Phase traced = run_phase(opts.seconds / 2, true, fixed);
    w1 = ProcWriteBytes();
    AddCommonEndToEnd(&report, "traced.", traced);
    add_workload_metrics("traced.", traced, user_bytes, w1 - w0);

    // UPDATE has no index path: rows examined per updated row, from its page
    // fetches against those of a full scan.
    QueryResult full = MustExecute(db, "SELECT COUNT(*) FROM acct");
    const double scan_rows = static_cast<double>(full.rows.at(0).value(0).AsInt());
    const double scan_fetches =
        static_cast<double>(Get(full.metrics_delta, "storage.bufferpool.hits") +
                            Get(full.metrics_delta, "storage.bufferpool.misses"));
    LayerInputs inputs;
    inputs.user_bytes_written = user_bytes;
    inputs.backfill_wal_bytes_per_row = env.backfill_wal_bytes_per_row;
    auto upd = traced.kinds.find("update");
    if (upd != traced.kinds.end() && scan_fetches > 0) {
      const double fetches =
          static_cast<double>(Get(upd->second.delta, "storage.bufferpool.hits") +
                              Get(upd->second.delta, "storage.bufferpool.misses"));
      inputs.update_rows_examined = {fetches * scan_rows / scan_fetches,
                                     static_cast<double>(upd->second.rows)};
    }
    AddLayerMetrics(&report, untraced, traced, inputs);
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
  }

  env.Reset();
  const DurabilityResult durability = CheckDurability(db_path, &model, opts.seed);
  report.Add("acked_writes", "count", durability.acked,
             "writes the forked writer saw acknowledged before _exit");
  report.Add("acked_writes_lost", "count", durability.lost,
             "acknowledged writes missing after reopen");
  if (durability.lost != 0 || durability.acked != kDurabilityWrites) {
    out.checks_ok = false;
  }
  RemoveDbFiles(db_path);
  return out;
}

}  // namespace perfbench
