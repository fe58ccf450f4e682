#ifndef JAGUAR_EXEC_INDEX_SCAN_H_
#define JAGUAR_EXEC_INDEX_SCAN_H_

/// \file index_scan.h
/// Index scans and the one planner rule jaguar has.
///
/// `PickIndexScan` looks at a bound WHERE clause's top-level AND chain for a
/// conjunct of the form `<column> <cmp> <literal>` (either side) where the
/// column has a B+-tree index and the literal's type matches the column's
/// exactly. The matched conjunct is *removed* from the predicate — the index
/// probe guarantees it — and everything else stays behind as the residual
/// filter, evaluated only on the survivors. That is the paper-motivated win:
/// an expensive UDF predicate written before the indexable one no longer
/// runs on every tuple of the relation.
///
/// Equality conjuncts are preferred over range conjuncts; among equals, the
/// first in writing order wins. Correctness of removing the conjunct relies
/// on index semantics matching predicate semantics: NULL keys are never
/// stored (a NULL comparison is unknown → WHERE-false), and bounds compare
/// with `Value::Compare` exactly like the evaluator.
///
/// Metrics:
///   exec.index.scans        index probes run (SELECT, UPDATE, DELETE)
///   exec.index.range_scans  the subset driven by a range (non-equality)
///   exec.index.lookups      record ids produced by index probes
///   exec.index.inserts      entries inserted (maintenance + backfill)
///   exec.index.deletes      entries removed (maintenance)

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/expression.h"
#include "exec/operators.h"
#include "index/btree.h"
#include "storage/table_heap.h"

namespace jaguar {
namespace exec {

/// One indexable column the planner may use (engine-built from the catalog).
struct IndexCandidate {
  size_t column = 0;
  PageId root = kInvalidPageId;
  std::string name;
};

/// The planner's decision: which index, with which bounds.
struct IndexPick {
  PageId root = kInvalidPageId;
  std::string index_name;
  size_t column = 0;
  std::optional<BTree::Bound> lower;
  std::optional<BTree::Bound> upper;
  bool equality = false;
};

/// Examines `*where` (may be null). On a hit, returns the pick and replaces
/// `*where` with the residual predicate (null when the indexable conjunct
/// was the whole clause); on a miss `*where` is unchanged.
std::optional<IndexPick> PickIndexScan(
    BoundExprPtr* where, const std::vector<IndexCandidate>& candidates,
    const Schema& schema);

/// Probes `pick`'s B+-tree and returns the matching record ids in
/// (key, rid) order, counting the probe in exec.index.*.
Result<std::vector<RecordId>> ProbeIndex(StorageEngine* engine,
                                         const IndexPick& pick);

/// Reads the heap record an index entry points at. A missing record means
/// maintenance and the heap disagree, which surfaces as Corruption rather
/// than a silently missing row.
Result<Tuple> FetchIndexedRow(TableHeap* heap, RecordId rid);

/// Probes the B+-tree once on first pull, then streams the matching heap
/// records in (key, rid) order.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(StorageEngine* engine, IndexPick pick, PageId heap_first,
              Schema schema);

  /// The base-class NextBatch (a Next() loop) provides the batch protocol;
  /// there are no per-tuple expressions here to vectorize.
  Result<std::optional<Tuple>> Next() override;
  const Schema& schema() const override { return schema_; }

 private:
  StorageEngine* engine_;
  IndexPick pick_;
  TableHeap heap_;
  Schema schema_;
  bool probed_ = false;
  std::vector<RecordId> rids_;
  size_t pos_ = 0;
};

}  // namespace exec
}  // namespace jaguar

#endif  // JAGUAR_EXEC_INDEX_SCAN_H_
