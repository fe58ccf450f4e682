#ifndef JAGUAR_STORAGE_TABLE_HEAP_H_
#define JAGUAR_STORAGE_TABLE_HEAP_H_

/// \file table_heap.h
/// An unordered collection of variable-length records stored in a chain of
/// slotted pages, with transparent **overflow chains** for records larger
/// than a page — the paper's `Rel10000` relation stores ~10 KB byte arrays
/// per tuple, larger than our 8 KB pages.
///
/// Record encoding inside a slot:
///   * inline:   [0x00] [payload...]
///   * overflow: [0x01] [u64 total_len] [u32 first_overflow_page]
/// Overflow pages: [u32 next_page] [u32 chunk_len] [chunk bytes...].

#include <cstdint>
#include <optional>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/storage_engine.h"

namespace jaguar {

class TableHeap {
 public:
  /// Attaches to an existing heap whose first page is `first_page`.
  ///
  /// `append_hint`, when given, is caller-owned storage for the chain page
  /// an append tries first. It outlives this object, so the next
  /// statement's heap resumes at the tail instead of re-walking the chain
  /// from `first_page`. It lives in memory only: kInvalidPageId means "start
  /// at first_page", and the append walk follows next-page links from
  /// wherever it points, so any page of this heap's chain is a valid value.
  TableHeap(StorageEngine* engine, PageId first_page,
            PageId* append_hint = nullptr);

  /// Allocates and formats a new, empty heap; returns its first page id.
  static Result<PageId> Create(StorageEngine* engine);

  PageId first_page() const { return first_page_; }
  StorageEngine* engine() const { return engine_; }

  /// Appends a record; returns its id.
  Result<RecordId> Insert(Slice record);

  /// Reads the full record bytes (reassembling overflow chains).
  Result<std::vector<uint8_t>> Get(RecordId rid);

  /// Replaces the record at `rid`. An inline record that still fits its
  /// page (after compaction if need be) is rewritten in its own slot and
  /// keeps `rid`. Otherwise — including any record that is or becomes an
  /// overflow record — it is deleted and re-inserted, and the new id is
  /// returned.
  Result<RecordId> Update(RecordId rid, Slice record);

  /// Deletes a record, freeing any overflow pages. So that the freed space
  /// is reused, the first delete through this object sends its next append
  /// back to the first page, and the caller's append hint is cleared, so
  /// the next statement's first append walks the chain from the start too.
  Status Delete(RecordId rid);

  /// Frees every page belonging to this heap (data, chain and overflow).
  /// The TableHeap must not be used afterwards.
  Status DropAll();

  /// Number of live records (scans; test/debug use).
  Result<uint64_t> CountRecords();

  /// Forward scan over live records.
  class Iterator {
   public:
    /// \return The next record, or std::nullopt at end of heap.
    Result<std::optional<std::pair<RecordId, std::vector<uint8_t>>>> Next();

   private:
    friend class TableHeap;
    Iterator(TableHeap* heap, PageId page, bool single_page = false)
        : heap_(heap), page_(page), single_page_(single_page) {}
    TableHeap* heap_;
    PageId page_;
    uint16_t slot_ = 0;
    bool single_page_;  ///< Stop at the end of `page` (morsel scans).
  };

  Iterator Scan() { return Iterator(this, first_page_); }

  /// Scan bounded to one chain page (overflow chains of its records are
  /// still followed) — the unit a parallel morsel worker processes.
  Iterator ScanPage(PageId page) {
    return Iterator(this, page, /*single_page=*/true);
  }

  /// The heap's chain pages in scan order — the morsel source for parallel
  /// scans. Overflow pages are not listed (records reassemble them on read).
  Result<std::vector<PageId>> ListPages();

 private:
  Result<std::vector<uint8_t>> ReadOverflow(uint64_t total_len, PageId first);
  Result<PageId> WriteOverflow(Slice payload);
  Status FreeOverflow(PageId first);

  StorageEngine* engine_;
  PageId first_page_;
  PageId* append_hint_;     // caller-owned, outlives this object; may be null
  PageId cursor_;           // page the next append tries first
  bool freed_ = false;      // a Delete ran: stop publishing to append_hint_
};

}  // namespace jaguar

#endif  // JAGUAR_STORAGE_TABLE_HEAP_H_
