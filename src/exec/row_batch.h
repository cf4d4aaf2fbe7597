#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "types/oid.h"

namespace mood {

/// Fixed-capacity, column-major batch of range-variable bindings: the unit of
/// work batch-at-a-time operators exchange (DESIGN.md §11). Slot `s` of row
/// `i` lives at `cols[s * capacity + i]`, so an expression reading one slot
/// streams a contiguous Oid column instead of hopping across per-row heap
/// vectors.
///
/// Liveness is a selection vector: `sel` holds live row indices in ascending
/// order and is honored iff `sel_active`. Filters narrow a batch by rewriting
/// `sel`, never by copying columns; `sel_active == false` means all `nrows`
/// rows are live. Batch order plus sel order *is* the serial row order — the
/// deterministic merge contract for batched execution rests on it.
struct RowBatch {
  size_t nslots = 0;
  size_t capacity = 0;
  size_t nrows = 0;
  std::vector<Oid> cols;      ///< nslots * capacity entries, column-major
  std::vector<uint32_t> sel;  ///< ascending live rows; honored iff sel_active
  bool sel_active = false;

  RowBatch() = default;
  RowBatch(size_t slots, size_t cap) { Reset(slots, cap); }

  /// Re-shapes the batch to `slots` columns of `cap` rows, dropping contents.
  void Reset(size_t slots, size_t cap);
  /// Drops rows and selection, keeping the column storage.
  void Clear();

  Oid* col(size_t s) { return cols.data() + s * capacity; }
  const Oid* col(size_t s) const { return cols.data() + s * capacity; }

  size_t ActiveRows() const { return sel_active ? sel.size() : nrows; }
  /// Row index of the k-th live row (k < ActiveRows()).
  uint32_t RowAt(size_t k) const {
    return sel_active ? sel[k] : static_cast<uint32_t>(k);
  }

  bool Full() const { return nrows == capacity; }
  /// Appends one row (row-major, `n == nslots`); the batch must not be full.
  void PushRow(const Oid* row, size_t n);
  /// Copies row `row` into `out[0..nslots)` in slot order.
  void GatherRow(uint32_t row, Oid* out) const;
};

/// A materialized operator result: the range variables plus their bindings in
/// batches. Batches may be ragged (joins emit one run of batches per input
/// batch); the row order is batch order, then selection order within a batch.
struct BatchSet {
  std::vector<std::string> vars;
  std::vector<RowBatch> batches;

  int VarIndex(const std::string& var) const {
    for (size_t i = 0; i < vars.size(); i++) {
      if (vars[i] == var) return static_cast<int>(i);
    }
    return -1;
  }

  size_t ActiveRows() const;

  /// Flat (batch, row) coordinates of every live row, in row order. Joins use
  /// this to address the build side globally regardless of batch raggedness.
  std::vector<std::pair<uint32_t, uint32_t>> LiveIndex() const;

  /// Slot `s` of every live row, in row order.
  std::vector<Oid> LiveColumn(size_t s) const;
};

/// Append-side helper: packs row-major rows into fixed-capacity batches at the
/// tail of a BatchSet (opening a new batch whenever the last one fills).
class BatchAppender {
 public:
  BatchAppender(BatchSet* out, size_t nslots, size_t capacity)
      : out_(out), nslots_(nslots), capacity_(capacity == 0 ? 1 : capacity) {}

  void Push(const Oid* row, size_t n);

 private:
  BatchSet* out_;
  size_t nslots_;
  size_t capacity_;
};

}  // namespace mood
