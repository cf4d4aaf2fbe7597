#include "exec/row_batch.h"

namespace mood {

void RowBatch::Reset(size_t slots, size_t cap) {
  nslots = slots;
  capacity = cap;
  nrows = 0;
  cols.assign(slots * cap, Oid{});
  sel.clear();
  sel_active = false;
}

void RowBatch::Clear() {
  nrows = 0;
  sel.clear();
  sel_active = false;
}

void RowBatch::PushRow(const Oid* row, size_t n) {
  for (size_t s = 0; s < n; s++) cols[s * capacity + nrows] = row[s];
  nrows++;
}

void RowBatch::GatherRow(uint32_t row, Oid* out) const {
  for (size_t s = 0; s < nslots; s++) out[s] = cols[s * capacity + row];
}

size_t BatchSet::ActiveRows() const {
  size_t n = 0;
  for (const RowBatch& b : batches) n += b.ActiveRows();
  return n;
}

std::vector<std::pair<uint32_t, uint32_t>> BatchSet::LiveIndex() const {
  std::vector<std::pair<uint32_t, uint32_t>> idx;
  idx.reserve(ActiveRows());
  for (size_t b = 0; b < batches.size(); b++) {
    const RowBatch& batch = batches[b];
    for (size_t k = 0; k < batch.ActiveRows(); k++) {
      idx.emplace_back(static_cast<uint32_t>(b), batch.RowAt(k));
    }
  }
  return idx;
}

std::vector<Oid> BatchSet::LiveColumn(size_t s) const {
  std::vector<Oid> out;
  out.reserve(ActiveRows());
  for (const RowBatch& b : batches) {
    for (size_t k = 0; k < b.ActiveRows(); k++) out.push_back(b.col(s)[b.RowAt(k)]);
  }
  return out;
}

void BatchAppender::Push(const Oid* row, size_t n) {
  if (out_->batches.empty() || out_->batches.back().Full()) {
    out_->batches.emplace_back(nslots_, capacity_);
  }
  out_->batches.back().PushRow(row, n);
}

}  // namespace mood
