#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "index/bptree.h"
#include "types/oid.h"

namespace mood {

/// Binary Join Index (Valduriez-style): a materialized set of (oid_c, oid_d)
/// pairs for one reference attribute C.A -> D, indexed in both directions. The
/// optimizer's "index-based join" strategy (Section 8.3) probes it with whichever
/// side is smaller; its access cost is INDCOST(k) (Section 6.3).
class BinaryJoinIndex {
 public:
  static Result<std::unique_ptr<BinaryJoinIndex>> Create(BufferPool* pool,
                                                         FileDirectory* alloc);
  static Result<std::unique_ptr<BinaryJoinIndex>> Open(BufferPool* pool,
                                                       FileDirectory* alloc,
                                                       PageId forward_meta,
                                                       PageId backward_meta);

  PageId forward_meta() const { return forward_->meta_page(); }
  PageId backward_meta() const { return backward_->meta_page(); }

  Status Add(Oid from, Oid to);
  Status Remove(Oid from, Oid to);

  /// D-side objects referenced by `from` (forward direction).
  Result<std::vector<Oid>> Targets(Oid from) const;
  /// C-side objects referencing `to` (backward direction).
  Result<std::vector<Oid>> Sources(Oid to) const;

  uint64_t pair_count() const { return forward_->stats().entries; }
  const BPlusTree& forward_tree() const { return *forward_; }
  const BPlusTree& backward_tree() const { return *backward_; }

 private:
  BinaryJoinIndex(std::unique_ptr<BPlusTree> fwd, std::unique_ptr<BPlusTree> bwd)
      : forward_(std::move(fwd)), backward_(std::move(bwd)) {}

  static std::string OidKey(Oid oid);

  std::unique_ptr<BPlusTree> forward_;
  std::unique_ptr<BPlusTree> backward_;
};

}  // namespace mood
