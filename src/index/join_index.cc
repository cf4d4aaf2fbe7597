#include "index/join_index.h"

namespace mood {

std::string BinaryJoinIndex::OidKey(Oid oid) {
  // Big-endian packed oid: memcmp order == numeric order (not semantically
  // required, but keeps scans deterministic).
  uint64_t v = oid.Pack();
  std::string key;
  for (int i = 7; i >= 0; i--) key.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  return key;
}

Result<std::unique_ptr<BinaryJoinIndex>> BinaryJoinIndex::Create(BufferPool* pool,
                                                                 FileDirectory* alloc) {
  MOOD_ASSIGN_OR_RETURN(auto fwd, BPlusTree::Create(pool, alloc, /*unique=*/false));
  MOOD_ASSIGN_OR_RETURN(auto bwd, BPlusTree::Create(pool, alloc, /*unique=*/false));
  return std::unique_ptr<BinaryJoinIndex>(
      new BinaryJoinIndex(std::move(fwd), std::move(bwd)));
}

Result<std::unique_ptr<BinaryJoinIndex>> BinaryJoinIndex::Open(BufferPool* pool,
                                                               FileDirectory* alloc,
                                                               PageId forward_meta,
                                                               PageId backward_meta) {
  MOOD_ASSIGN_OR_RETURN(auto fwd, BPlusTree::Open(pool, alloc, forward_meta));
  MOOD_ASSIGN_OR_RETURN(auto bwd, BPlusTree::Open(pool, alloc, backward_meta));
  return std::unique_ptr<BinaryJoinIndex>(
      new BinaryJoinIndex(std::move(fwd), std::move(bwd)));
}

Status BinaryJoinIndex::Add(Oid from, Oid to) {
  MOOD_RETURN_IF_ERROR(forward_->Insert(OidKey(from), to.Pack()));
  return backward_->Insert(OidKey(to), from.Pack());
}

Status BinaryJoinIndex::Remove(Oid from, Oid to) {
  MOOD_RETURN_IF_ERROR(forward_->Delete(OidKey(from), to.Pack()));
  return backward_->Delete(OidKey(to), from.Pack());
}

Result<std::vector<Oid>> BinaryJoinIndex::Targets(Oid from) const {
  MOOD_ASSIGN_OR_RETURN(auto raw, forward_->SearchEqual(OidKey(from)));
  std::vector<Oid> out;
  out.reserve(raw.size());
  for (uint64_t v : raw) out.push_back(Oid::Unpack(v));
  return out;
}

Result<std::vector<Oid>> BinaryJoinIndex::Sources(Oid to) const {
  MOOD_ASSIGN_OR_RETURN(auto raw, backward_->SearchEqual(OidKey(to)));
  std::vector<Oid> out;
  out.reserve(raw.size());
  for (uint64_t v : raw) out.push_back(Oid::Unpack(v));
  return out;
}

}  // namespace mood
