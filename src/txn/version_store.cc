#include "txn/version_store.h"

#include <algorithm>

#include "obs/metrics.h"

namespace mood {

uint64_t VersionStore::BeginBatch() {
  return next_batch_.fetch_add(1, std::memory_order_relaxed);
}

void VersionStore::CapturePending(uint64_t batch, Oid oid, bool absent_before,
                                  uint32_t type_id,
                                  std::shared_ptr<const MoodValue> pre_image,
                                  bool live_after) {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t packed = oid.Pack();
  auto [it, inserted] = chains_.try_emplace(packed);
  Chain& chain = it->second;
  if (inserted) {
    file_oids_[oid.file].insert(oid);
    file_counts_[FileSlot(oid.file)].fetch_add(1, std::memory_order_release);
  }
  // The heap-liveness flag always tracks the latest physical state, even when
  // the capture itself is a first-write-wins duplicate.
  chain.live_in_heap = live_after;
  for (const Entry& e : chain.entries) {
    if (e.superseded_csn == kPendingCsn && e.batch == batch) return;
  }
  Entry e;
  e.batch = batch;
  e.absent = absent_before;
  e.type_id = type_id;
  e.tuple = std::move(pre_image);
  chain.entries.push_back(std::move(e));
  pending_counts_[FileSlot(oid.file)].fetch_add(1, std::memory_order_release);
  batch_oids_[batch].push_back(packed);
  captures_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t VersionStore::CommitBatch(uint64_t batch) {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t csn = last_csn_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto it = batch_oids_.find(batch);
  if (it != batch_oids_.end()) {
    for (uint64_t packed : it->second) {
      auto cit = chains_.find(packed);
      if (cit == chains_.end()) continue;
      for (Entry& e : cit->second.entries) {
        if (e.superseded_csn == kPendingCsn && e.batch == batch) {
          e.superseded_csn = csn;
          pending_counts_[FileSlot(Oid::Unpack(packed).file)].fetch_sub(
              1, std::memory_order_release);
        }
      }
    }
    batch_oids_.erase(it);
    commits_.fetch_add(1, std::memory_order_relaxed);
  }
  CollectGarbageLocked();
  return csn;
}

void VersionStore::AbortBatch(uint64_t batch) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = batch_oids_.find(batch);
  if (it == batch_oids_.end()) return;
  for (uint64_t packed : it->second) {
    auto cit = chains_.find(packed);
    if (cit == chains_.end()) continue;
    Chain& chain = cit->second;
    for (auto eit = chain.entries.begin(); eit != chain.entries.end();) {
      if (eit->superseded_csn == kPendingCsn && eit->batch == batch) {
        // The caller is rolling the heap back to this entry's pre-state.
        chain.live_in_heap = !eit->absent;
        pending_counts_[FileSlot(Oid::Unpack(packed).file)].fetch_sub(
            1, std::memory_order_release);
        eit = chain.entries.erase(eit);
      } else {
        ++eit;
      }
    }
    if (chain.entries.empty()) EraseChainLocked(cit);
  }
  batch_oids_.erase(it);
}

std::vector<std::pair<Oid, VersionStore::Version>> VersionStore::PendingOf(
    uint64_t batch) const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<std::pair<Oid, Version>> out;
  auto it = batch_oids_.find(batch);
  if (it == batch_oids_.end()) return out;
  for (uint64_t packed : it->second) {
    auto cit = chains_.find(packed);
    if (cit == chains_.end()) continue;
    for (const Entry& e : cit->second.entries) {
      if (e.superseded_csn == kPendingCsn && e.batch == batch) {
        out.emplace_back(Oid::Unpack(packed), Version{e.absent, e.type_id, e.tuple});
      }
    }
  }
  return out;
}

uint64_t VersionStore::PinSnapshot(PendingSlots* pending_slots) {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t snap = last_csn_.load(std::memory_order_relaxed);
  pins_.insert(snap);
  // Captured under the same mutex that CommitBatch holds while stamping, so
  // "pending at pin" is exact with respect to the pinned CSN: a commit either
  // finished before the pin (slot clean, heap visible) or starts after it
  // (slot still pending here).
  for (size_t i = 0; i < kFileSlots; i++) {
    (*pending_slots)[i] = pending_counts_[i].load(std::memory_order_relaxed) > 0;
  }
  return snap;
}

void VersionStore::UnpinSnapshot(uint64_t snap) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = pins_.find(snap);
  if (it != pins_.end()) pins_.erase(it);
  CollectGarbageLocked();
}

bool VersionStore::VisibleVersion(Oid oid, uint64_t snap, Version* out) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = chains_.find(oid.Pack());
  if (it == chains_.end()) return false;
  const Entry* best = nullptr;
  for (const Entry& e : it->second.entries) {
    if (e.superseded_csn <= snap) continue;  // superseded at or before S
    if (best == nullptr || e.superseded_csn < best->superseded_csn) best = &e;
  }
  if (best == nullptr) return false;
  out->absent = best->absent;
  out->type_id = best->type_id;
  out->tuple = best->tuple;
  return true;
}

std::vector<Oid> VersionStore::HeapAbsentOids(uint16_t file) const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<Oid> out;
  auto fit = file_oids_.find(file);
  if (fit == file_oids_.end()) return out;
  for (Oid oid : fit->second) {
    if (!chains_.at(oid.Pack()).live_in_heap) out.push_back(oid);
  }
  return out;
}

std::vector<Oid> VersionStore::TrackedOids(uint16_t file) const {
  std::lock_guard<std::mutex> l(mu_);
  auto fit = file_oids_.find(file);
  if (fit == file_oids_.end()) return {};
  return std::vector<Oid>(fit->second.begin(), fit->second.end());
}

std::unordered_map<uint64_t, VersionStore::Chain>::iterator
VersionStore::EraseChainLocked(std::unordered_map<uint64_t, Chain>::iterator it) {
  const Oid oid = Oid::Unpack(it->first);
  auto fit = file_oids_.find(oid.file);
  fit->second.erase(oid);
  if (fit->second.empty()) file_oids_.erase(fit);
  file_counts_[FileSlot(oid.file)].fetch_sub(1, std::memory_order_release);
  return chains_.erase(it);
}

void VersionStore::CollectGarbageLocked() {
  uint64_t min_snap = MinActiveSnapshotLocked();
  for (auto it = chains_.begin(); it != chains_.end();) {
    Chain& chain = it->second;
    size_t before = chain.entries.size();
    chain.entries.erase(
        std::remove_if(chain.entries.begin(), chain.entries.end(),
                       [&](const Entry& e) {
                         return e.superseded_csn != kPendingCsn &&
                                e.superseded_csn <= min_snap;
                       }),
        chain.entries.end());
    gc_dropped_.fetch_add(before - chain.entries.size(), std::memory_order_relaxed);
    if (chain.entries.empty()) {
      it = EraseChainLocked(it);
    } else {
      ++it;
    }
  }
}

void VersionStore::RegisterMetrics(MetricsRegistry* registry) {
  registry->RegisterProbe("versionstore", [this](auto* out) {
    uint64_t chains, entries, pinned;
    {
      std::lock_guard<std::mutex> l(mu_);
      chains = chains_.size();
      entries = 0;
      for (const auto& [_, c] : chains_) entries += c.entries.size();
      pinned = pins_.size();
    }
    out->emplace_back("txn.snapshot.captures",
                      static_cast<double>(captures_.load(std::memory_order_relaxed)));
    out->emplace_back("txn.snapshot.commits",
                      static_cast<double>(commits_.load(std::memory_order_relaxed)));
    out->emplace_back("txn.snapshot.gc_dropped",
                      static_cast<double>(gc_dropped_.load(std::memory_order_relaxed)));
    out->emplace_back("txn.snapshot.injected",
                      static_cast<double>(injected_.load(std::memory_order_relaxed)));
    out->emplace_back(
        "txn.snapshot.probe_compensations",
        static_cast<double>(probe_compensations_.load(std::memory_order_relaxed)));
    out->emplace_back(
        "txn.snapshot.probe_chain_oids",
        static_cast<double>(probe_chain_oids_.load(std::memory_order_relaxed)));
    out->emplace_back("txn.snapshot.pinned", static_cast<double>(pinned));
    out->emplace_back("txn.snapshot.chains", static_cast<double>(chains));
    out->emplace_back("txn.snapshot.entries", static_cast<double>(entries));
    out->emplace_back("txn.snapshot.csn",
                      static_cast<double>(last_csn_.load(std::memory_order_relaxed)));
  });
}

}  // namespace mood
