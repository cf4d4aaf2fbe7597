#include "stats/feedback.h"

namespace mood {

namespace {
void RunningMean(double* mean, uint64_t* n, double sample) {
  *n += 1;
  *mean += (sample - *mean) / static_cast<double>(*n);
}
}  // namespace

void CostCalibration::AddPage(double ms_per_page) {
  std::lock_guard<std::mutex> lock(mu_);
  RunningMean(&page_ms_, &pages_, ms_per_page);
}

void CostCalibration::AddDeref(double ms_per_deref) {
  std::lock_guard<std::mutex> lock(mu_);
  RunningMean(&deref_ms_, &derefs_, ms_per_deref);
}

void CostCalibration::AddPredicate(double ms_per_predicate) {
  std::lock_guard<std::mutex> lock(mu_);
  RunningMean(&pred_ms_, &preds_, ms_per_predicate);
}

bool CostCalibration::Valid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_ > 0 && derefs_ > 0;
}

double CostCalibration::MsPerPage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_ms_;
}

double CostCalibration::MsPerDeref() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deref_ms_;
}

double CostCalibration::MsPerPredicate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pred_ms_;
}

bool CostCalibration::ClaimProbe() {
  std::lock_guard<std::mutex> lock(mu_);
  if (probed_) return false;
  probed_ = true;
  return true;
}

void CostCalibration::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  page_ms_ = deref_ms_ = pred_ms_ = 0;
  pages_ = derefs_ = preds_ = 0;
  probed_ = false;
}

void FeedbackStore::Configure(uint64_t refresh_epoch_delta) {
  std::lock_guard<std::mutex> lock(mu_);
  refresh_epoch_delta_ = refresh_epoch_delta;
}

void FeedbackStore::Record(const std::string& sig, double selectivity,
                           uint64_t schema_epoch, uint16_t file,
                           uint64_t write_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.Put(sig, Entry{selectivity, schema_epoch, TouchedExtent{file, write_epoch}});
}

bool FeedbackStore::Lookup(const std::string& sig, uint64_t cur_schema_epoch,
                           uint16_t file, uint64_t cur_write_epoch,
                           double* selectivity) {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* e = lru_.Find(sig, [&](const Entry& entry) {
    return entry.extent.file == file &&
           StampHolds(entry.schema_epoch, cur_schema_epoch, {&entry.extent, 1},
                      [&](uint16_t) { return cur_write_epoch; },
                      refresh_epoch_delta_);
  });
  if (e == nullptr) return false;
  *selectivity = e->selectivity;
  return true;
}

size_t FeedbackStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t FeedbackStore::invalidations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.invalidations();
}

}  // namespace mood
