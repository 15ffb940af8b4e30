#include "traced_recommender.h"

#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace poisonrec::campbench {

GemmCount ReadGemmCounters() {
  static obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const nn =
      registry.GetCounter("poisonrec_gemm_nn_calls_total");
  static obs::Counter* const tn =
      registry.GetCounter("poisonrec_gemm_tn_calls_total");
  static obs::Counter* const nt =
      registry.GetCounter("poisonrec_gemm_nt_calls_total");
  static obs::Counter* const flops =
      registry.GetCounter("poisonrec_gemm_flops_total");
  return {nn->Value() + tn->Value() + nt->Value(), flops->Value()};
}

GemmCount operator-(const GemmCount& a, const GemmCount& b) {
  return {a.calls - b.calls, a.flops - b.flops};
}

GemmCount& operator+=(GemmCount& a, const GemmCount& b) {
  a.calls += b.calls;
  a.flops += b.flops;
  return a;
}

RecTotals operator-(const RecTotals& a, const RecTotals& b) {
  RecTotals d;
  d.fit_s = a.fit_s - b.fit_s;
  d.clone_s = a.clone_s - b.clone_s;
  d.update_s = a.update_s - b.update_s;
  d.score_s = a.score_s - b.score_s;
  d.fit_calls = a.fit_calls - b.fit_calls;
  d.clone_calls = a.clone_calls - b.clone_calls;
  d.update_calls = a.update_calls - b.update_calls;
  d.score_calls = a.score_calls - b.score_calls;
  d.query_s = a.query_s - b.query_s;
  d.queries = a.queries - b.queries;
  d.query_gemm = a.query_gemm - b.query_gemm;
  return d;
}

RecTotals& operator+=(RecTotals& a, const RecTotals& b) {
  a.fit_s += b.fit_s;
  a.clone_s += b.clone_s;
  a.update_s += b.update_s;
  a.score_s += b.score_s;
  a.fit_calls += b.fit_calls;
  a.clone_calls += b.clone_calls;
  a.update_calls += b.update_calls;
  a.score_calls += b.score_calls;
  a.query_s += b.query_s;
  a.queries += b.queries;
  a.query_gemm += b.query_gemm;
  return a;
}

RecTotals RecLedger::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void RecLedger::Record(Call call, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (call) {
    case Call::kFit:
      totals_.fit_s += seconds;
      ++totals_.fit_calls;
      break;
    case Call::kClone:
      totals_.clone_s += seconds;
      ++totals_.clone_calls;
      break;
    case Call::kUpdate:
      totals_.update_s += seconds;
      ++totals_.update_calls;
      break;
    case Call::kScore:
      totals_.score_s += seconds;
      ++totals_.score_calls;
      break;
  }
}

void RecLedger::BeginQuery() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_queries_++ == 0) busy_since_ = ReadGemmCounters();
}

void RecLedger::EndQuery(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  POISONREC_CHECK_GT(open_queries_, 0u);
  totals_.query_s += seconds;
  ++totals_.queries;
  if (--open_queries_ == 0) {
    totals_.query_gemm += ReadGemmCounters() - busy_since_;
  }
}

TracedRecommender::TracedRecommender(std::unique_ptr<rec::Recommender> inner,
                                     std::shared_ptr<RecLedger> ledger)
    : TracedRecommender(std::move(inner), std::move(ledger), nullptr) {}

TracedRecommender::TracedRecommender(
    std::unique_ptr<rec::Recommender> inner, std::shared_ptr<RecLedger> ledger,
    std::unique_ptr<obs::TraceSpan> query_span)
    : inner_(std::move(inner)),
      ledger_(std::move(ledger)),
      query_span_(std::move(query_span)) {
  POISONREC_CHECK(inner_ != nullptr);
  POISONREC_CHECK(ledger_ != nullptr);
}

TracedRecommender::~TracedRecommender() {
  if (query_span_ == nullptr) return;
  inner_.reset();  // freeing the poisoned model is part of the query
  ledger_->EndQuery(query_span_->Stop());
}

void TracedRecommender::Fit(const data::Dataset& dataset) {
  obs::TraceSpan span("rec/fit");
  inner_->Fit(dataset);
  ledger_->Record(RecLedger::Call::kFit, span.Stop());
}

void TracedRecommender::Update(const data::Dataset& poison) {
  obs::TraceSpan span("rec/update");
  inner_->Update(poison);
  ledger_->Record(RecLedger::Call::kUpdate, span.Stop());
}

std::vector<double> TracedRecommender::Score(
    data::UserId user, const std::vector<data::ItemId>& candidates) const {
  // Thousands of calls per step: timed, but not recorded as spans.
  const Timer timer;
  std::vector<double> scores = inner_->Score(user, candidates);
  ledger_->Record(RecLedger::Call::kScore, timer.ElapsedSeconds());
  return scores;
}

std::unique_ptr<rec::Recommender> TracedRecommender::Clone() const {
  auto query_span = std::make_unique<obs::TraceSpan>("env/query");
  ledger_->BeginQuery();
  obs::TraceSpan span("rec/clone");
  std::unique_ptr<rec::Recommender> inner = inner_->Clone();
  ledger_->Record(RecLedger::Call::kClone, span.Stop());
  return std::unique_ptr<rec::Recommender>(new TracedRecommender(
      std::move(inner), ledger_, std::move(query_span)));
}

}  // namespace poisonrec::campbench
