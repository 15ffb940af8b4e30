// Measures the black-box ranker (the rec layer) from outside the
// program. TracedRecommender is a rec::Recommender decorator: it forwards
// every call to the ranker it wraps, times it, and records it in a
// RecLedger. It is handed to env::AttackEnvironment like any custom
// ranker (examples/custom_recommender.cpp), so the environment and the
// attacker run their normal code.
//
// The environment clones the pretrained ranker exactly once per reward
// query (AttackEnvironment::Evaluate), updates the clone with the poison
// log, scores every evaluation user on it and destroys it. The decorator
// therefore treats each clone as one query: the query opens when Clone is
// called on the pretrained ranker and closes when the clone is destroyed.
// That gives the env layer's share of a query (poison log, candidates,
// top-k) as the query's lifetime minus the ranker calls inside it, and
// brackets the GEMM work the ranker issues.
#ifndef CAMPBENCH_TRACED_RECOMMENDER_H_
#define CAMPBENCH_TRACED_RECOMMENDER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "rec/recommender.h"

namespace poisonrec::campbench {

/// GEMM work as counted by the nn kernels' registry counters
/// (poisonrec_gemm_{nn,tn,nt}_calls_total, poisonrec_gemm_flops_total).
struct GemmCount {
  std::uint64_t calls = 0;
  std::uint64_t flops = 0;
};

/// Current process-wide counter values.
GemmCount ReadGemmCounters();
GemmCount operator-(const GemmCount& a, const GemmCount& b);
GemmCount& operator+=(GemmCount& a, const GemmCount& b);

/// Running totals of the calls made through one TracedRecommender and
/// every clone it handed out. Subtract two snapshots to get the work of
/// an interval. Times are thread-seconds: calls on concurrent threads add.
struct RecTotals {
  double fit_s = 0.0;
  double clone_s = 0.0;
  double update_s = 0.0;
  double score_s = 0.0;
  std::uint64_t fit_calls = 0;
  std::uint64_t clone_calls = 0;
  std::uint64_t update_calls = 0;
  std::uint64_t score_calls = 0;
  /// Σ over queries of the query's lifetime on its thread.
  double query_s = 0.0;
  std::uint64_t queries = 0;
  /// GEMM work issued while at least one query was open. Exact as long
  /// as nothing outside the queries issues GEMMs at the same time, which
  /// holds inside TrainStep: its query phase runs between sampling and
  /// the update, never alongside them.
  GemmCount query_gemm;

  /// Ranker time spent inside queries.
  double busy_s() const { return clone_s + update_s + score_s; }
};

RecTotals operator-(const RecTotals& a, const RecTotals& b);
RecTotals& operator+=(RecTotals& a, const RecTotals& b);

/// Shared, thread-safe record of ranker calls.
class RecLedger {
 public:
  RecTotals Totals() const;

 private:
  friend class TracedRecommender;
  enum class Call { kFit, kClone, kUpdate, kScore };

  void Record(Call call, double seconds);
  void BeginQuery();
  void EndQuery(double seconds);

  mutable std::mutex mu_;
  RecTotals totals_;              // guarded by mu_
  std::size_t open_queries_ = 0;  // guarded by mu_
  GemmCount busy_since_;          // guarded by mu_
};

class TracedRecommender : public rec::Recommender {
 public:
  TracedRecommender(std::unique_ptr<rec::Recommender> inner,
                    std::shared_ptr<RecLedger> ledger);
  ~TracedRecommender() override;
  TracedRecommender(const TracedRecommender&) = delete;
  TracedRecommender& operator=(const TracedRecommender&) = delete;

  std::string Name() const override { return inner_->Name(); }
  void Fit(const data::Dataset& dataset) override;
  void Update(const data::Dataset& poison) override;
  std::vector<double> Score(
      data::UserId user,
      const std::vector<data::ItemId>& candidates) const override;
  std::unique_ptr<rec::Recommender> Clone() const override;

 private:
  /// A clone serving one reward query; owns the query's span.
  TracedRecommender(std::unique_ptr<rec::Recommender> inner,
                    std::shared_ptr<RecLedger> ledger,
                    std::unique_ptr<obs::TraceSpan> query_span);

  std::unique_ptr<rec::Recommender> inner_;
  std::shared_ptr<RecLedger> ledger_;
  std::unique_ptr<obs::TraceSpan> query_span_;  // null unless a clone
};

}  // namespace poisonrec::campbench

#endif  // CAMPBENCH_TRACED_RECOMMENDER_H_
