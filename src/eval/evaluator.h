#ifndef VSAN_EVAL_EVALUATOR_H_
#define VSAN_EVAL_EVALUATOR_H_

#include <map>
#include <string>
#include <vector>

#include "data/split.h"
#include "eval/retrieval.h"
#include "models/recommender.h"

namespace vsan {
namespace eval {

// Metrics averaged over held-out users, keyed by cutoff N.
struct EvalResult {
  std::map<int32_t, double> precision;
  std::map<int32_t, double> recall;
  std::map<int32_t, double> ndcg;

  // "NDCG@10=6.78 Recall@10=9.34 ..." with values in percent.
  std::string ToString() const;
};

struct EvalOptions {
  std::vector<int32_t> cutoffs = {10, 20};
  // Items already in a user's fold-in history are not recommended again
  // (the standard protocol; holdout items that repeat fold-in items are
  // kept scoreable).
  bool exclude_fold_in = true;
  // 0 = full ranking over the whole catalogue (the VSAN paper's protocol).
  // > 0 = rank the holdout items against this many uniformly sampled
  // negative items only (the SASRec paper's cheaper protocol); useful for
  // very large catalogues.
  int32_t num_sampled_negatives = 0;
  // Base seed for negative sampling.  Each user's sampling stream is seeded
  // by hashing this with the user's own history (util/rng.h MixSeed), so
  // the candidate set per user does not depend on user ordering, thread
  // count, or the other users being evaluated.
  uint64_t negative_seed = 91;

  // --- Fast retrieval (eval/retrieval.h) -------------------------------
  // With retrieval.backend == kExact (the default) every item is scored,
  // and each user's ranking is bitwise the one per-user ScoreInto +
  // TopNIndices produces: a model with a FactorizedHead is encoded user by
  // user and projected onto its head 32 users per GEMM, any other model is
  // scored through ScoreInto directly.  With kQuantized or kIvf the
  // evaluator ranks through a RetrievalIndex instead of materializing each
  // user's full score vector; this requires the model to expose a
  // FactorizedHead and full ranking (num_sampled_negatives == 0) — when
  // either precondition fails, evaluation falls back to exact with a
  // warning rather than failing.
  RetrievalOptions retrieval;
  // Optional pre-built index for `model` (not owned).  When null and a fast
  // backend is selected, EvaluateRanking builds a throwaway index; callers
  // evaluating repeatedly should build once and pass it here.
  const RetrievalIndex* retrieval_index = nullptr;
};

// Full-ranking evaluation under strong generalization: for each held-out
// user, score all items from the fold-in prefix, rank, and compare the top-N
// against the holdout set.  Users are distributed over the global
// ThreadPool (VSAN_NUM_THREADS); per-user metrics are merged in user order,
// so results are bitwise-identical at every thread count.
EvalResult EvaluateRanking(const SequentialRecommender& model,
                           const std::vector<data::HeldOutUser>& users,
                           const EvalOptions& options);

}  // namespace eval
}  // namespace vsan

#endif  // VSAN_EVAL_EVALUATOR_H_
