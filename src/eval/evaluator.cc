#include "eval/evaluator.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace vsan {
namespace eval {
namespace {

// Seed for a user's negative-sampling stream, derived from the base seed
// and the user's own history rather than from the user's position in the
// vector or a shared sequential generator.  This makes the sampled
// candidate set a pure function of (seed, user), so EvaluateRanking is
// invariant to user ordering, thread count, and which other users are in
// the batch.
uint64_t UserNegativeSeed(uint64_t base, const data::HeldOutUser& user) {
  uint64_t h = MixSeed(base, user.fold_in.size());
  for (int32_t item : user.fold_in) h = MixSeed(h, static_cast<uint64_t>(item));
  h = MixSeed(h, user.holdout.size());
  for (int32_t item : user.holdout) h = MixSeed(h, static_cast<uint64_t>(item));
  return h;
}

// Users per block on the exact path of a model with a FactorizedHead.  A
// block encodes its users one at a time and scores them together with one
// GEMM against the head, so the catalogue is packed once per block rather
// than once per user.  The encode stays per user: batching it caches the
// batched activations in every worker's tensor pool for no speed gain.
constexpr int64_t kScoreBlockUsers = 32;

// Ranks one user's full score vector under the protocol in `options`
// (padding, sampled-negative and fold-in exclusions) and returns the
// metrics at every cutoff.  `excluded_scratch` is caller-owned scratch.
std::vector<TopNMetrics> RankUser(const data::HeldOutUser& user,
                                  const std::vector<float>& scores,
                                  const EvalOptions& options,
                                  int32_t max_cutoff,
                                  std::vector<bool>* excluded_scratch) {
  VSAN_CHECK_GE(scores.size(), 2u);
  std::vector<bool>& excluded = *excluded_scratch;
  excluded.assign(scores.size(), false);
  excluded[data::kPaddingItem] = true;
  if (options.num_sampled_negatives > 0) {
    // Candidate set = holdout + sampled negatives; everything else is
    // excluded from the ranking.
    Rng negative_rng(UserNegativeSeed(options.negative_seed, user));
    std::unordered_set<int32_t> seen(user.fold_in.begin(),
                                     user.fold_in.end());
    std::unordered_set<int32_t> candidates(user.holdout.begin(),
                                           user.holdout.end());
    const int32_t num_items = static_cast<int32_t>(scores.size()) - 1;
    int32_t guard = 0;
    while (static_cast<int32_t>(candidates.size()) <
               options.num_sampled_negatives +
                   static_cast<int32_t>(user.holdout.size()) &&
           guard++ < num_items * 20) {
      const int32_t neg =
          static_cast<int32_t>(negative_rng.UniformInt(1, num_items));
      if (seen.count(neg) == 0) candidates.insert(neg);
    }
    for (int32_t item = 1; item <= num_items; ++item) {
      if (candidates.count(item) == 0) excluded[item] = true;
    }
  }
  if (options.exclude_fold_in) {
    // Do not exclude items that must still be predictable because they
    // re-occur in the holdout.
    std::unordered_set<int32_t> holdout_set(user.holdout.begin(),
                                            user.holdout.end());
    for (int32_t item : user.fold_in) {
      if (item < static_cast<int32_t>(excluded.size()) &&
          holdout_set.count(item) == 0) {
        excluded[item] = true;
      }
    }
  }

  const std::vector<int32_t> ranked =
      TopNIndices(scores, excluded, max_cutoff);
  std::vector<TopNMetrics> metrics;
  metrics.reserve(options.cutoffs.size());
  for (int32_t n : options.cutoffs) {
    metrics.push_back(ComputeTopN(ranked, user.holdout, n));
  }
  return metrics;
}

// Exact path for a model with a FactorizedHead.  Blocks of
// kScoreBlockUsers users run in parallel; within a block each user gets
// its own EncodeQueryInto, then one GEMM projects the whole block onto the
// head and the bias is added per row — the arithmetic of the model's own
// output layer.  Every row of a blocked GEMM is bitwise what an M=1 call
// produces (the per-element accumulation order depends only on K), so
// each user's score vector, and hence its ranking, is bitwise the one
// ScoreInto returns.
void EvaluateBlocks(const SequentialRecommender& model,
                    const FactorizedHead& head,
                    const std::vector<data::HeldOutUser>& users,
                    const EvalOptions& options, int32_t max_cutoff,
                    obs::Histogram* score_hist,
                    std::vector<std::vector<TopNMetrics>>* per_user) {
  const int64_t num_users = static_cast<int64_t>(users.size());
  const int64_t num_blocks =
      (num_users + kScoreBlockUsers - 1) / kScoreBlockUsers;
  const int64_t dim = head.dim;
  const int64_t rows = head.num_rows;
  ParallelFor(0, num_blocks, 1, [&](int64_t block_begin, int64_t block_end) {
    // Per-shard buffers, reused across this shard's blocks.
    std::vector<float> query;
    std::vector<float> queries;       // [live users, dim]
    std::vector<float> block_scores;  // [live users, rows]
    std::vector<int64_t> live;        // user index of each query row
    std::vector<double> encode_us;
    std::vector<float> scores;
    std::vector<bool> excluded;
    for (int64_t block = block_begin; block < block_end; ++block) {
      live.clear();
      encode_us.clear();
      queries.clear();
      const int64_t end =
          std::min(num_users, (block + 1) * kScoreBlockUsers);
      for (int64_t ui = block * kScoreBlockUsers; ui < end; ++ui) {
        const data::HeldOutUser& user = users[ui];
        if (user.holdout.empty() || user.fold_in.empty()) continue;
        Stopwatch encode_timer;
        {
          VSAN_TRACE_SPAN("eval/score_user", kEval);
          VSAN_CHECK(model.EncodeQueryInto(user.fold_in, &query));
        }
        encode_us.push_back(encode_timer.ElapsedNanos() * 1e-3);
        live.push_back(ui);
        queries.insert(queries.end(), query.begin(), query.end());
      }
      if (live.empty()) continue;
      const int64_t count = static_cast<int64_t>(live.size());
      Stopwatch scan_timer;
      {
        VSAN_TRACE_SPAN("eval/score_block", kEval);
        ScopedMatMulPrecision precision_guard(model.eval_precision());
        block_scores.assign(static_cast<size_t>(count * rows), 0.0f);
        Gemm(queries.data(), head.weights, block_scores.data(), count, rows,
             dim, /*trans_a=*/false, /*trans_b=*/head.items_are_rows);
      }
      // Each user is charged its own encode plus an equal share of the
      // block GEMM, so the samples still sum to the time spent scoring.
      const double scan_share_us = scan_timer.ElapsedNanos() * 1e-3 / count;
      scores.resize(static_cast<size_t>(rows));
      for (int64_t i = 0; i < count; ++i) {
        score_hist->Observe(encode_us[i] + scan_share_us);
        const float* row_scores = block_scores.data() + i * rows;
        for (int64_t row = 0; row < rows; ++row) {
          float score = row_scores[row];
          if (head.bias != nullptr) score += head.bias[row];
          scores[row] = score;
        }
        (*per_user)[live[i]] =
            RankUser(users[live[i]], scores, options, max_cutoff, &excluded);
      }
    }
  });
}

}  // namespace

std::string EvalResult::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [n, v] : ndcg) {
    parts.push_back(StrCat("NDCG@", n, "=", FormatDouble(v * 100.0, 3)));
  }
  for (const auto& [n, v] : recall) {
    parts.push_back(StrCat("Recall@", n, "=", FormatDouble(v * 100.0, 3)));
  }
  for (const auto& [n, v] : precision) {
    parts.push_back(StrCat("Precision@", n, "=", FormatDouble(v * 100.0, 3)));
  }
  return StrJoin(parts, " ");
}

EvalResult EvaluateRanking(const SequentialRecommender& model,
                           const std::vector<data::HeldOutUser>& users,
                           const EvalOptions& options) {
  VSAN_TRACE_SPAN("eval/evaluate_ranking", kEval);
  obs::Histogram* score_hist = obs::MetricsRegistry::Global().GetHistogram(
      "eval.user_score_us", obs::ExponentialBuckets(1.0, 2.0, 22));
  VSAN_CHECK(!users.empty());
  VSAN_CHECK(!options.cutoffs.empty());
  const int32_t max_cutoff =
      *std::max_element(options.cutoffs.begin(), options.cutoffs.end());

  EvalResult result;
  for (int32_t n : options.cutoffs) {
    result.precision[n] = 0.0;
    result.recall[n] = 0.0;
    result.ndcg[n] = 0.0;
  }

  // Resolve the retrieval backend.  The fast backends need full ranking and
  // a factorized head; when either is missing we degrade to exact (the
  // answer stays correct, only slower) instead of failing the evaluation.
  bool fast = options.retrieval.backend != RetrievalBackend::kExact;
  FactorizedHead head;
  if (fast && options.num_sampled_negatives > 0) {
    VSAN_LOG_WARNING << "retrieval backend "
                     << RetrievalBackendName(options.retrieval.backend)
                     << " requires full ranking; falling back to exact "
                        "(num_sampled_negatives > 0)";
    fast = false;
  }
  if (fast && !model.GetFactorizedHead(&head)) {
    VSAN_LOG_WARNING << "model " << model.name()
                     << " exposes no factorized head; falling back to the "
                        "exact backend";
    fast = false;
  }
  const RetrievalIndex* index = nullptr;
  std::optional<RetrievalIndex> local_index;
  if (fast) {
    if (options.retrieval_index != nullptr) {
      index = options.retrieval_index;
      VSAN_CHECK_EQ(index->dim(), head.dim);
      VSAN_CHECK_EQ(index->num_rows(), head.num_rows);
    } else {
      local_index = RetrievalIndex::Build(head, options.retrieval);
      index = &*local_index;
    }
  }

  // Users are scored in parallel (Score() is const and eval-mode forwards
  // never touch model RNG state); per-user metrics land in a slot indexed
  // by user position and are merged serially in user order below, so the
  // averaged result is bitwise-independent of thread count and scheduling.
  // The exact backend scores a model with a FactorizedHead in blocks of
  // users (EvaluateBlocks) and any other model one ScoreInto at a time.
  const int64_t num_users = static_cast<int64_t>(users.size());
  const size_t num_cutoffs = options.cutoffs.size();
  std::vector<std::vector<TopNMetrics>> per_user(num_users);
  if (fast) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    obs::Counter* queries = registry.GetCounter(kMetricRetrievalQueries);
    obs::Counter* rows_scanned =
        registry.GetCounter(kMetricRetrievalRowsScanned);
    obs::Counter* clusters_probed =
        registry.GetCounter(kMetricRetrievalClustersProbed);
    obs::Histogram* query_hist = registry.GetHistogram(
        kMetricRetrievalQueryUs, obs::ExponentialBuckets(1.0, 2.0, 22));
    ParallelFor(0, num_users, 1, [&](int64_t user_begin, int64_t user_end) {
      // Per-shard state: the query vector, search scratch, and result
      // buffers are reused across this shard's users, so the steady state
      // allocates nothing and needs no full score vector anywhere.
      std::vector<float> query;
      RetrievalIndex::Scratch scratch;
      std::vector<ScoredItem> top;
      std::vector<int32_t> ranked;
      std::unordered_set<int32_t> skip;
      for (int64_t ui = user_begin; ui < user_end; ++ui) {
        const data::HeldOutUser& user = users[ui];
        if (user.holdout.empty() || user.fold_in.empty()) continue;
        Stopwatch score_timer;
        {
          VSAN_TRACE_SPAN("eval/retrieve_user", kEval);
          VSAN_CHECK(model.EncodeQueryInto(user.fold_in, &query));
          skip.clear();
          if (options.exclude_fold_in) {
            std::unordered_set<int32_t> holdout_set(user.holdout.begin(),
                                                    user.holdout.end());
            for (int32_t item : user.fold_in) {
              if (holdout_set.count(item) == 0) skip.insert(item);
            }
          }
          // Over-fetch by the number of excludable items so the top
          // max_cutoff survivors are exactly what the exact path ranks.
          const int32_t k =
              max_cutoff + static_cast<int32_t>(skip.size());
          top.clear();
          index->Search(query.data(), k, &scratch, &top);
        }
        const double elapsed_us = score_timer.ElapsedNanos() * 1e-3;
        score_hist->Observe(elapsed_us);
        query_hist->Observe(elapsed_us);
        queries->Increment();
        rows_scanned->Increment(scratch.last_rows_scanned);
        clusters_probed->Increment(scratch.last_clusters_probed);

        ranked.clear();
        for (const ScoredItem& item : top) {
          if (skip.count(item.index) != 0) continue;
          ranked.push_back(item.index);
          if (static_cast<int32_t>(ranked.size()) >= max_cutoff) break;
        }
        std::vector<TopNMetrics>& metrics = per_user[ui];
        metrics.reserve(num_cutoffs);
        for (int32_t n : options.cutoffs) {
          metrics.push_back(ComputeTopN(ranked, user.holdout, n));
        }
      }
    });
  } else if (model.GetFactorizedHead(&head)) {
    EvaluateBlocks(model, head, users, options, max_cutoff, score_hist,
                   &per_user);
  } else {
    ParallelFor(0, num_users, 1, [&](int64_t user_begin, int64_t user_end) {
      // Hoisted per-shard buffers, reused across the users of this shard:
      // ScoreInto overwrites `scores` in place and `excluded` is re-assigned
      // each iteration, so neither reallocates after the first user.
      std::vector<float> scores;
      std::vector<bool> excluded;
      for (int64_t ui = user_begin; ui < user_end; ++ui) {
        const data::HeldOutUser& user = users[ui];
        if (user.holdout.empty() || user.fold_in.empty()) continue;
        Stopwatch score_timer;
        {
          VSAN_TRACE_SPAN("eval/score_user", kEval);
          model.ScoreInto(user.fold_in, &scores);
        }
        score_hist->Observe(score_timer.ElapsedNanos() * 1e-3);
        per_user[ui] = RankUser(user, scores, options, max_cutoff, &excluded);
      }
    });
  }

  int64_t evaluated = 0;
  for (int64_t ui = 0; ui < num_users; ++ui) {
    if (per_user[ui].empty()) continue;  // skipped: empty fold-in or holdout
    for (size_t c = 0; c < num_cutoffs; ++c) {
      const int32_t n = options.cutoffs[c];
      result.precision[n] += per_user[ui][c].precision;
      result.recall[n] += per_user[ui][c].recall;
      result.ndcg[n] += per_user[ui][c].ndcg;
    }
    ++evaluated;
  }
  VSAN_CHECK_GT(evaluated, 0);
  for (int32_t n : options.cutoffs) {
    result.precision[n] /= evaluated;
    result.recall[n] /= evaluated;
    result.ndcg[n] /= evaluated;
  }
  return result;
}

}  // namespace eval
}  // namespace vsan
