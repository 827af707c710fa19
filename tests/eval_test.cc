#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/vsan.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "models/caser.h"
#include "models/embedding_mips.h"
#include "models/gru4rec.h"
#include "models/sasrec.h"
#include "models/svae.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace vsan {
namespace eval {
namespace {

TEST(MetricsTest, PerfectRankingScoresOne) {
  const std::vector<int32_t> ranked = {3, 7, 9};
  const std::vector<int32_t> holdout = {3, 7, 9};
  TopNMetrics m = ComputeTopN(ranked, holdout, 3);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 1.0);
}

TEST(MetricsTest, NoHitsScoreZero) {
  TopNMetrics m = ComputeTopN({1, 2, 3}, {9}, 3);
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.ndcg, 0.0);
}

TEST(MetricsTest, HandComputedPartialHit) {
  // N=4, ranked = [5, 1, 7, 2], holdout = {1, 2, 9}.
  // hits at ranks 2 and 4 -> precision 2/4, recall 2/3.
  // DCG = 1/log2(3) + 1/log2(5); IDCG = 1/log2(2)+1/log2(3)+1/log2(4).
  TopNMetrics m = ComputeTopN({5, 1, 7, 2}, {1, 2, 9}, 4);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_NEAR(m.recall, 2.0 / 3.0, 1e-12);
  const double dcg = 1.0 / std::log2(3.0) + 1.0 / std::log2(5.0);
  const double idcg =
      1.0 / std::log2(2.0) + 1.0 / std::log2(3.0) + 1.0 / std::log2(4.0);
  EXPECT_NEAR(m.ndcg, dcg / idcg, 1e-12);
}

TEST(MetricsTest, RanksBeyondNIgnored) {
  TopNMetrics at2 = ComputeTopN({4, 5, 1}, {1}, 2);
  EXPECT_DOUBLE_EQ(at2.recall, 0.0);
  TopNMetrics at3 = ComputeTopN({4, 5, 1}, {1}, 3);
  EXPECT_DOUBLE_EQ(at3.recall, 1.0);
}

TEST(MetricsTest, DuplicateHoldoutCountsOnce) {
  TopNMetrics m = ComputeTopN({1, 2}, {1, 1}, 2);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);      // |T| = 1 distinct
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
}

TEST(MetricsTest, IdcgCapsAtHoldoutSize) {
  // One relevant item ranked first out of N=10: NDCG must be exactly 1.
  TopNMetrics m = ComputeTopN({3, 1, 2, 4, 5, 6, 7, 8, 9, 10}, {3}, 10);
  EXPECT_DOUBLE_EQ(m.ndcg, 1.0);
}

TEST(TopNIndicesTest, SortsByScoreSkippingExcluded) {
  const std::vector<float> scores = {99.0f, 0.1f, 0.9f, 0.5f, 0.7f};
  std::vector<bool> excluded(5, false);
  excluded[0] = true;  // padding
  excluded[4] = true;  // fold-in item
  const auto top = TopNIndices(scores, excluded, 2);
  EXPECT_EQ(top, (std::vector<int32_t>{2, 3}));
}

TEST(TopNIndicesTest, DeterministicTieBreakByIndex) {
  const std::vector<float> scores = {0.0f, 1.0f, 1.0f, 1.0f};
  const std::vector<bool> excluded(4, false);
  const auto top = TopNIndices(scores, excluded, 3);
  EXPECT_EQ(top, (std::vector<int32_t>{1, 2, 3}));
}

// Oracle that always ranks the next item in a fixed cycle highest.
class OracleModel : public SequentialRecommender {
 public:
  explicit OracleModel(int32_t num_items) : num_items_(num_items) {}
  std::string name() const override { return "Oracle"; }
  void Fit(const data::SequenceDataset&, const TrainOptions&) override {}
  std::vector<float> Score(const std::vector<int32_t>& fold_in) const override {
    std::vector<float> scores(num_items_ + 1, 0.0f);
    const int32_t last = fold_in.back();
    // Next in cycle gets the highest score, then the one after, etc.
    for (int32_t offset = 1; offset <= num_items_; ++offset) {
      const int32_t item = (last - 1 + offset) % num_items_ + 1;
      scores[item] = static_cast<float>(num_items_ - offset);
    }
    return scores;
  }

 private:
  int32_t num_items_;
};

TEST(EvaluatorTest, OracleGetsPerfectRecallOnCycleData) {
  const int32_t num_items = 20;
  std::vector<data::HeldOutUser> users;
  for (int32_t start = 1; start <= 5; ++start) {
    data::HeldOutUser u;
    for (int32_t i = 0; i < 8; ++i) {
      u.fold_in.push_back((start - 1 + i) % num_items + 1);
    }
    for (int32_t i = 8; i < 10; ++i) {
      u.holdout.push_back((start - 1 + i) % num_items + 1);
    }
    users.push_back(u);
  }
  OracleModel oracle(num_items);
  EvalOptions opts;
  opts.cutoffs = {2, 10};
  EvalResult r = EvaluateRanking(oracle, users, opts);
  EXPECT_DOUBLE_EQ(r.recall[2], 1.0);   // the 2 holdout items rank 1-2
  EXPECT_DOUBLE_EQ(r.ndcg[2], 1.0);
  EXPECT_DOUBLE_EQ(r.precision[2], 1.0);
  EXPECT_DOUBLE_EQ(r.recall[10], 1.0);
  EXPECT_DOUBLE_EQ(r.precision[10], 0.2);  // 2 of 10 slots relevant
}

// Deterministic per-user scorer for the invariance regressions below.
class HashScoreModel : public SequentialRecommender {
 public:
  explicit HashScoreModel(int32_t num_items) : num_items_(num_items) {}
  std::string name() const override { return "HashScore"; }
  void Fit(const data::SequenceDataset&, const TrainOptions&) override {}
  std::vector<float> Score(const std::vector<int32_t>& fold_in) const override {
    std::vector<float> scores(num_items_ + 1, 0.0f);
    const int32_t last = fold_in.back();
    for (int32_t i = 1; i <= num_items_; ++i) {
      scores[i] = static_cast<float>((i * 31 + last * 7) % 97);
    }
    return scores;
  }

 private:
  int32_t num_items_;
};

std::vector<data::HeldOutUser> MakeDistinctUsers(int32_t count,
                                                 int32_t num_items) {
  Rng rng(7);
  std::vector<data::HeldOutUser> users(count);
  for (int32_t u = 0; u < count; ++u) {
    for (int i = 0; i < 5; ++i) {
      users[u].fold_in.push_back(
          static_cast<int32_t>(rng.UniformInt(1, num_items)));
    }
    users[u].holdout.push_back(
        static_cast<int32_t>(rng.UniformInt(1, num_items)));
  }
  return users;
}

// Regression for the evaluator RNG determinism bug: negative-sampling seeds
// used to come from one sequential generator, so each user's candidate set
// depended on how many users were processed before it.  Seeds are now
// derived per user from the user's own history, making results invariant
// to user ordering.
TEST(EvaluatorTest, SampledNegativesInvariantToUserOrdering) {
  const int32_t num_items = 120;
  HashScoreModel model(num_items);
  std::vector<data::HeldOutUser> users = MakeDistinctUsers(11, num_items);

  eval::EvalOptions opts;
  // Cutoff 1 with single-item holdouts keeps every per-user metric in
  // {0, 1}, so the averaged sums are exact and comparable bitwise even
  // though reordering changes the summation order; @5 metrics are compared
  // within float-sum tolerance.
  opts.cutoffs = {1, 5};
  opts.num_sampled_negatives = 30;

  const eval::EvalResult forward = eval::EvaluateRanking(model, users, opts);
  std::reverse(users.begin(), users.end());
  const eval::EvalResult reversed = eval::EvaluateRanking(model, users, opts);
  Rng shuffle_rng(3);
  shuffle_rng.Shuffle(&users);
  const eval::EvalResult shuffled = eval::EvaluateRanking(model, users, opts);

  for (const eval::EvalResult* other : {&reversed, &shuffled}) {
    EXPECT_DOUBLE_EQ(forward.recall.at(1), other->recall.at(1));
    EXPECT_DOUBLE_EQ(forward.precision.at(1), other->precision.at(1));
    EXPECT_DOUBLE_EQ(forward.ndcg.at(1), other->ndcg.at(1));
    EXPECT_NEAR(forward.recall.at(5), other->recall.at(5), 1e-12);
    EXPECT_NEAR(forward.precision.at(5), other->precision.at(5), 1e-12);
    EXPECT_NEAR(forward.ndcg.at(5), other->ndcg.at(5), 1e-12);
  }
}

TEST(EvaluatorTest, SampledNegativesInvariantToThreadCount) {
  const int32_t num_items = 120;
  HashScoreModel model(num_items);
  const std::vector<data::HeldOutUser> users = MakeDistinctUsers(9, num_items);

  eval::EvalOptions opts;
  opts.cutoffs = {5};
  opts.num_sampled_negatives = 25;

  ThreadPool::SetGlobalNumThreads(1);
  const eval::EvalResult serial = eval::EvaluateRanking(model, users, opts);
  for (int threads : {2, 4}) {
    ThreadPool::SetGlobalNumThreads(threads);
    const eval::EvalResult parallel = eval::EvaluateRanking(model, users, opts);
    // Per-user metrics are merged serially in user order, so this holds
    // bitwise, not just approximately.
    EXPECT_DOUBLE_EQ(serial.recall.at(5), parallel.recall.at(5));
    EXPECT_DOUBLE_EQ(serial.precision.at(5), parallel.precision.at(5));
    EXPECT_DOUBLE_EQ(serial.ndcg.at(5), parallel.ndcg.at(5));
  }
  ThreadPool::SetGlobalNumThreads(ThreadPool::DefaultNumThreads());
}

TEST(EvaluatorTest, ResultToStringIsPercentages) {
  EvalResult r;
  r.ndcg[10] = 0.0678;
  r.recall[10] = 0.0934;
  r.precision[10] = 0.0229;
  const std::string s = r.ToString();
  EXPECT_NE(s.find("NDCG@10=6.780"), std::string::npos);
  EXPECT_NE(s.find("Recall@10=9.340"), std::string::npos);
}

// --- Exact backend over a FactorizedHead --------------------------------

// Per-user reference for the exact backend: each user's ScoreInto vector,
// ranked by TopNIndices and scored by ComputeTopN, summed in user order and
// averaged.  Candidate sampling restates the protocol documented on
// EvalOptions::negative_seed: each user's stream is seeded by MixSeed over
// the base seed and the user's own fold-in and holdout.
EvalResult ReferenceEvaluate(const SequentialRecommender& model,
                             const std::vector<data::HeldOutUser>& users,
                             const EvalOptions& options) {
  const int32_t max_cutoff =
      *std::max_element(options.cutoffs.begin(), options.cutoffs.end());
  EvalResult result;
  for (int32_t n : options.cutoffs) {
    result.precision[n] = 0.0;
    result.recall[n] = 0.0;
    result.ndcg[n] = 0.0;
  }
  int64_t evaluated = 0;
  std::vector<float> scores;
  for (const data::HeldOutUser& user : users) {
    if (user.fold_in.empty() || user.holdout.empty()) continue;
    model.ScoreInto(user.fold_in, &scores);
    const int32_t num_items = static_cast<int32_t>(scores.size()) - 1;
    std::vector<bool> excluded(scores.size(), false);
    excluded[0] = true;
    if (options.num_sampled_negatives > 0) {
      uint64_t seed = MixSeed(options.negative_seed, user.fold_in.size());
      for (int32_t item : user.fold_in) {
        seed = MixSeed(seed, static_cast<uint64_t>(item));
      }
      seed = MixSeed(seed, user.holdout.size());
      for (int32_t item : user.holdout) {
        seed = MixSeed(seed, static_cast<uint64_t>(item));
      }
      Rng rng(seed);
      const std::unordered_set<int32_t> seen(user.fold_in.begin(),
                                             user.fold_in.end());
      std::unordered_set<int32_t> candidates(user.holdout.begin(),
                                             user.holdout.end());
      const size_t want = static_cast<size_t>(options.num_sampled_negatives) +
                          user.holdout.size();
      for (int32_t guard = 0;
           candidates.size() < want && guard < num_items * 20; ++guard) {
        const int32_t neg = static_cast<int32_t>(rng.UniformInt(1, num_items));
        if (seen.count(neg) == 0) candidates.insert(neg);
      }
      for (int32_t item = 1; item <= num_items; ++item) {
        if (candidates.count(item) == 0) excluded[item] = true;
      }
    }
    const std::unordered_set<int32_t> holdout(user.holdout.begin(),
                                              user.holdout.end());
    for (int32_t item : user.fold_in) {
      if (holdout.count(item) == 0) excluded[item] = true;
    }
    const std::vector<int32_t> ranked =
        TopNIndices(scores, excluded, max_cutoff);
    for (int32_t n : options.cutoffs) {
      const TopNMetrics m = ComputeTopN(ranked, user.holdout, n);
      result.precision[n] += m.precision;
      result.recall[n] += m.recall;
      result.ndcg[n] += m.ndcg;
    }
    ++evaluated;
  }
  for (int32_t n : options.cutoffs) {
    result.precision[n] /= evaluated;
    result.recall[n] /= evaluated;
    result.ndcg[n] /= evaluated;
  }
  return result;
}

// Every model that exposes a FactorizedHead, at toy sizes.
std::unique_ptr<SequentialRecommender> MakeHeadModel(const std::string& name) {
  if (name == "vsan_tied" || name == "vsan_untied") {
    core::VsanConfig config;
    config.max_len = 8;
    config.d = 8;
    config.tie_output = name == "vsan_tied";
    return std::make_unique<core::Vsan>(config);
  }
  if (name == "sasrec") {
    models::SasRec::Config config;
    config.max_len = 8;
    config.d = 8;
    return std::make_unique<models::SasRec>(config);
  }
  if (name == "gru4rec") {
    models::Gru4Rec::Config config;
    config.max_len = 8;
    config.d = 8;
    config.hidden = 8;
    return std::make_unique<models::Gru4Rec>(config);
  }
  if (name == "caser") {
    models::Caser::Config config;
    config.window = 4;
    config.d = 8;
    config.heights = {2, 3};
    config.h_filters = 4;
    config.v_filters = 2;
    return std::make_unique<models::Caser>(config);
  }
  if (name == "svae") {
    models::Svae::Config config;
    config.max_len = 8;
    config.d = 8;
    config.hidden = 8;
    config.latent = 4;
    return std::make_unique<models::Svae>(config);
  }
  models::EmbeddingMips::Config config;
  config.d = 8;
  return std::make_unique<models::EmbeddingMips>(config);
}

class ExactHeadOracleTest : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override {
    ThreadPool::SetGlobalNumThreads(ThreadPool::DefaultNumThreads());
  }
};

// The exact backend scores a FactorizedHead model 32 users per GEMM; its
// result maps must equal the per-user ScoreInto reference exactly, at every
// thread count, in both storage precisions, for full ranking and sampled
// negatives.  75 split users plus one with an empty fold-in and one with
// an empty holdout make 77: two full blocks and a partial one.
TEST_P(ExactHeadOracleTest, BlockedEvaluationEqualsPerUserScoreInto) {
  data::SyntheticConfig data_config;
  data_config.num_users = 160;
  data_config.num_items = 90;
  data_config.seed = 11;
  const data::SequenceDataset dataset = data::GenerateSynthetic(data_config);
  data::SplitOptions split_options;
  split_options.num_test_users = 75;
  const data::StrongSplit split = data::MakeStrongSplit(dataset, split_options);
  std::vector<data::HeldOutUser> users = split.test;
  ASSERT_EQ(users.size(), 75u);
  users.insert(users.begin() + 40, data::HeldOutUser{{}, {3}});
  users.push_back(data::HeldOutUser{{4, 5}, {}});
  ASSERT_NE(users.size() % 32, 0u);

  std::unique_ptr<SequentialRecommender> model = MakeHeadModel(GetParam());
  TrainOptions train;
  train.epochs = 1;
  train.batch_size = 32;
  model->Fit(split.train, train);
  FactorizedHead head;
  ASSERT_TRUE(model->GetFactorizedHead(&head));

  for (MatMulPrecision precision :
       {MatMulPrecision::kFp32, MatMulPrecision::kBf16}) {
    model->set_eval_precision(precision);
    for (int32_t negatives : {0, 15}) {
      EvalOptions options;
      options.cutoffs = {5, 10};
      options.num_sampled_negatives = negatives;
      const EvalResult expected = ReferenceEvaluate(*model, users, options);
      EXPECT_GT(expected.recall.at(10), 0.0);
      for (int threads : {1, 2, 4}) {
        ThreadPool::SetGlobalNumThreads(threads);
        const EvalResult got = EvaluateRanking(*model, users, options);
        const std::string where =
            StrCat("threads=", threads, " negatives=", negatives, " bf16=",
                   precision == MatMulPrecision::kBf16);
        EXPECT_EQ(expected.precision, got.precision) << where;
        EXPECT_EQ(expected.recall, got.recall) << where;
        EXPECT_EQ(expected.ndcg, got.ndcg) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllHeadModels, ExactHeadOracleTest,
    ::testing::Values("vsan_tied", "vsan_untied", "sasrec", "gru4rec",
                      "caser", "svae", "embedding_mips"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace eval
}  // namespace vsan
