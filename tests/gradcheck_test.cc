// Finite-difference gradient checks for every differentiable op.  These are
// the load-bearing correctness tests for the training substrate: if these
// pass, backprop through any composition of ops is trustworthy.

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "testing/gradcheck.h"
#include "util/rng.h"

namespace vsan {
namespace {

using testing::ExpectGradientsClose;

Tensor Rand(std::vector<int64_t> shape, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  return Tensor::RandomNormal(std::move(shape), &rng, stddev);
}

TEST(GradCheck, Add) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::Add(v[0], v[1]));
      },
      {Rand({2, 3}, 1), Rand({2, 3}, 2)});
}

TEST(GradCheck, Sub) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::Sub(v[0], v[1]));
      },
      {Rand({2, 3}, 3), Rand({2, 3}, 4)});
}

TEST(GradCheck, Mul) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::Mul(v[0], v[1]));
      },
      {Rand({2, 3}, 5), Rand({2, 3}, 6)});
}

TEST(GradCheck, ScaleAndAddConst) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Sum(ops::AddConst(ops::Scale(v[0], -1.7f), 0.3f));
      },
      {Rand({4}, 7)});
}

TEST(GradCheck, AddBias) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::AddBias(v[0], v[1]));
      },
      {Rand({3, 4}, 8), Rand({4}, 9)});
}

TEST(GradCheck, AddBroadcastMatrix) {
  Tensor m = Rand({2, 3}, 100);
  ExpectGradientsClose(
      [m](const std::vector<Variable>& v) {
        return ops::Mean(ops::AddBroadcastMatrix(v[0], m));
      },
      {Rand({4, 2, 3}, 10)});
}

TEST(GradCheck, Reshape) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        // Mix with a square so the gradient is non-constant.
        Variable r = ops::Reshape(v[0], {3, 2});
        return ops::Mean(ops::Mul(r, r));
      },
      {Rand({2, 3}, 11)});
}

TEST(GradCheck, ConcatAxis1) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable c = ops::Concat({v[0], v[1]}, /*axis=*/1);
        return ops::Mean(ops::Mul(c, c));
      },
      {Rand({2, 2, 3}, 12), Rand({2, 4, 3}, 13)});
}

TEST(GradCheck, ConcatLastAxis) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable c = ops::Concat({v[0], v[1], v[2]}, /*axis=*/1);
        return ops::Mean(ops::Mul(c, c));
      },
      {Rand({2, 3}, 14), Rand({2, 1}, 15), Rand({2, 2}, 16)});
}

TEST(GradCheck, Slice) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable s = ops::Slice(v[0], /*axis=*/1, /*start=*/1, /*len=*/2);
        return ops::Mean(ops::Mul(s, s));
      },
      {Rand({2, 4, 3}, 17)});
}

// a * b^T with b in its stored [n, k] layout (the tied output heads):
// checks both dA = G * B and dB = G^T * A.  Squaring the product makes
// both gradients depend on the other operand.
TEST(GradCheck, MatMulTransB) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable c = ops::MatMulTransB(v[0], v[1]);
        return ops::Mean(ops::Mul(c, c));
      },
      {Rand({3, 4}, 18), Rand({5, 4}, 118)});
}

TEST(GradCheck, TransposeLast2) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable t = ops::TransposeLast2(v[0]);
        return ops::Mean(ops::Mul(t, t));
      },
      {Rand({2, 3, 4}, 19)});
}

TEST(GradCheck, MatMul2D) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::MatMul(v[0], v[1]));
      },
      {Rand({3, 4}, 20), Rand({4, 2}, 21)});
}

TEST(GradCheck, MatMulBatched) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::MatMul(v[0], v[1]));
      },
      {Rand({2, 3, 4}, 22), Rand({2, 4, 2}, 23)});
}

TEST(GradCheck, MatMulBroadcast) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::MatMul(v[0], v[1]));
      },
      {Rand({2, 3, 4}, 24), Rand({4, 5}, 25)});
}

TEST(GradCheck, ReluAwayFromKink) {
  // Shift inputs away from 0 where ReLU is non-differentiable.
  Tensor x = Rand({3, 3}, 26);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] = 0.5f;
  }
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::Relu(v[0]));
      },
      {x});
}

TEST(GradCheck, Sigmoid) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::Sigmoid(v[0]));
      },
      {Rand({2, 5}, 27)});
}

TEST(GradCheck, Tanh) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::Tanh(v[0]));
      },
      {Rand({2, 5}, 28)});
}

TEST(GradCheck, Exp) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::Exp(v[0]));
      },
      {Rand({6}, 29, 0.5f)});
}

TEST(GradCheck, Log) {
  Tensor x = Rand({6}, 30);
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = std::abs(x[i]) + 0.5f;
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::Log(v[0]));
      },
      {x});
}

TEST(GradCheck, Softmax) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable s = ops::Softmax(v[0]);
        // Weighted sum so gradient differs per element.
        return ops::Mean(ops::Mul(s, s));
      },
      {Rand({3, 5}, 31)});
}

TEST(GradCheck, SumAndMean) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Add(ops::Sum(ops::Mul(v[0], v[0])), ops::Mean(v[0]));
      },
      {Rand({7}, 32)});
}

TEST(GradCheck, MaxOverAxis1) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::Mean(ops::MaxOverAxis1(v[0]));
      },
      {Rand({2, 4, 3}, 33)});
}

TEST(GradCheck, MeanOverAxis1) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable m = ops::MeanOverAxis1(v[0]);
        return ops::Mean(ops::Mul(m, m));
      },
      {Rand({2, 4, 3}, 34)});
}

TEST(GradCheck, LayerNorm) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable y = ops::LayerNorm(v[0], v[1], v[2]);
        return ops::Mean(ops::Mul(y, y));
      },
      {Rand({3, 6}, 35), Rand({6}, 36, 0.5f), Rand({6}, 37, 0.5f)},
      /*eps=*/1e-2, /*rel_tol=*/6e-2, /*abs_tol=*/1.5e-2);
}

TEST(GradCheck, LayerNorm3D) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable y = ops::LayerNorm(v[0], v[1], v[2]);
        return ops::Mean(ops::Mul(y, y));
      },
      {Rand({2, 2, 5}, 38), Rand({5}, 39, 0.5f), Rand({5}, 40, 0.5f)},
      /*eps=*/1e-2, /*rel_tol=*/6e-2, /*abs_tol=*/1.5e-2);
}

TEST(GradCheck, EmbeddingLookup) {
  const std::vector<int32_t> idx = {1, 2, 0, 3, 2, 1};
  ExpectGradientsClose(
      [idx](const std::vector<Variable>& v) {
        Variable e = ops::EmbeddingLookup(v[0], idx, /*batch=*/2, /*steps=*/3);
        return ops::Mean(ops::Mul(e, e));
      },
      {Rand({4, 3}, 41)});
}

TEST(GradCheck, GatherRows) {
  const std::vector<int64_t> idx = {2, 0, 2, 1};  // duplicate row 2
  ExpectGradientsClose(
      [idx](const std::vector<Variable>& v) {
        Variable g = ops::GatherRows(v[0], idx);
        return ops::Mean(ops::Mul(g, g));
      },
      {Rand({3, 4}, 140)});
}

TEST(GradCheck, AddBroadcastMatrixVar) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable y = ops::AddBroadcastMatrixVar(v[0], v[1]);
        return ops::Mean(ops::Mul(y, y));
      },
      {Rand({3, 2, 4}, 141), Rand({2, 4}, 142)});
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  const std::vector<int32_t> targets = {2, 0, -1, 4};
  ExpectGradientsClose(
      [targets](const std::vector<Variable>& v) {
        return ops::SoftmaxCrossEntropy(v[0], targets, /*ignore_index=*/-1);
      },
      {Rand({4, 5}, 42)});
}

TEST(GradCheck, MultiLabelSoftmaxCrossEntropy) {
  const std::vector<std::vector<int32_t>> targets = {{1, 3}, {}, {0}};
  ExpectGradientsClose(
      [targets](const std::vector<Variable>& v) {
        return ops::MultiLabelSoftmaxCrossEntropy(v[0], targets);
      },
      {Rand({3, 5}, 43)});
}

TEST(GradCheck, KlStandardNormal) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        return ops::KlStandardNormal(v[0], v[1]);
      },
      {Rand({3, 4}, 44, 0.5f), Rand({3, 4}, 45, 0.5f)});
}

TEST(GradCheck, KlStandardNormalWithRowMask) {
  const std::vector<float> mask = {1.0f, 0.0f, 1.0f};
  ExpectGradientsClose(
      [mask](const std::vector<Variable>& v) {
        return ops::KlStandardNormal(v[0], v[1], mask);
      },
      {Rand({3, 4}, 46, 0.5f), Rand({3, 4}, 47, 0.5f)});
}

TEST(GradCheck, ReparameterizeFixedNoise) {
  // Re-seeding the Rng inside the loss makes the sampled noise identical
  // across evaluations, so finite differences are valid.
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Rng rng(123);
        Variable z = ops::Reparameterize(v[0], v[1], &rng, /*sample=*/true);
        return ops::Mean(ops::Mul(z, z));
      },
      {Rand({2, 3}, 48, 0.5f), Rand({2, 3}, 49, 0.5f)});
}

TEST(GradCheck, DropoutFixedMask) {
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Rng rng(321);
        Variable y = ops::Dropout(v[0], 0.3f, &rng, /*training=*/true);
        return ops::Mean(ops::Mul(y, y));
      },
      {Rand({4, 4}, 50)});
}

TEST(GradCheck, ComposedAttentionLikeGraph) {
  // A miniature causal-attention block: checks gradients flow correctly
  // through the exact op composition the models use.
  Tensor mask = Tensor::Zeros({3, 3});
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = i + 1; j < 3; ++j) mask.at(i, j) = -1e9f;
  }
  ExpectGradientsClose(
      [mask](const std::vector<Variable>& v) {
        const Variable& x = v[0];
        Variable q = ops::MatMul(x, v[1]);
        Variable k = ops::MatMul(x, v[2]);
        Variable val = ops::MatMul(x, v[3]);
        Variable scores =
            ops::Scale(ops::MatMul(q, ops::TransposeLast2(k)), 0.5f);
        Variable attn = ops::Softmax(ops::AddBroadcastMatrix(scores, mask));
        Variable out = ops::MatMul(attn, val);
        return ops::Mean(ops::Mul(out, out));
      },
      {Rand({2, 3, 4}, 51), Rand({4, 4}, 52, 0.5f), Rand({4, 4}, 53, 0.5f),
       Rand({4, 4}, 54, 0.5f)},
      /*eps=*/1e-2, /*rel_tol=*/6e-2, /*abs_tol=*/1.5e-2);
}

}  // namespace
}  // namespace vsan
