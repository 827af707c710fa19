#ifndef VSAN_AUTOGRAD_OPS_H_
#define VSAN_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "util/rng.h"

// Differentiable operations on Variable.  Every function returns a new tape
// node whose backward closure accumulates gradients into its parents.

namespace vsan {
namespace ops {

// --- Elementwise / broadcast ------------------------------------------------

Variable Add(const Variable& a, const Variable& b);   // same shape
Variable Sub(const Variable& a, const Variable& b);   // same shape
Variable Mul(const Variable& a, const Variable& b);   // same shape
Variable Scale(const Variable& x, float s);
Variable AddConst(const Variable& x, float c);
// x + bias, bias broadcast along the last dimension.
Variable AddBias(const Variable& x, const Variable& bias);
// x + m for 3-D x [B, r, c] and constant 2-D mask m [r, c] (no grad to m).
Variable AddBroadcastMatrix(const Variable& x, const Tensor& m);
// Differentiable variant: m is a learnable [r, c] Variable (e.g. position
// embeddings); its gradient sums over the batch dimension.
Variable AddBroadcastMatrixVar(const Variable& x, const Variable& m);

// --- Shape ------------------------------------------------------------------

Variable Reshape(const Variable& x, std::vector<int64_t> shape);
// Concatenation along `axis` (all other dims equal).
Variable Concat(const std::vector<Variable>& xs, int axis);
// Contiguous slice [start, start+len) along `axis`.
Variable Slice(const Variable& x, int axis, int64_t start, int64_t len);
Variable TransposeLast2(const Variable& x);  // 3-D

// --- Linear algebra -----------------------------------------------------------

// Matrix product.  Supported shapes:
//   [m,k]x[k,n] -> [m,n]
//   [B,m,k]x[B,k,n] -> [B,m,n]   (batched)
//   [B,m,k]x[k,n]   -> [B,m,n]   (weight broadcast over batch)
Variable MatMul(const Variable& a, const Variable& b);
// a * b^T for 2-D a [m,k] and b [n,k] -> [m,n], without copying b.  The
// tied output heads project hidden rows onto the [V,d] item-embedding
// table through this; b's gradient is written in its own [n,k] layout.
Variable MatMulTransB(const Variable& a, const Variable& b);

// --- Activations --------------------------------------------------------------

Variable Relu(const Variable& x);
Variable Sigmoid(const Variable& x);
Variable Tanh(const Variable& x);
Variable Exp(const Variable& x);
// Natural log; input must be positive.
Variable Log(const Variable& x);
// Softmax over the last dimension.
Variable Softmax(const Variable& x);
// Inverted dropout: active only when `training`; scales kept units by
// 1/(1-rate).
Variable Dropout(const Variable& x, float rate, Rng* rng, bool training);

// --- Reductions ----------------------------------------------------------------

Variable Sum(const Variable& x);   // scalar
Variable Mean(const Variable& x);  // scalar
// Max over axis 1 of a 3-D tensor: [B, t, f] -> [B, f].  Gradient flows to
// the argmax element (first one on ties).
Variable MaxOverAxis1(const Variable& x);
// Mean over axis 1 of a 3-D tensor: [B, t, f] -> [B, f].
Variable MeanOverAxis1(const Variable& x);

// --- Normalization ---------------------------------------------------------------

// Layer normalization over the last dimension with learned gain/bias.
Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps = 1e-5f);

// --- Embeddings -------------------------------------------------------------------

// Gathers rows of `table` ([V, d]) at `indices` (values in [0, V)), returning
// [batch, steps, d].  `indices.size()` must equal batch*steps.  When
// `mask_zero` is set, index 0 produces a zero row and receives no gradient
// (the padding-item convention used throughout the models).
Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int32_t>& indices, int64_t batch,
                         int64_t steps, bool mask_zero = true);

// Gathers rows of a 2-D tensor: out[i] = x[indices[i]].  Gradient
// scatter-adds back (duplicate indices accumulate).  Used to restrict the
// output projection + loss to positions that actually have targets.
Variable GatherRows(const Variable& x, const std::vector<int64_t>& indices);

// --- Losses and variational ops ------------------------------------------------------

// Mean softmax cross-entropy over rows of `logits` ([R, C]) against integer
// `targets` (size R).  Rows whose target is `ignore_index` contribute
// nothing.  Returns a scalar.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int32_t>& targets,
                             int32_t ignore_index = -1);

// Multi-hot variant (Eq. 18/20 of the paper): each row's loss is
// -sum_{t in targets[r]} log softmax(logits[r])[t]; rows with no targets are
// skipped.  Returns the mean over contributing rows.
Variable MultiLabelSoftmaxCrossEntropy(
    const Variable& logits, const std::vector<std::vector<int32_t>>& targets);

// Sampled binary cross-entropy, the original SASRec training objective:
// for each row r, loss = -log sigmoid(logits[r, pos[r]])
//                 - sum_j log(1 - sigmoid(logits[r, neg[r][j]])).
// Returns the mean over rows.  `positives` uses -1 to skip a row.
Variable SampledBinaryCrossEntropy(
    const Variable& logits, const std::vector<int32_t>& positives,
    const std::vector<std::vector<int32_t>>& negatives);

// KL(N(mu, exp(logvar)) || N(0, I)) averaged over rows selected by
// `row_mask` (1 = count the row).  `mu`/`logvar` are [R, d]; `row_mask` has
// size R (empty = all rows).  Returns a scalar (Eq. 20's KL term).
Variable KlStandardNormal(const Variable& mu, const Variable& logvar,
                          const std::vector<float>& row_mask = {});

// Reparameterization trick (Eq. 13): z = mu + exp(0.5*logvar) * eps with
// eps ~ N(0, I) drawn from `rng`.  When `sample` is false, returns mu
// (evaluation-time behaviour per Sec. IV-E).
Variable Reparameterize(const Variable& mu, const Variable& logvar, Rng* rng,
                        bool sample);

}  // namespace ops
}  // namespace vsan

#endif  // VSAN_AUTOGRAD_OPS_H_
