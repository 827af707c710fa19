#include "autograd/ops.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace vsan {
namespace ops {

using autograd::AccumulateGrad;
using autograd::Node;

namespace {

// The backward rules below are expressed entirely as forward GEMMs, so they
// inherit the thread-pool parallelism and the bitwise-determinism contract
// of tensor_ops.cc: gradients are identical at every thread count (checked
// by tests/parallel_equivalence_test.cc, including a finite-difference
// gradcheck run under the pool).
//
// Inputs are read back through self->parents[i]->value — the tape keeps
// both operands alive, so the closures capture nothing.

// dA = G * B^T, dB = A^T * G (2-D case).
void Backward2D(Node* self) {
  Node* pa = self->parents[0].get();
  Node* pb = self->parents[1].get();
  if (pa->requires_grad) {
    AccumulateGrad(pa, MatMul2D(self->grad, pb->value, /*trans_a=*/false,
                                /*trans_b=*/true));
  }
  if (pb->requires_grad) {
    AccumulateGrad(pb, MatMul2D(pa->value, self->grad, /*trans_a=*/true,
                                /*trans_b=*/false));
  }
}

// C = A * B^T with B stored [n, k] (an embedding table projecting rows
// onto the catalogue): dA = G * B, dB = G^T * A.  dB comes out in B's own
// [n, k] layout, so neither direction materializes a transposed copy.
void BackwardTransB(Node* self) {
  Node* pa = self->parents[0].get();
  Node* pb = self->parents[1].get();
  if (pa->requires_grad) {
    AccumulateGrad(pa, MatMul2D(self->grad, pb->value));
  }
  if (pb->requires_grad) {
    AccumulateGrad(pb, MatMul2D(self->grad, pa->value, /*trans_a=*/true,
                                /*trans_b=*/false));
  }
}

// Batched case: per-batch 2-D rule.
void BackwardBatched(Node* self) {
  Node* pa = self->parents[0].get();
  Node* pb = self->parents[1].get();
  if (pa->requires_grad) {
    AccumulateGrad(pa, BatchedMatMul(self->grad, pb->value, /*trans_a=*/false,
                                     /*trans_b=*/true));
  }
  if (pb->requires_grad) {
    AccumulateGrad(pb, BatchedMatMul(pa->value, self->grad, /*trans_a=*/true,
                                     /*trans_b=*/false));
  }
}

// Broadcast case ([B,m,k] x [k,n]): dW sums over the batch, which equals one
// flattened 2-D GEMM.
void BackwardBroadcast(Node* self) {
  Node* pa = self->parents[0].get();
  Node* pw = self->parents[1].get();
  const Tensor& a = pa->value;
  const Tensor& w = pw->value;
  const int64_t bm = a.dim(0) * a.dim(1);
  if (pa->requires_grad) {
    Tensor ga2 = MatMul2D(self->grad.Reshaped({bm, w.dim(1)}), w,
                          /*trans_a=*/false, /*trans_b=*/true);
    AccumulateGrad(pa, std::move(ga2).Reshaped(a.shape()));
  }
  if (pw->requires_grad) {
    AccumulateGrad(pw, MatMul2D(a.Reshaped({bm, a.dim(2)}),
                                self->grad.Reshaped({bm, w.dim(1)}),
                                /*trans_a=*/true, /*trans_b=*/false));
  }
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  VSAN_TRACE_SPAN("ops/matmul", kAutograd);
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  if (av.ndim() == 2 && bv.ndim() == 2) {
    return Variable::MakeNode(MatMul2D(av, bv), {a, b}, Backward2D,
                              "matmul2d");
  }
  if (av.ndim() == 3 && bv.ndim() == 3) {
    return Variable::MakeNode(BatchedMatMul(av, bv), {a, b}, BackwardBatched,
                              "matmul_batched");
  }
  if (av.ndim() == 3 && bv.ndim() == 2) {
    return Variable::MakeNode(BatchedMatMulBroadcast(av, bv), {a, b},
                              BackwardBroadcast, "matmul_broadcast");
  }
  VSAN_LOG_FATAL << "unsupported matmul ranks: " << av.ndim() << " x "
                 << bv.ndim();
  return Variable();
}

Variable MatMulTransB(const Variable& a, const Variable& b) {
  VSAN_TRACE_SPAN("ops/matmul", kAutograd);
  return Variable::MakeNode(
      MatMul2D(a.value(), b.value(), /*trans_a=*/false, /*trans_b=*/true),
      {a, b}, BackwardTransB, "matmul_trans_b");
}

}  // namespace ops
}  // namespace vsan
