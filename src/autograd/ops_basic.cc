#include <cstring>
#include <utility>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace vsan {
namespace ops {

using autograd::AccumulateGrad;
using autograd::Node;

Variable Add(const Variable& a, const Variable& b) {
  VSAN_CHECK(a.value().SameShape(b.value()));
  return Variable::MakeNode(
      vsan::Add(a.value(), b.value()), {a, b},
      [](Node* self) {
        AccumulateGrad(self->parents[0].get(), self->grad);
        AccumulateGrad(self->parents[1].get(), self->grad);
      },
      "add");
}

Variable Sub(const Variable& a, const Variable& b) {
  VSAN_CHECK(a.value().SameShape(b.value()));
  return Variable::MakeNode(
      vsan::Sub(a.value(), b.value()), {a, b},
      [](Node* self) {
        AccumulateGrad(self->parents[0].get(), self->grad);
        AccumulateGrad(self->parents[1].get(), MulScalar(self->grad, -1.0f));
      },
      "sub");
}

Variable Mul(const Variable& a, const Variable& b) {
  VSAN_CHECK(a.value().SameShape(b.value()));
  return Variable::MakeNode(
      vsan::Mul(a.value(), b.value()), {a, b},
      [](Node* self) {
        // Operands live in the parent nodes for the tape's lifetime; no
        // need to capture copies.
        AccumulateGrad(self->parents[0].get(),
                       vsan::Mul(self->grad, self->parents[1]->value));
        AccumulateGrad(self->parents[1].get(),
                       vsan::Mul(self->grad, self->parents[0]->value));
      },
      "mul");
}

Variable Scale(const Variable& x, float s) {
  return Variable::MakeNode(
      MulScalar(x.value(), s), {x},
      [s](Node* self) {
        AccumulateGrad(self->parents[0].get(), MulScalar(self->grad, s));
      },
      "scale");
}

Variable AddConst(const Variable& x, float c) {
  return Variable::MakeNode(
      AddScalar(x.value(), c), {x},
      [](Node* self) {
        AccumulateGrad(self->parents[0].get(), self->grad);
      },
      "add_const");
}

Variable AddBias(const Variable& x, const Variable& bias) {
  const int64_t n = x.value().dim(x.value().ndim() - 1);
  VSAN_CHECK_EQ(bias.value().ndim(), 1);
  VSAN_CHECK_EQ(bias.value().dim(0), n);
  return Variable::MakeNode(
      AddBiasLastDim(x.value(), bias.value()), {x, bias},
      [n](Node* self) {
        AccumulateGrad(self->parents[0].get(), self->grad);
        Node* bias_node = self->parents[1].get();
        if (bias_node->requires_grad) {
          Tensor gb({n});
          const float* g = self->grad.data();
          const int64_t rows = self->grad.numel() / n;
          for (int64_t r = 0; r < rows; ++r) {
            const float* row = g + r * n;
            for (int64_t j = 0; j < n; ++j) gb[j] += row[j];
          }
          AccumulateGrad(bias_node, std::move(gb));
        }
      },
      "add_bias");
}

Variable AddBroadcastMatrix(const Variable& x, const Tensor& m) {
  VSAN_CHECK_EQ(x.value().ndim(), 3);
  VSAN_CHECK_EQ(m.ndim(), 2);
  VSAN_CHECK_EQ(x.value().dim(1), m.dim(0));
  VSAN_CHECK_EQ(x.value().dim(2), m.dim(1));
  Tensor out = x.value();
  const int64_t stride = m.numel();
  for (int64_t b = 0; b < out.dim(0); ++b) {
    float* dst = out.data() + b * stride;
    const float* src = m.data();
    for (int64_t i = 0; i < stride; ++i) dst[i] += src[i];
  }
  return Variable::MakeNode(
      std::move(out), {x},
      [](Node* self) {
        AccumulateGrad(self->parents[0].get(), self->grad);
      },
      "add_broadcast_matrix");
}

Variable AddBroadcastMatrixVar(const Variable& x, const Variable& m) {
  VSAN_CHECK_EQ(x.value().ndim(), 3);
  VSAN_CHECK_EQ(m.value().ndim(), 2);
  VSAN_CHECK_EQ(x.value().dim(1), m.value().dim(0));
  VSAN_CHECK_EQ(x.value().dim(2), m.value().dim(1));
  Tensor out = x.value();
  const int64_t stride = m.value().numel();
  for (int64_t b = 0; b < out.dim(0); ++b) {
    float* dst = out.data() + b * stride;
    const float* src = m.value().data();
    for (int64_t i = 0; i < stride; ++i) dst[i] += src[i];
  }
  const std::vector<int64_t> m_shape = m.value().shape();
  return Variable::MakeNode(
      std::move(out), {x, m},
      [m_shape, stride](Node* self) {
        AccumulateGrad(self->parents[0].get(), self->grad);
        Node* m_node = self->parents[1].get();
        if (m_node->requires_grad) {
          Tensor gm(m_shape);
          const float* g = self->grad.data();
          const int64_t batch = self->grad.numel() / stride;
          for (int64_t b = 0; b < batch; ++b) {
            const float* src = g + b * stride;
            for (int64_t i = 0; i < stride; ++i) gm[i] += src[i];
          }
          AccumulateGrad(m_node, std::move(gm));
        }
      },
      "add_broadcast_matrix_var");
}

Variable Reshape(const Variable& x, std::vector<int64_t> shape) {
  std::vector<int64_t> old_shape = x.value().shape();
  return Variable::MakeNode(
      x.value().Reshaped(std::move(shape)), {x},
      [old_shape](Node* self) {
        AccumulateGrad(self->parents[0].get(),
                       self->grad.Reshaped(old_shape));
      },
      "reshape");
}

namespace {

// Decomposes a shape around `axis` into (outer, axis_len, inner) so that the
// flat layout is outer blocks of axis_len*inner contiguous elements.
struct AxisDims {
  int64_t outer = 1;
  int64_t axis = 1;
  int64_t inner = 1;
};

AxisDims SplitAxis(const std::vector<int64_t>& shape, int axis) {
  VSAN_CHECK_GE(axis, 0);
  VSAN_CHECK_LT(axis, static_cast<int>(shape.size()));
  AxisDims d;
  for (int i = 0; i < axis; ++i) d.outer *= shape[i];
  d.axis = shape[axis];
  for (size_t i = axis + 1; i < shape.size(); ++i) d.inner *= shape[i];
  return d;
}

}  // namespace

Variable Concat(const std::vector<Variable>& xs, int axis) {
  VSAN_CHECK(!xs.empty());
  const std::vector<int64_t>& base = xs[0].value().shape();
  std::vector<int64_t> out_shape = base;
  int64_t total_axis = 0;
  for (const Variable& x : xs) {
    VSAN_CHECK_EQ(x.value().ndim(), static_cast<int>(base.size()));
    for (int i = 0; i < x.value().ndim(); ++i) {
      if (i != axis) VSAN_CHECK_EQ(x.value().dim(i), base[i]);
    }
    total_axis += x.value().dim(axis);
  }
  out_shape[axis] = total_axis;
  // Fully covered by the memcpys below.
  Tensor out = Tensor::Uninitialized(out_shape);
  const AxisDims od = SplitAxis(out_shape, axis);

  int64_t offset = 0;  // running position along the concat axis
  std::vector<int64_t> offsets;
  for (const Variable& x : xs) {
    offsets.push_back(offset);
    const AxisDims xd = SplitAxis(x.value().shape(), axis);
    for (int64_t o = 0; o < xd.outer; ++o) {
      const float* src = x.value().data() + o * xd.axis * xd.inner;
      float* dst =
          out.data() + (o * od.axis + offset) * od.inner;
      std::memcpy(dst, src, sizeof(float) * xd.axis * xd.inner);
    }
    offset += x.value().dim(axis);
  }

  std::vector<std::vector<int64_t>> in_shapes;
  for (const Variable& x : xs) in_shapes.push_back(x.value().shape());
  return Variable::MakeNode(
      std::move(out), xs,
      [axis, od, offsets, in_shapes](Node* self) {
        for (size_t p = 0; p < self->parents.size(); ++p) {
          Node* parent = self->parents[p].get();
          if (!parent->requires_grad) continue;
          const AxisDims xd = SplitAxis(in_shapes[p], axis);
          Tensor gx = Tensor::Uninitialized(in_shapes[p]);
          for (int64_t o = 0; o < xd.outer; ++o) {
            const float* src =
                self->grad.data() + (o * od.axis + offsets[p]) * od.inner;
            float* dst = gx.data() + o * xd.axis * xd.inner;
            std::memcpy(dst, src, sizeof(float) * xd.axis * xd.inner);
          }
          AccumulateGrad(parent, std::move(gx));
        }
      },
      "concat");
}

Variable Slice(const Variable& x, int axis, int64_t start, int64_t len) {
  const std::vector<int64_t>& shape = x.value().shape();
  VSAN_CHECK_GE(start, 0);
  VSAN_CHECK_GT(len, 0);
  VSAN_CHECK_LE(start + len, shape[axis]);
  std::vector<int64_t> out_shape = shape;
  out_shape[axis] = len;
  const AxisDims xd = SplitAxis(shape, axis);
  Tensor out = Tensor::Uninitialized(out_shape);
  for (int64_t o = 0; o < xd.outer; ++o) {
    const float* src = x.value().data() + (o * xd.axis + start) * xd.inner;
    float* dst = out.data() + o * len * xd.inner;
    std::memcpy(dst, src, sizeof(float) * len * xd.inner);
  }
  std::vector<int64_t> in_shape = shape;
  return Variable::MakeNode(
      std::move(out), {x},
      [axis, start, len, xd, in_shape](Node* self) {
        Node* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        // Zero-initialized: only the sliced band receives gradient.
        Tensor gx(in_shape);
        for (int64_t o = 0; o < xd.outer; ++o) {
          const float* src = self->grad.data() + o * len * xd.inner;
          float* dst = gx.data() + (o * xd.axis + start) * xd.inner;
          std::memcpy(dst, src, sizeof(float) * len * xd.inner);
        }
        AccumulateGrad(parent, std::move(gx));
      },
      "slice");
}

Variable TransposeLast2(const Variable& x) {
  return Variable::MakeNode(
      vsan::TransposeLast2(x.value()), {x},
      [](Node* self) {
        AccumulateGrad(self->parents[0].get(),
                       vsan::TransposeLast2(self->grad));
      },
      "transpose_last2");
}

Variable GatherRows(const Variable& x, const std::vector<int64_t>& indices) {
  VSAN_CHECK_EQ(x.value().ndim(), 2);
  const int64_t rows = x.value().dim(0);
  const int64_t cols = x.value().dim(1);
  const int64_t k = static_cast<int64_t>(indices.size());
  VSAN_CHECK_GT(k, 0);
  Tensor out = Tensor::Uninitialized({k, cols});
  for (int64_t i = 0; i < k; ++i) {
    VSAN_CHECK_GE(indices[i], 0);
    VSAN_CHECK_LT(indices[i], rows);
    std::memcpy(out.data() + i * cols, x.value().data() + indices[i] * cols,
                sizeof(float) * cols);
  }
  const std::vector<int64_t> in_shape = x.value().shape();
  return Variable::MakeNode(
      std::move(out), {x},
      [indices, in_shape, cols](Node* self) {
        Node* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        // Zero-initialized: the scatter-add touches gathered rows only.
        Tensor gx(in_shape);
        for (size_t i = 0; i < indices.size(); ++i) {
          const float* src =
              self->grad.data() + static_cast<int64_t>(i) * cols;
          float* dst = gx.data() + indices[i] * cols;
          for (int64_t j = 0; j < cols; ++j) dst[j] += src[j];
        }
        AccumulateGrad(parent, std::move(gx));
      },
      "gather_rows");
}

Variable Sum(const Variable& x) {
  std::vector<int64_t> shape = x.value().shape();
  return Variable::MakeNode(
      Tensor::Scalar(x.value().Sum()), {x},
      [shape](Node* self) {
        AccumulateGrad(self->parents[0].get(),
                       Tensor::Full(shape, self->grad[0]));
      },
      "sum");
}

Variable Mean(const Variable& x) {
  std::vector<int64_t> shape = x.value().shape();
  const float inv = 1.0f / static_cast<float>(x.value().numel());
  return Variable::MakeNode(
      Tensor::Scalar(x.value().Mean()), {x},
      [shape, inv](Node* self) {
        AccumulateGrad(self->parents[0].get(),
                       Tensor::Full(shape, self->grad[0] * inv));
      },
      "mean");
}

Variable MaxOverAxis1(const Variable& x) {
  VSAN_CHECK_EQ(x.value().ndim(), 3);
  const int64_t batch = x.value().dim(0);
  const int64_t t = x.value().dim(1);
  const int64_t f = x.value().dim(2);
  Tensor out = Tensor::Uninitialized({batch, f});
  // argmax per (batch, feature), saved for the backward scatter.
  std::vector<int64_t> argmax(batch * f, 0);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t j = 0; j < f; ++j) {
      float best = x.value().at(b, 0, j);
      int64_t best_i = 0;
      for (int64_t i = 1; i < t; ++i) {
        const float v = x.value().at(b, i, j);
        if (v > best) {
          best = v;
          best_i = i;
        }
      }
      out.at(b, j) = best;
      argmax[b * f + j] = best_i;
    }
  }
  std::vector<int64_t> in_shape = x.value().shape();
  return Variable::MakeNode(
      std::move(out), {x},
      [argmax, in_shape, batch, f](Node* self) {
        Node* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        // Zero-initialized: gradient scatters to argmax positions only.
        Tensor gx(in_shape);
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t j = 0; j < f; ++j) {
            gx.at(b, argmax[b * f + j], j) = self->grad.at(b, j);
          }
        }
        AccumulateGrad(parent, std::move(gx));
      },
      "max_over_axis1");
}

Variable MeanOverAxis1(const Variable& x) {
  VSAN_CHECK_EQ(x.value().ndim(), 3);
  const int64_t batch = x.value().dim(0);
  const int64_t t = x.value().dim(1);
  const int64_t f = x.value().dim(2);
  Tensor out({batch, f});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < t; ++i) {
      for (int64_t j = 0; j < f; ++j) out.at(b, j) += x.value().at(b, i, j);
    }
  }
  const float inv = 1.0f / static_cast<float>(t);
  for (int64_t i = 0; i < out.numel(); ++i) out[i] *= inv;
  std::vector<int64_t> in_shape = x.value().shape();
  return Variable::MakeNode(
      std::move(out), {x},
      [in_shape, batch, t, f, inv](Node* self) {
        Node* parent = self->parents[0].get();
        if (!parent->requires_grad) return;
        Tensor gx = Tensor::Uninitialized(in_shape);
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t i = 0; i < t; ++i) {
            for (int64_t j = 0; j < f; ++j) {
              gx.at(b, i, j) = self->grad.at(b, j) * inv;
            }
          }
        }
        AccumulateGrad(parent, std::move(gx));
      },
      "mean_over_axis1");
}

}  // namespace ops
}  // namespace vsan
