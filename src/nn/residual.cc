#include "src/nn/residual.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/tensor/ops.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"

namespace dx {

ResidualBlock::ResidualBlock(int in_channels, int out_channels, int stride)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      stride_(stride),
      conv1_(in_channels, out_channels, 3, 3, stride, 1, Activation::kRelu),
      conv2_(out_channels, out_channels, 3, 3, 1, 1, Activation::kNone) {
  if (stride != 1 || in_channels != out_channels) {
    proj_ = std::make_unique<Conv2D>(in_channels, out_channels, 1, 1, stride, 0,
                                     Activation::kNone);
  }
}

void ResidualBlock::InitParams(Rng& rng, WeightInit init) {
  conv1_.InitParams(rng, init);
  conv2_.InitParams(rng, init);
  if (proj_ != nullptr) {
    proj_->InitParams(rng, init);
  }
}

std::string ResidualBlock::Describe() const {
  std::ostringstream out;
  out << "residual " << in_channels_ << "->" << out_channels_ << " s" << stride_
      << (proj_ != nullptr ? " (proj)" : " (identity)");
  return out.str();
}

Shape ResidualBlock::OutputShape(const Shape& input_shape) const {
  const Shape main_shape = conv2_.OutputShape(conv1_.OutputShape(input_shape));
  if (proj_ == nullptr && main_shape != input_shape) {
    throw std::invalid_argument("ResidualBlock: identity skip requires matching shapes");
  }
  return main_shape;
}

namespace {

// Both backwards read conv1's post-ReLU activation from `aux`; it has the
// block output's shape (conv2 is 3x3 stride-1 pad-1 with out_channels
// filters), so its element count must equal the output's.
void CheckAux(const Tensor& aux, const Tensor& output, const char* who) {
  if (aux.numel() != output.numel()) {
    throw std::invalid_argument(std::string(who) + ": aux must hold conv1's activation (" +
                                std::to_string(output.numel()) + " floats), got " +
                                std::to_string(aux.numel()));
  }
}

}  // namespace

Tensor ResidualBlock::Forward(const Tensor& input, bool /*training*/, Rng* /*rng*/,
                              Tensor* aux) const {
  Tensor y1 = conv1_.Forward(input, false, nullptr, nullptr);
  Tensor y2 = conv2_.Forward(y1, false, nullptr, nullptr);
  const Tensor skip =
      proj_ != nullptr ? proj_->Forward(input, false, nullptr, nullptr) : input;
  y2.AddInPlace(skip);
  ApplyActivation(Activation::kRelu, &y2);
  if (aux != nullptr) {
    *aux = std::move(y1);
  }
  return y2;
}

Tensor ResidualBlock::ForwardBatch(const Tensor& input, int batch, bool /*training*/,
                                   Rng* /*rng*/, Tensor* aux) const {
  Tensor y1 = conv1_.ForwardBatch(input, batch, false, nullptr, nullptr);
  Tensor y2 = conv2_.ForwardBatch(y1, batch, false, nullptr, nullptr);
  const Tensor skip =
      proj_ != nullptr ? proj_->ForwardBatch(input, batch, false, nullptr, nullptr) : input;
  y2.AddInPlace(skip);
  ApplyActivation(Activation::kRelu, &y2);
  if (aux != nullptr) {
    *aux = std::move(y1);
  }
  return y2;
}

void ResidualBlock::ForwardBatchInto(const Tensor& input, int batch, bool /*training*/,
                                     Rng* /*rng*/, Tensor* output, Tensor* aux,
                                     Workspace* ws) const {
  // y1 (conv1's activation) has exactly the block's output shape — see
  // CheckAux — and goes straight into the aux slab the backward reads.
  if (aux->shape() != output->shape()) {  // Steady state: shapes match, no-op.
    aux->ResizeInPlace(output->shape());
  }
  conv1_.ForwardBatchInto(input, batch, false, nullptr, aux, nullptr, ws);
  conv2_.ForwardBatchInto(*aux, batch, false, nullptr, output, nullptr, ws);
  if (proj_ != nullptr) {
    Tensor* skip = ws->Acquire(output->shape());
    proj_->ForwardBatchInto(input, batch, false, nullptr, skip, nullptr, ws);
    output->AddInPlace(*skip);
  } else {
    output->AddInPlace(input);
  }
  ApplyActivation(Activation::kRelu, output);
}

// conv2 and the projection have no activation, so their backwards read
// `output` for geometry only: the block output stands in for both (same
// shape), and conv1's activation comes from `aux`.
void ResidualBlock::BackwardBatchInto(const Tensor& input, const Tensor& output,
                                      const Tensor& grad_output, const Tensor& aux,
                                      int batch, Tensor* grad_input, Workspace* ws,
                                      std::vector<Tensor>* param_grads) const {
  CheckAux(aux, output, "ResidualBlock::BackwardBatchInto");
  if (param_grads != nullptr) {
    // Parameter gradients must accumulate in the per-sample order of the
    // inherited BackwardBatch (sample-major, not layer-major); the adapter
    // preserves that. The zero-allocation path below is input-grad only —
    // which is all the gradient-ascent hot loop asks for.
    Layer::BackwardBatchInto(input, output, grad_output, aux, batch, grad_input, ws,
                             param_grads);
    return;
  }
  // Through the output ReLU: relu'(out) in terms of the post-activation value.
  Tensor* g_sum = ws->Acquire(output.shape());
  std::copy(grad_output.data(), grad_output.data() + grad_output.numel(), g_sum->data());
  ApplyActivationGrad(Activation::kRelu, output, g_sum);

  // Main path.
  Tensor* g_y1 = ws->Acquire(output.shape());
  conv2_.BackwardBatchInto(aux, output, *g_sum, Tensor(), batch, g_y1, ws, nullptr);
  conv1_.BackwardBatchInto(input, aux, *g_y1, Tensor(), batch, grad_input, ws, nullptr);

  // Skip path (flat adds: grad_input may be per-sample-shaped).
  float* gi = grad_input->data();
  if (proj_ != nullptr) {
    Tensor* g_skip = ws->Acquire(input.shape());
    proj_->BackwardBatchInto(input, output, *g_sum, Tensor(), batch, g_skip, ws, nullptr);
    const float* gs = g_skip->data();
    for (int64_t i = 0; i < grad_input->numel(); ++i) {
      gi[i] += gs[i];
    }
  } else {
    const float* gs = g_sum->data();
    for (int64_t i = 0; i < grad_input->numel(); ++i) {
      gi[i] += gs[i];
    }
  }
}

Tensor ResidualBlock::Backward(const Tensor& input, const Tensor& output,
                               const Tensor& grad_output, const Tensor& aux,
                               std::vector<Tensor>* param_grads) const {
  CheckAux(aux, output, "ResidualBlock::Backward");
  // Through the output ReLU: relu'(out) in terms of the post-activation value.
  Tensor g_sum = grad_output;
  ApplyActivationGrad(Activation::kRelu, output, &g_sum);

  std::vector<Tensor>* g_conv1 = nullptr;
  std::vector<Tensor>* g_conv2 = nullptr;
  std::vector<Tensor>* g_proj = nullptr;
  std::vector<Tensor> slice1;
  std::vector<Tensor> slice2;
  std::vector<Tensor> slice3;
  CheckParamGrads(param_grads, "ResidualBlock::Backward");
  if (param_grads != nullptr) {
    slice1.push_back(std::move((*param_grads)[0]));
    slice1.push_back(std::move((*param_grads)[1]));
    slice2.push_back(std::move((*param_grads)[2]));
    slice2.push_back(std::move((*param_grads)[3]));
    g_conv1 = &slice1;
    g_conv2 = &slice2;
    if (proj_ != nullptr) {
      slice3.push_back(std::move((*param_grads)[4]));
      slice3.push_back(std::move((*param_grads)[5]));
      g_proj = &slice3;
    }
  }

  // Main path.
  const Tensor g_y1 = conv2_.Backward(aux, output, g_sum, Tensor(), g_conv2);
  Tensor g_in = conv1_.Backward(input, aux, g_y1, Tensor(), g_conv1);

  // Skip path.
  if (proj_ != nullptr) {
    g_in.AddInPlace(proj_->Backward(input, output, g_sum, Tensor(), g_proj));
  } else {
    g_in.AddInPlace(g_sum);
  }

  if (param_grads != nullptr) {
    (*param_grads)[0] = std::move(slice1[0]);
    (*param_grads)[1] = std::move(slice1[1]);
    (*param_grads)[2] = std::move(slice2[0]);
    (*param_grads)[3] = std::move(slice2[1]);
    if (proj_ != nullptr) {
      (*param_grads)[4] = std::move(slice3[0]);
      (*param_grads)[5] = std::move(slice3[1]);
    }
  }
  return g_in;
}

std::vector<Tensor*> ResidualBlock::MutableParams() {
  std::vector<Tensor*> params = conv1_.MutableParams();
  for (Tensor* p : conv2_.MutableParams()) {
    params.push_back(p);
  }
  if (proj_ != nullptr) {
    for (Tensor* p : proj_->MutableParams()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<const Tensor*> ResidualBlock::Params() const {
  std::vector<const Tensor*> params = conv1_.Params();
  for (const Tensor* p : conv2_.Params()) {
    params.push_back(p);
  }
  if (proj_ != nullptr) {
    for (const Tensor* p : proj_->Params()) {
      params.push_back(p);
    }
  }
  return params;
}

float ResidualBlock::NeuronValue(const Tensor& output, int index) const {
  return conv2_.NeuronValue(output, index);
}

void ResidualBlock::AddNeuronSeed(Tensor* seed, int index, float weight) const {
  conv2_.AddNeuronSeed(seed, index, weight);
}

void ResidualBlock::SerializeConfig(BinaryWriter& writer) const {
  writer.WriteI64(in_channels_);
  writer.WriteI64(out_channels_);
  writer.WriteI64(stride_);
}

}  // namespace dx
