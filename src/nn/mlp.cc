#include "nn/mlp.h"

#include <cmath>

#include "util/logging.h"

namespace dbtune {

namespace {

double Activate(Activation a, double x) {
  switch (a) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return x > 0.0 ? x : 0.0;
    case Activation::kTanh:
      return std::tanh(x);
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

double ActivateGrad(Activation a, double pre, double post) {
  switch (a) {
    case Activation::kNone:
      return 1.0;
    case Activation::kRelu:
      return pre > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh:
      return 1.0 - post * post;
    case Activation::kSigmoid:
      return post * (1.0 - post);
  }
  return 1.0;
}

// pre = W x + b for a row-major out×in W. Four outputs run side by side,
// one accumulator each: every output still sums its bias first, then
// i ascending, so the bits match a one-output loop while the four
// independent chains share each x[i] load.
void Affine(const double* w, const double* b, size_t in, size_t out,
            const double* x, double* pre) {
  size_t o = 0;
  for (; o + 4 <= out; o += 4) {
    const double* r0 = w + o * in;
    const double* r1 = r0 + in;
    const double* r2 = r1 + in;
    const double* r3 = r2 + in;
    double a0 = b[o], a1 = b[o + 1], a2 = b[o + 2], a3 = b[o + 3];
    for (size_t i = 0; i < in; ++i) {
      const double xi = x[i];
      a0 += r0[i] * xi;
      a1 += r1[i] * xi;
      a2 += r2[i] * xi;
      a3 += r3[i] * xi;
    }
    pre[o] = a0;
    pre[o + 1] = a1;
    pre[o + 2] = a2;
    pre[o + 3] = a3;
  }
  for (; o < out; ++o) {
    double acc = b[o];
    const double* row = w + o * in;
    for (size_t i = 0; i < in; ++i) acc += row[i] * x[i];
    pre[o] = acc;
  }
}

}  // namespace

Mlp::Mlp(std::vector<size_t> layer_sizes, std::vector<Activation> activations,
         uint64_t seed)
    : layer_sizes_(std::move(layer_sizes)),
      activations_(std::move(activations)) {
  DBTUNE_CHECK(layer_sizes_.size() >= 2);
  DBTUNE_CHECK(activations_.size() == layer_sizes_.size() - 1);

  size_t total = 0;
  offsets_.resize(layer_sizes_.size() - 1);
  for (size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    offsets_[l] = total;
    total += layer_sizes_[l] * layer_sizes_[l + 1] + layer_sizes_[l + 1];
  }
  params_.resize(total);

  Rng rng(seed);
  for (size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    const size_t fan_in = layer_sizes_[l];
    const double bound = std::sqrt(2.0 / static_cast<double>(fan_in));
    const size_t w0 = WeightOffset(l);
    const size_t count = layer_sizes_[l] * layer_sizes_[l + 1];
    for (size_t i = 0; i < count; ++i) {
      params_[w0 + i] = rng.Uniform(-bound, bound);
    }
    // Biases start at zero.
  }
}

std::vector<double> Mlp::Forward(const std::vector<double>& input) const {
  return Forward(input, nullptr);
}

std::vector<double> Mlp::Forward(const std::vector<double>& input,
                                 Tape* tape) const {
  DBTUNE_CHECK(input.size() == layer_sizes_.front());
  std::vector<double> current = input;
  if (tape != nullptr) {
    tape->post.clear();
    tape->pre.clear();
    tape->post.push_back(current);
  }
  for (size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    const size_t in = layer_sizes_[l];
    const size_t out = layer_sizes_[l + 1];
    const double* w = params_.data() + WeightOffset(l);
    const double* b = params_.data() + BiasOffset(l);
    std::vector<double> pre(out);
    Affine(w, b, in, out, current.data(), pre.data());
    std::vector<double> post(out);
    for (size_t o = 0; o < out; ++o) {
      post[o] = Activate(activations_[l], pre[o]);
    }
    if (tape != nullptr) {
      tape->pre.push_back(pre);
      tape->post.push_back(post);
    }
    current = std::move(post);
  }
  return current;
}

std::vector<double> Mlp::Backward(const Tape& tape,
                                  const std::vector<double>& grad_output,
                                  std::vector<double>* grad) const {
  DBTUNE_CHECK(grad != nullptr && grad->size() == params_.size());
  DBTUNE_CHECK(tape.post.size() == layer_sizes_.size());
  std::vector<double> delta = grad_output;
  for (size_t li = layer_sizes_.size() - 1; li > 0; --li) {
    const size_t l = li - 1;  // layer index
    const size_t in = layer_sizes_[l];
    const size_t out = layer_sizes_[l + 1];
    DBTUNE_CHECK(delta.size() == out);
    const std::vector<double>& pre = tape.pre[l];
    const std::vector<double>& post = tape.post[l + 1];
    const std::vector<double>& below = tape.post[l];

    // Through the activation.
    for (size_t o = 0; o < out; ++o) {
      delta[o] *= ActivateGrad(activations_[l], pre[o], post[o]);
    }

    double* gw = grad->data() + WeightOffset(l);
    double* gb = grad->data() + BiasOffset(l);
    const double* w = params_.data() + WeightOffset(l);
    std::vector<double> next_delta(in, 0.0);
    for (size_t o = 0; o < out; ++o) {
      gb[o] += delta[o];
      double* grow = gw + o * in;
      const double* wrow = w + o * in;
      for (size_t i = 0; i < in; ++i) {
        grow[i] += delta[o] * below[i];
        next_delta[i] += delta[o] * wrow[i];
      }
    }
    delta = std::move(next_delta);
  }
  return delta;
}

void Mlp::SoftUpdateFrom(const Mlp& source, double tau) {
  DBTUNE_CHECK(source.params_.size() == params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i] = tau * source.params_[i] + (1.0 - tau) * params_[i];
  }
}

}  // namespace dbtune
