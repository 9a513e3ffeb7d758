#ifndef DBTUNE_SURROGATE_KERNELS_H_
#define DBTUNE_SURROGATE_KERNELS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace dbtune {

/// Covariance function over unit-encoded configurations. Distances are
/// dimension-normalized (mean per-dimension contribution) so the same
/// lengthscale grid works across spaces of different sizes.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// k(a, b) at the installed lengthscale; inputs must have equal size.
  double Compute(const std::vector<double>& a,
                 const std::vector<double>& b) const {
    return Compute(a, b, lengthscale_);
  }

  /// k(a, b) at an explicit `lengthscale`. Reads no mutable state, so a
  /// hyper-parameter sweep can evaluate grid points concurrently without
  /// installing them. Every kernel here is symmetric bit for bit (a
  /// dimension's difference enters only squared or through its absolute
  /// value), so callers may order a pair either way.
  virtual double Compute(const std::vector<double>& a,
                         const std::vector<double>& b,
                         double lengthscale) const = 0;

  /// out[r] = Compute(a, bs[r], lengthscale) for r < m, bit for bit: one
  /// row of a Gram matrix or a K* block in one call. The kernels below
  /// override it to run several pairs' per-dimension sums side by side,
  /// one accumulator per pair, without reordering any sum; this default
  /// loops over Compute.
  virtual void ComputeBlock(const std::vector<double>& a,
                            const std::vector<double>* bs, size_t m,
                            double lengthscale, double* out) const;

  /// Shared lengthscale hyper-parameter (tuned by the GP via grid search;
  /// only the winning grid point is installed).
  void set_lengthscale(double lengthscale) { lengthscale_ = lengthscale; }
  double lengthscale() const { return lengthscale_; }

  virtual std::string name() const = 0;

 protected:
  double lengthscale_ = 0.5;
};

/// Squared-exponential kernel (vanilla BO / OtterTune). Assumes a natural
/// ordering of values in every dimension — including categorical ones,
/// which is exactly the weakness the heterogeneity experiment probes.
class RbfKernel final : public Kernel {
 public:
  using Kernel::Compute;
  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const override;
  void ComputeBlock(const std::vector<double>& a,
                    const std::vector<double>* bs, size_t m,
                    double lengthscale, double* out) const override;
  std::string name() const override { return "RBF"; }
};

/// Matérn-5/2 kernel: the standard choice for continuous hyper-parameter
/// surfaces (less smooth than RBF).
class Matern52Kernel final : public Kernel {
 public:
  using Kernel::Compute;
  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const override;
  void ComputeBlock(const std::vector<double>& a,
                    const std::vector<double>* bs, size_t m,
                    double lengthscale, double* out) const override;
  std::string name() const override { return "Matern52"; }
};

/// Hamming kernel for categorical dimensions: exp(-h/ls) where h is the
/// fraction of differing entries. Treats categories as unordered symbols.
class HammingKernel final : public Kernel {
 public:
  using Kernel::Compute;
  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const override;
  void ComputeBlock(const std::vector<double>& a,
                    const std::vector<double>* bs, size_t m,
                    double lengthscale, double* out) const override;
  std::string name() const override { return "Hamming"; }
};

/// The mixed kernel of mixed-kernel BO: Matérn-5/2 over the continuous
/// dimensions times Hamming over the categorical dimensions.
class MixedKernel final : public Kernel {
 public:
  /// `is_categorical[d]` marks dimension d as categorical.
  explicit MixedKernel(std::vector<bool> is_categorical);

  using Kernel::Compute;
  double Compute(const std::vector<double>& a, const std::vector<double>& b,
                 double lengthscale) const override;
  void ComputeBlock(const std::vector<double>& a,
                    const std::vector<double>* bs, size_t m,
                    double lengthscale, double* out) const override;
  std::string name() const override { return "Mixed"; }

 private:
  std::vector<bool> is_categorical_;
  size_t num_categorical_;
};

}  // namespace dbtune

#endif  // DBTUNE_SURROGATE_KERNELS_H_
