#include "optimizer/mixed_kernel_bo.h"

namespace dbtune {

MixedKernelBoOptimizer::MixedKernelBoOptimizer(const ConfigurationSpace& space,
                                               OptimizerOptions options)
    : GpBoOptimizer(space, options, [mask = space.CategoricalMask()] {
        return std::make_unique<MixedKernel>(mask);
      }) {}

}  // namespace dbtune
