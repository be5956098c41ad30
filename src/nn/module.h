#ifndef EALGAP_NN_MODULE_H_
#define EALGAP_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/autograd.h"

namespace ealgap {
namespace nn {

/// Base class for trainable components.
///
/// Concrete modules register their parameters (leaf Vars with
/// requires_grad) and sub-modules in their constructors; Parameters() then
/// yields the full flattened set for an optimizer, and NamedParameters()
/// hierarchical "child.name" keys for serialization.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children.
  std::vector<Var> Parameters() const;

  /// Parameters with hierarchical names ("gru.w_z", ...).
  std::vector<std::pair<std::string, Var>> NamedParameters() const;

  /// Zeroes the gradient of every parameter.
  void ZeroGrad();

  /// Total number of scalar parameters.
  int64_t NumParameters() const;

 protected:
  /// Registers a trainable tensor; returns the parameter Var.
  Var RegisterParameter(std::string name, Tensor init);

  /// Registers a child module. `child` must outlive this module (it is
  /// normally a data member of the subclass).
  void RegisterModule(std::string name, Module* child);

 private:
  std::vector<std::pair<std::string, Var>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace nn
}  // namespace ealgap

#endif  // EALGAP_NN_MODULE_H_
