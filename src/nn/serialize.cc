#include "nn/serialize.h"

namespace ealgap {
namespace nn {

void PutTensors(RecordWriter& writer,
                const std::map<std::string, Tensor>& tensors) {
  writer.PutU64(tensors.size());
  for (const auto& [name, t] : tensors) {
    writer.PutString(name).PutShape(t.shape().data(), t.shape().size());
    writer.PutBytes(
        {reinterpret_cast<const char*>(t.data()),
         static_cast<size_t>(t.numel()) * sizeof(float)});
  }
}

std::map<std::string, Tensor> ParameterMap(const Module& module) {
  std::map<std::string, Tensor> out;
  for (const auto& [name, p] : module.NamedParameters()) {
    out.emplace(name, p.value());
  }
  return out;
}

Status ReadTensors(RecordSection& section,
                   std::map<std::string, Tensor>* out) {
  uint64_t count = 0;
  // Each record holds at least a name length and a rank (8 bytes).
  EALGAP_RETURN_IF_ERROR(section.ReadCount("tensors", 8, &count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    EALGAP_RETURN_IF_ERROR(section.ReadString("tensor name", &name));
    std::vector<int64_t> dims;
    int64_t numel = 0;
    EALGAP_RETURN_IF_ERROR(section.ReadShape(name, &dims, &numel));
    Tensor t(Shape(dims.begin(), dims.end()));
    EALGAP_RETURN_IF_ERROR(
        section.ReadF32Values(name, t.data(), static_cast<size_t>(numel)));
    if (!out->emplace(std::move(name), std::move(t)).second) {
      return section.Error("tensor name", "duplicate tensor");
    }
  }
  return Status::OK();
}

Status ApplyParameters(Module& module,
                       const std::map<std::string, Tensor>& loaded,
                       const std::string& context) {
  for (auto& [name, p] : module.NamedParameters()) {
    auto it = loaded.find(name);
    if (it == loaded.end()) {
      return Status::NotFound("checkpoint missing parameter " + name + " in " +
                              context);
    }
    if (!(it->second.shape() == p.value().shape())) {
      return Status::InvalidArgument(
          "shape mismatch for " + name + ": checkpoint " +
          ShapeToString(it->second.shape()) + " vs model " +
          ShapeToString(p.value().shape()));
    }
    const_cast<Tensor&>(p.value()).CopyFrom(it->second);
  }
  return Status::OK();
}

}  // namespace nn
}  // namespace ealgap
