#ifndef EALGAP_NN_SERIALIZE_H_
#define EALGAP_NN_SERIALIZE_H_

#include <map>
#include <string>

#include "common/record_io.h"
#include "common/status.h"
#include "nn/module.h"

namespace ealgap {
namespace nn {

/// Appends `tensors` to the open section of `writer` as a u64 count
/// followed by (string name, shape, raw f32 values) records in map order —
/// the payload of every parameter-like checkpoint section (model weights,
/// optimizer moments, best-validation snapshots).
void PutTensors(RecordWriter& writer,
                const std::map<std::string, Tensor>& tensors);

/// The named parameters of `module` (shared handles, no copies), ready for
/// PutTensors.
std::map<std::string, Tensor> ParameterMap(const Module& module);

/// Reads a PutTensors payload into `out`. Shapes and counts are bounded by
/// the bytes in the section before any tensor is allocated; a zero or
/// negative dimension, a duplicate name, or a short payload is a
/// ParseError naming the tensor.
Status ReadTensors(RecordSection& section,
                   std::map<std::string, Tensor>* out);

/// Copies `loaded` entries into the matching parameters of `module`.
/// Every module parameter must be present with an identical shape.
Status ApplyParameters(Module& module,
                       const std::map<std::string, Tensor>& loaded,
                       const std::string& context);

}  // namespace nn
}  // namespace ealgap

#endif  // EALGAP_NN_SERIALIZE_H_
