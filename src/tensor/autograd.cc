#include "tensor/autograd.h"

#include <algorithm>
#include <unordered_set>

#include "common/arena.h"
#include "common/logging.h"

namespace ealgap {

namespace autograd {

void Node::AccumulateGrad(const Tensor& g) {
  if (!requires_grad) return;
  if (g.SameShape(value)) {
    // Hot path: no broadcast to undo. Reuse the existing gradient buffer;
    // the first accumulation copies instead of zero-fill + add.
    if (!grad.defined()) {
      grad = Tensor(value.shape());
      grad.CopyFrom(g);
    } else {
      ops::AddInPlace(grad, g);
    }
    return;
  }
  // ReduceToShape goes through SumAxis here (shapes differ), so `reduced`
  // is freshly allocated and safe to adopt as the gradient buffer.
  Tensor reduced = ops::ReduceToShape(g, value.shape());
  if (!grad.defined()) {
    grad = std::move(reduced);
  } else {
    ops::AddInPlace(grad, reduced);
  }
}

}  // namespace autograd

namespace {

// Thread-local so independent evaluation threads (see
// NeuralForecaster::EvaluateLoss) can each hold a NoGradGuard without
// racing on a shared flag.
thread_local bool g_grad_enabled = true;

using NodePtr = std::shared_ptr<autograd::Node>;

/// Minimal STL allocator over the current arena. allocate_shared places the
/// control block and the Node in one arena bump; deallocate is a no-op
/// because ArenaScope rewind reclaims the whole region. Nodes allocated this
/// way must not outlive the enclosing arena scope (the serve-path lifetime
/// rule; see common/arena.h).
template <class T>
struct ArenaAlloc {
  using value_type = T;
  Arena* arena;
  explicit ArenaAlloc(Arena* a) : arena(a) {}
  template <class U>
  ArenaAlloc(const ArenaAlloc<U>& o) : arena(o.arena) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(arena->Allocate(n * sizeof(T)));
  }
  void deallocate(T*, std::size_t) {}
  template <class U>
  bool operator==(const ArenaAlloc<U>& o) const {
    return arena == o.arena;
  }
  template <class U>
  bool operator!=(const ArenaAlloc<U>& o) const {
    return arena != o.arena;
  }
};

NodePtr NewNode() {
  if (Arena* arena = CurrentArena()) {
    return std::allocate_shared<autograd::Node>(
        ArenaAlloc<autograd::Node>(arena));
  }
  return std::make_shared<autograd::Node>();
}

NodePtr MakeLeafNode(Tensor value, bool requires_grad) {
  NodePtr n = NewNode();
  n->value = std::move(value);
  n->requires_grad = requires_grad;
  return n;
}

/// Creates an op node. `make_back` is a factory returning the backward
/// closure; it is invoked — and the std::function materialized — only when
/// grad recording is on AND some input requires gradients. The no-grad
/// serve path therefore never constructs a std::function or parents vector,
/// and with an arena installed never touches the heap. Inputs arrive as a
/// pointer list so the call sites' brace lists live on the stack.
template <class MakeBack>
Var MakeOp(Tensor value, std::initializer_list<const Var*> inputs,
           MakeBack&& make_back) {
  bool record = GradEnabled();
  if (record) {
    record = false;
    for (const Var* v : inputs) {
      if (v->requires_grad()) {
        record = true;
        break;
      }
    }
  }
  if (!record) return Var::Leaf(std::move(value), /*requires_grad=*/false);
  NodePtr n = NewNode();
  n->value = std::move(value);
  n->requires_grad = true;
  n->parents.reserve(inputs.size());
  for (const Var* v : inputs) n->parents.push_back(v->node());
  n->backfn = make_back();
  return Var(std::move(n));
}

/// Variadic-input variant for Concat.
template <class MakeBack>
Var MakeOpN(Tensor value, const std::vector<Var>& inputs,
            MakeBack&& make_back) {
  bool record = GradEnabled();
  if (record) {
    record = false;
    for (const Var& v : inputs) {
      if (v.requires_grad()) {
        record = true;
        break;
      }
    }
  }
  if (!record) return Var::Leaf(std::move(value), /*requires_grad=*/false);
  NodePtr n = NewNode();
  n->value = std::move(value);
  n->requires_grad = true;
  n->parents.reserve(inputs.size());
  for (const Var& v : inputs) n->parents.push_back(v.node());
  n->backfn = make_back();
  return Var(std::move(n));
}

}  // namespace

bool GradEnabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

Var Var::Leaf(Tensor value, bool requires_grad) {
  return Var(MakeLeafNode(std::move(value), requires_grad));
}

const Tensor& Var::value() const {
  EALGAP_CHECK(defined());
  return node_->value;
}

bool Var::requires_grad() const { return defined() && node_->requires_grad; }

Tensor& Var::grad() {
  EALGAP_CHECK(defined());
  if (!node_->grad.defined()) node_->grad = Tensor::Zeros(node_->value.shape());
  return node_->grad;
}

void Var::ZeroGrad() {
  if (defined() && node_->grad.defined()) node_->grad.Fill(0.f);
}

Var Var::Detach() const {
  EALGAP_CHECK(defined());
  return Leaf(node_->value, /*requires_grad=*/false);
}

void Backward(const Var& root) {
  EALGAP_CHECK(root.defined());
  EALGAP_CHECK(root.requires_grad()) << "Backward on a graph with no parameters";
  // Iterative post-order DFS to get a topological order (root last).
  std::vector<autograd::Node*> topo;
  std::unordered_set<autograd::Node*> visited;
  struct Frame {
    autograd::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.node().get(), 0});
  visited.insert(root.node().get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      autograd::Node* p = f.node->parents[f.next_parent++].get();
      if (p != nullptr && p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }
  // Seed and propagate in reverse topological order.
  autograd::Node* root_node = root.node().get();
  if (!root_node->grad.defined()) {
    root_node->grad = Tensor::Zeros(root_node->value.shape());
  }
  root_node->grad.Fill(1.f);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    autograd::Node* n = *it;
    if (n->backfn && n->grad.defined()) n->backfn(n->grad);
  }
}

// ---------------------------------------------------------------------------
// Op definitions. Each backward closure captures the input nodes it needs by
// shared_ptr so the graph stays alive until backward completes. The closures
// are built inside a factory lambda so nothing is materialized on the
// no-grad path.
// ---------------------------------------------------------------------------

Var Add(const Var& a, const Var& b) {
  Tensor out = ops::Add(a.value(), b.value());
  return MakeOp(std::move(out), {&a, &b}, [&] {
    auto na = a.node(), nb = b.node();
    return [na, nb](const Tensor& g) {
      na->AccumulateGrad(g);
      nb->AccumulateGrad(g);
    };
  });
}

Var Sub(const Var& a, const Var& b) {
  Tensor out = ops::Sub(a.value(), b.value());
  return MakeOp(std::move(out), {&a, &b}, [&] {
    auto na = a.node(), nb = b.node();
    return [na, nb](const Tensor& g) {
      na->AccumulateGrad(g);
      nb->AccumulateGrad(ops::Neg(g));
    };
  });
}

Var Mul(const Var& a, const Var& b) {
  Tensor out = ops::Mul(a.value(), b.value());
  return MakeOp(std::move(out), {&a, &b}, [&] {
    auto na = a.node(), nb = b.node();
    return [na, nb](const Tensor& g) {
      na->AccumulateGrad(ops::Mul(g, nb->value));
      nb->AccumulateGrad(ops::Mul(g, na->value));
    };
  });
}

Var Div(const Var& a, const Var& b) {
  Tensor out = ops::Div(a.value(), b.value());
  return MakeOp(std::move(out), {&a, &b}, [&] {
    auto na = a.node(), nb = b.node();
    return [na, nb](const Tensor& g) {
      na->AccumulateGrad(ops::Div(g, nb->value));
      // d/db (a/b) = -a / b^2
      Tensor b2 = ops::Mul(nb->value, nb->value);
      nb->AccumulateGrad(ops::Neg(ops::Div(ops::Mul(g, na->value), b2)));
    };
  });
}

Var AddScalar(const Var& a, float s) {
  return MakeOp(ops::AddScalar(a.value(), s), {&a}, [&] {
    auto na = a.node();
    return [na](const Tensor& g) { na->AccumulateGrad(g); };
  });
}

Var MulScalar(const Var& a, float s) {
  return MakeOp(ops::MulScalar(a.value(), s), {&a}, [&] {
    auto na = a.node();
    return [na, s](const Tensor& g) {
      na->AccumulateGrad(ops::MulScalar(g, s));
    };
  });
}

Var PowScalar(const Var& a, float p) {
  return MakeOp(ops::PowScalar(a.value(), p), {&a}, [&] {
    auto na = a.node();
    return [na, p](const Tensor& g) {
      Tensor d = ops::MulScalar(ops::PowScalar(na->value, p - 1.f), p);
      na->AccumulateGrad(ops::Mul(g, d));
    };
  });
}

Var Neg(const Var& a) {
  return MakeOp(ops::Neg(a.value()), {&a}, [&] {
    auto na = a.node();
    return [na](const Tensor& g) { na->AccumulateGrad(ops::Neg(g)); };
  });
}

Var Exp(const Var& a) {
  Tensor out = ops::Exp(a.value());
  return MakeOp(out, {&a}, [&] {
    auto na = a.node();
    return [na, out](const Tensor& g) {
      na->AccumulateGrad(ops::Mul(g, out));
    };
  });
}

Var Log(const Var& a) {
  return MakeOp(ops::Log(a.value()), {&a}, [&] {
    auto na = a.node();
    return [na](const Tensor& g) {
      na->AccumulateGrad(ops::Div(g, na->value));
    };
  });
}

Var Sqrt(const Var& a) {
  Tensor out = ops::Sqrt(a.value());
  return MakeOp(out, {&a}, [&] {
    auto na = a.node();
    return [na, out](const Tensor& g) {
      na->AccumulateGrad(ops::Div(ops::MulScalar(g, 0.5f), out));
    };
  });
}

Var Tanh(const Var& a) {
  Tensor out = ops::Tanh(a.value());
  return MakeOp(out, {&a}, [&] {
    auto na = a.node();
    return [na, out](const Tensor& g) {
      // 1 - tanh^2
      Tensor d = ops::AddScalar(ops::Neg(ops::Mul(out, out)), 1.f);
      na->AccumulateGrad(ops::Mul(g, d));
    };
  });
}

Var Sigmoid(const Var& a) {
  Tensor out = ops::Sigmoid(a.value());
  return MakeOp(out, {&a}, [&] {
    auto na = a.node();
    return [na, out](const Tensor& g) {
      Tensor d = ops::Mul(out, ops::AddScalar(ops::Neg(out), 1.f));
      na->AccumulateGrad(ops::Mul(g, d));
    };
  });
}

Var Relu(const Var& a) {
  return MakeOp(ops::Relu(a.value()), {&a}, [&] {
    auto na = a.node();
    return [na](const Tensor& g) {
      Tensor mask = ops::Relu(ops::Sign(na->value));  // 1 where input > 0
      na->AccumulateGrad(ops::Mul(g, mask));
    };
  });
}

Var Abs(const Var& a) {
  return MakeOp(ops::Abs(a.value()), {&a}, [&] {
    auto na = a.node();
    return [na](const Tensor& g) {
      na->AccumulateGrad(ops::Mul(g, ops::Sign(na->value)));
    };
  });
}

Var MatMul(const Var& a, const Var& b) {
  Tensor out = ops::MatMul(a.value(), b.value());
  return MakeOp(std::move(out), {&a, &b}, [&] {
    auto na = a.node(), nb = b.node();
    return [na, nb](const Tensor& g) {
      na->AccumulateGrad(ops::MatMul(g, ops::TransposeLast2(nb->value)));
      nb->AccumulateGrad(ops::MatMul(ops::TransposeLast2(na->value), g));
    };
  });
}

Var BMatMul(const Var& a, const Var& b) {
  Tensor out = ops::BMatMul(a.value(), b.value());
  return MakeOp(std::move(out), {&a, &b}, [&] {
    auto na = a.node(), nb = b.node();
    return [na, nb](const Tensor& g) {
      na->AccumulateGrad(ops::BMatMul(g, ops::TransposeLast2(nb->value)));
      nb->AccumulateGrad(ops::BMatMul(ops::TransposeLast2(na->value), g));
    };
  });
}

Var TransposeLast2(const Var& a) {
  return MakeOp(ops::TransposeLast2(a.value()), {&a}, [&] {
    auto na = a.node();
    return [na](const Tensor& g) {
      na->AccumulateGrad(ops::TransposeLast2(g));
    };
  });
}

Var SumAll(const Var& a) {
  return MakeOp(ops::SumAll(a.value()), {&a}, [&] {
    auto na = a.node();
    return [na](const Tensor& g) {
      na->AccumulateGrad(Tensor::Full(na->value.shape(), g.data()[0]));
    };
  });
}

Var MeanAll(const Var& a) {
  const float inv = 1.f / static_cast<float>(a.value().numel());
  return MakeOp(ops::MeanAll(a.value()), {&a}, [&] {
    auto na = a.node();
    return [na, inv](const Tensor& g) {
      na->AccumulateGrad(Tensor::Full(na->value.shape(), g.data()[0] * inv));
    };
  });
}

Var SumAxis(const Var& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.value().ndim();
  return MakeOp(ops::SumAxis(a.value(), axis, keepdim), {&a}, [&] {
    auto na = a.node();
    return [na, axis, keepdim](const Tensor& g) {
      Tensor gk = g;
      if (!keepdim) {
        Shape s = g.shape();
        s.insert(s.begin() + axis, 1);
        gk = g.Reshape(s);
      }
      na->AccumulateGrad(ops::BroadcastTo(gk, na->value.shape()));
    };
  });
}

Var MeanAxis(const Var& a, int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.value().ndim();
  const float inv = 1.f / static_cast<float>(a.value().shape()[axis]);
  return MulScalar(SumAxis(a, axis, keepdim), inv);
}

Var SoftmaxLastDim(const Var& a) {
  Tensor out = ops::SoftmaxLastDim(a.value());
  return MakeOp(out, {&a}, [&] {
    auto na = a.node();
    return [na, out](const Tensor& g) {
      // ds = s * (g - sum(g*s, last, keepdim))
      Tensor gs = ops::Mul(g, out);
      Tensor dot = ops::SumAxis(gs, out.ndim() - 1, /*keepdim=*/true);
      na->AccumulateGrad(ops::Mul(out, ops::Sub(g, dot)));
    };
  });
}

Var Slice(const Var& a, int64_t axis, int64_t start, int64_t end) {
  if (axis < 0) axis += a.value().ndim();
  Tensor out = ops::Slice(a.value(), axis, start, end);
  return MakeOp(std::move(out), {&a}, [&] {
    auto na = a.node();
    return [na, axis, start](const Tensor& g) {
      // Scatter g back into a zero tensor of the input shape.
      Tensor full = Tensor::Zeros(na->value.shape());
      int64_t outer = 1, inner = 1;
      const Shape& s = na->value.shape();
      for (int64_t i = 0; i < axis; ++i) outer *= s[i];
      for (size_t i = axis + 1; i < s.size(); ++i) inner *= s[i];
      const int64_t n = s[axis];
      const int64_t len = g.shape()[axis];
      const float* pg = g.data();
      float* pf = full.data();
      for (int64_t o = 0; o < outer; ++o) {
        std::copy(pg + o * len * inner, pg + (o + 1) * len * inner,
                  pf + (o * n + start) * inner);
      }
      na->AccumulateGrad(full);
    };
  });
}

Var Concat(const std::vector<Var>& parts, int64_t axis) {
  EALGAP_CHECK(!parts.empty());
  // Single-part concat is the identity: same values bit-for-bit, and the
  // part's own node already carries the right gradient plumbing. Skipping
  // the copy keeps degenerate call sites allocation-free on the serve path.
  if (parts.size() == 1) return parts[0];
  if (axis < 0) axis += parts[0].value().ndim();
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Var& p : parts) values.push_back(p.value());
  Tensor out = ops::Concat(values, axis);
  return MakeOpN(std::move(out), parts, [&] {
    std::vector<NodePtr> nodes;
    std::vector<int64_t> sizes;
    nodes.reserve(parts.size());
    sizes.reserve(parts.size());
    for (const Var& p : parts) {
      nodes.push_back(p.node());
      sizes.push_back(p.value().shape()[axis]);
    }
    return [nodes = std::move(nodes), sizes = std::move(sizes),
            axis](const Tensor& g) {
      int64_t offset = 0;
      for (size_t i = 0; i < nodes.size(); ++i) {
        nodes[i]->AccumulateGrad(
            ops::Slice(g, axis, offset, offset + sizes[i]));
        offset += sizes[i];
      }
    };
  });
}

Var Stack(const std::vector<Var>& parts) {
  EALGAP_CHECK(!parts.empty());
  std::vector<Var> reshaped;
  reshaped.reserve(parts.size());
  for (const Var& p : parts) {
    Shape s = p.value().shape();
    s.insert(s.begin(), 1);
    reshaped.push_back(Reshape(p, std::move(s)));
  }
  return Concat(reshaped, 0);
}

Var Reshape(const Var& a, Shape shape) {
  Tensor out = a.value().Reshape(shape);
  return MakeOp(std::move(out), {&a}, [&] {
    auto na = a.node();
    return [na](const Tensor& g) {
      na->AccumulateGrad(g.Reshape(na->value.shape()));
    };
  });
}

}  // namespace ealgap
