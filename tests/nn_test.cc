#include <cmath>

#include <gtest/gtest.h>

#include "common/record_io.h"
#include "common/rng.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "nn/rnn_cells.h"
#include "nn/serialize.h"
#include "tests/gradcheck.h"

namespace ealgap {
namespace {

using ::ealgap::testing::ExpectGradientsMatch;

TEST(ModuleTest, RegistersParametersHierarchically) {
  Rng rng(1);
  nn::GruCell cell(2, 3, rng);
  // 3 input projections with bias + 3 hidden projections without.
  EXPECT_EQ(cell.Parameters().size(), 9u);
  bool found = false;
  for (const auto& [name, p] : cell.NamedParameters()) {
    if (name == "iz.weight") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(cell.NumParameters(), 3 * (2 * 3 + 3) + 3 * 3 * 3);
}

TEST(ModuleTest, ZeroGradResetsAll) {
  Rng rng(1);
  nn::Linear fc(2, 2, rng);
  Var out = SumAll(fc.Forward(Var::Leaf(Tensor::Ones({1, 2}))));
  Backward(out);
  fc.ZeroGrad();
  for (Var& p : fc.Parameters()) {
    for (int64_t i = 0; i < p.grad().numel(); ++i) {
      EXPECT_EQ(p.grad().data()[i], 0.f);
    }
  }
}

TEST(InitTest, XavierBoundsAndHeMoments) {
  Rng rng(2);
  Tensor x = nn::XavierUniform({50, 50}, 50, 50, rng);
  const float bound = std::sqrt(6.f / 100.f);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(x.data()[i]), bound);
  }
  Tensor h = nn::HeNormal({80, 80}, 80, rng);
  double ss = 0;
  for (int64_t i = 0; i < h.numel(); ++i) ss += h.data()[i] * h.data()[i];
  EXPECT_NEAR(ss / h.numel(), 2.0 / 80, 0.01);
}

TEST(LinearTest, KnownAffineMap) {
  Rng rng(1);
  nn::Linear fc(2, 1, rng);
  const_cast<Tensor&>(fc.weight().value()).CopyFrom(
      Tensor::FromVector({2, 1}, {2.f, 3.f}));
  const_cast<Tensor&>(fc.bias().value()).CopyFrom(
      Tensor::FromVector({1}, {0.5f}));
  Var out = fc.Forward(Var::Leaf(Tensor::FromVector({1, 2}, {10.f, 1.f})));
  EXPECT_FLOAT_EQ(out.value().at({0, 0}), 23.5f);
}

TEST(LinearTest, HandlesHigherRankInputs) {
  Rng rng(1);
  nn::Linear fc(3, 4, rng);
  Var out = fc.Forward(Var::Leaf(Tensor::Ones({2, 5, 3})));
  EXPECT_EQ(out.value().shape(), (Shape{2, 5, 4}));
}

TEST(LinearTest, GradCheck) {
  Rng rng(5);
  nn::Linear fc(3, 2, rng);
  Tensor x = Tensor::Randn({4, 3}, rng);
  // Check gradients w.r.t. weight and bias via the module parameters.
  fc.ZeroGrad();
  Var out = fc.Forward(Var::Leaf(x));
  Var loss = MeanAll(Mul(out, out));
  Backward(loss);
  // Numeric check on one weight element.
  Tensor& w = const_cast<Tensor&>(fc.weight().value());
  const float orig = w.at({1, 0});
  const float eps = 1e-3f;
  auto eval = [&] {
    NoGradGuard g;
    Var o = fc.Forward(Var::Leaf(x));
    return MeanAll(Mul(o, o)).value().data()[0];
  };
  w.at({1, 0}) = orig + eps;
  const float up = eval();
  w.at({1, 0}) = orig - eps;
  const float down = eval();
  w.at({1, 0}) = orig;
  Var wp = fc.weight();
  EXPECT_NEAR(wp.grad().at({1, 0}), (up - down) / (2 * eps), 2e-2);
}

// --- recurrent cells --------------------------------------------------------

TEST(RnnCellsTest, OutputShapesAndBounds) {
  Rng rng(3);
  const int64_t batch = 4, input = 3, hidden = 5;
  Var x = Var::Leaf(Tensor::Randn({batch, input}, rng));
  nn::RnnCell rnn(input, hidden, rng);
  Var h = rnn.Forward(x, nn::ZeroState(batch, hidden));
  EXPECT_EQ(h.value().shape(), (Shape{batch, hidden}));
  for (int64_t i = 0; i < h.value().numel(); ++i) {
    EXPECT_LE(std::fabs(h.value().data()[i]), 1.f);  // tanh bounded
  }
  nn::GruCell gru(input, hidden, rng);
  EXPECT_EQ(gru.Forward(x, nn::ZeroState(batch, hidden)).value().shape(),
            (Shape{batch, hidden}));
  nn::LstmCell lstm(input, hidden, rng);
  auto state = lstm.Forward(x, {nn::ZeroState(batch, hidden),
                                nn::ZeroState(batch, hidden)});
  EXPECT_EQ(state.h.value().shape(), (Shape{batch, hidden}));
  EXPECT_EQ(state.c.value().shape(), (Shape{batch, hidden}));
}

TEST(RnnCellsTest, GruStatePersistenceMatters) {
  // Feeding the same input twice with carried state must differ from a
  // fresh state (the cell actually uses its hidden input).
  Rng rng(4);
  nn::GruCell gru(2, 3, rng);
  Var x = Var::Leaf(Tensor::Ones({1, 2}));
  Var h1 = gru.Forward(x, nn::ZeroState(1, 3));
  Var h2 = gru.Forward(x, h1);
  bool differs = false;
  for (int64_t i = 0; i < 3; ++i) {
    if (std::fabs(h1.value().data()[i] - h2.value().data()[i]) > 1e-6) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(RnnCellsTest, GradientsFlowThroughUnrolledGru) {
  Rng rng(6);
  nn::GruCell gru(1, 4, rng);
  std::vector<Var> steps;
  for (int t = 0; t < 3; ++t) {
    steps.push_back(Var::Leaf(Tensor::Full({2, 1}, 0.5f + t)));
  }
  Var h = RunGru(gru, steps, nn::ZeroState(2, 4));
  Backward(SumAll(h));
  double total = 0;
  for (Var& p : gru.Parameters()) {
    for (int64_t i = 0; i < p.grad().numel(); ++i) {
      total += std::fabs(p.grad().data()[i]);
    }
  }
  EXPECT_GT(total, 1e-4);
}

TEST(RnnCellsTest, GruParameterGradientsMatchFiniteDifferences) {
  // Checks the analytic gradient of every GruCell parameter (all six
  // Linears: update/reset/candidate gates, input and hidden sides) against
  // central finite differences through a 3-step unroll.
  Rng rng(7);
  nn::GruCell gru(2, 3, rng);
  std::vector<Tensor> inputs;
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(Tensor::Randn({2, 2}, rng));
  }
  testing::ExpectParameterGradientsMatch(gru, [&]() {
    std::vector<Var> steps;
    for (const Tensor& x : inputs) steps.push_back(Var::Leaf(x.Clone()));
    return SumAll(RunGru(gru, steps, nn::ZeroState(2, 3)));
  });
}

// --- conv -------------------------------------------------------------------

// Naive direct convolution as the reference implementation.
Tensor NaiveConv(const Tensor& x, const Tensor& w2d, int64_t out_ch,
                 int64_t k, int64_t pad) {
  const int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), wdt = x.dim(3);
  Tensor out = Tensor::Zeros({b, out_ch, h, wdt});  // stride 1, same pad
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t oc = 0; oc < out_ch; ++oc) {
      for (int64_t i = 0; i < h; ++i) {
        for (int64_t j = 0; j < wdt; ++j) {
          float acc = 0.f;
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t ki = 0; ki < k; ++ki) {
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t ii = i - pad + ki, jj = j - pad + kj;
                if (ii < 0 || ii >= h || jj < 0 || jj >= wdt) continue;
                acc += x.at({bi, ci, ii, jj}) *
                       w2d.at({oc, (ci * k + ki) * k + kj});
              }
            }
          }
          out.at({bi, oc, i, j}) = acc;
        }
      }
    }
  }
  return out;
}

TEST(Conv2dTest, MatchesNaiveReference) {
  Rng rng(8);
  nn::Conv2d conv(2, 3, 3, rng, /*stride=*/1, /*padding=*/1,
                  /*has_bias=*/false);
  Tensor x = Tensor::Randn({2, 2, 4, 5}, rng);
  NoGradGuard no_grad;
  Var out = conv.Forward(Var::Leaf(x));
  // Extract the weight to run the reference.
  const Tensor& w = conv.Parameters()[0].value();
  Tensor ref = NaiveConv(x, w, 3, 3, 1);
  ASSERT_EQ(out.value().shape(), ref.shape());
  for (int64_t i = 0; i < ref.numel(); ++i) {
    EXPECT_NEAR(out.value().data()[i], ref.data()[i], 1e-4);
  }
}

TEST(Conv2dTest, Im2ColGradCheck) {
  Rng rng(9);
  Tensor x = Tensor::Randn({1, 2, 3, 3}, rng);
  ExpectGradientsMatch({x}, [](std::vector<Var>& v) {
    Var cols = nn::Im2Col(v[0], 2, 1, 0);
    return SumAll(Mul(cols, cols));
  });
}

TEST(Conv2dTest, OutputSpatialDims) {
  Rng rng(10);
  nn::Conv2d conv(1, 1, 3, rng, /*stride=*/2, /*padding=*/1);
  NoGradGuard no_grad;
  Var out = conv.Forward(Var::Leaf(Tensor::Ones({1, 1, 7, 7})));
  EXPECT_EQ(out.value().shape(), (Shape{1, 1, 4, 4}));
}

// --- losses -----------------------------------------------------------------

TEST(LossTest, MseKnownValue) {
  Var pred = Var::Leaf(Tensor::FromVector({2}, {1.f, 3.f}), true);
  Var target = Var::Leaf(Tensor::FromVector({2}, {0.f, 0.f}));
  EXPECT_FLOAT_EQ(nn::MseLoss(pred, target).value().data()[0], 5.f);
  EXPECT_FLOAT_EQ(nn::MaeLoss(pred, target).value().data()[0], 2.f);
}

TEST(LossTest, HuberBetweenMaeAndMse) {
  Rng rng(2);
  Tensor p = Tensor::Randn({16}, rng, 0.f, 3.f);
  Var pred = Var::Leaf(p, true);
  Var target = Var::Leaf(Tensor::Zeros({16}));
  const float huber = nn::HuberLoss(pred, target, 1.f).value().data()[0];
  const float mse = nn::MseLoss(pred, target).value().data()[0];
  EXPECT_LT(huber, mse);  // pseudo-Huber grows linearly in the tails
  EXPECT_GT(huber, 0.f);
}

TEST(LossTest, EvlUpweightsExtremes) {
  nn::EvlConfig config;
  config.high_threshold = 10.f;
  config.low_threshold = -10.f;
  config.beta = 2.f;
  config.gamma = 1.f;
  // One extreme target, one normal; identical absolute errors.
  Var pred = Var::Leaf(Tensor::FromVector({2}, {21.f, 1.f}), true);
  Var target = Var::Leaf(Tensor::FromVector({2}, {20.f, 0.f}));
  const float evl = nn::EvlLoss(pred, target, config).value().data()[0];
  // Plain MSE would be 1.0; the extreme element weight is
  // beta*(1-0.5)^-1 = 4 -> (4 + 1)/2 = 2.5.
  EXPECT_NEAR(evl, 2.5f, 1e-5);
}

TEST(LossTest, EvlReducesToWeightedMseGradients) {
  Rng rng(3);
  Tensor p = Tensor::Rand({8}, rng, 0.f, 2.f);
  nn::EvlConfig config;
  config.high_threshold = 100.f;  // nothing extreme
  config.low_threshold = -100.f;
  Var pred = Var::Leaf(p, true);
  Var target = Var::Leaf(Tensor::Zeros({8}));
  Var loss = nn::EvlLoss(pred, target, config);
  Backward(loss);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(pred.grad().data()[i], 2.f * p.data()[i] / 8.f, 1e-5);
  }
}

// --- optimizers -------------------------------------------------------------

// Fits y = 2x - 1 with a single Linear layer.
template <typename MakeOpt>
double FitLinearRegression(MakeOpt make_opt, int steps) {
  Rng rng(11);
  nn::Linear fc(1, 1, rng);
  auto opt = make_opt(fc.Parameters());
  Tensor x = Tensor::Rand({32, 1}, rng, -1.f, 1.f);
  Tensor y(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    y.data()[i] = 2.f * x.data()[i] - 1.f;
  }
  double last = 0;
  for (int s = 0; s < steps; ++s) {
    fc.ZeroGrad();
    Var loss = nn::MseLoss(fc.Forward(Var::Leaf(x)), Var::Leaf(y));
    Backward(loss);
    opt->Step();
    last = loss.value().data()[0];
  }
  return last;
}

TEST(OptimizerTest, SgdConvergesOnLinearRegression) {
  const double loss = FitLinearRegression(
      [](std::vector<Var> p) {
        return std::make_unique<nn::Sgd>(std::move(p), 0.2f);
      },
      200);
  EXPECT_LT(loss, 1e-3);
}

TEST(OptimizerTest, SgdMomentumConvergesFaster) {
  const double plain = FitLinearRegression(
      [](std::vector<Var> p) {
        return std::make_unique<nn::Sgd>(std::move(p), 0.05f);
      },
      80);
  const double momentum = FitLinearRegression(
      [](std::vector<Var> p) {
        return std::make_unique<nn::Sgd>(std::move(p), 0.05f, 0.9f);
      },
      80);
  EXPECT_LT(momentum, plain);
}

TEST(OptimizerTest, AdamConvergesOnLinearRegression) {
  const double loss = FitLinearRegression(
      [](std::vector<Var> p) {
        return std::make_unique<nn::Adam>(std::move(p), 0.05f);
      },
      300);
  EXPECT_LT(loss, 1e-3);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Var p = Var::Leaf(Tensor::Zeros({2}), true);
  p.grad().CopyFrom(Tensor::FromVector({2}, {3.f, 4.f}));  // norm 5
  std::vector<Var> params{p};
  const float before = nn::ClipGradNorm(params, 1.f);
  EXPECT_FLOAT_EQ(before, 5.f);
  EXPECT_NEAR(params[0].grad().at({0}), 0.6f, 1e-5);
  EXPECT_NEAR(params[0].grad().at({1}), 0.8f, 1e-5);
  // Under the cap: untouched.
  const float again = nn::ClipGradNorm(params, 10.f);
  EXPECT_NEAR(again, 1.f, 1e-5);
  EXPECT_NEAR(params[0].grad().at({0}), 0.6f, 1e-5);
}

// --- serialization ----------------------------------------------------------

TEST(SerializeTest, RecordRoundTripRestoresEveryParameterBitExactly) {
  Rng rng(13);
  nn::GruCell a(2, 3, rng), b(2, 3, rng);
  const std::string path = ::testing::TempDir() + "/gru.params";
  RecordWriter writer("params", 1);
  writer.Section("params");
  nn::PutTensors(writer, nn::ParameterMap(a));
  ASSERT_TRUE(writer.Commit(path).ok());

  auto reader = RecordReader::Open(path, "params", 1);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto section = reader->Section("params");
  ASSERT_TRUE(section.ok());
  std::map<std::string, Tensor> loaded;
  ASSERT_TRUE(nn::ReadTensors(*section, &loaded).ok());
  ASSERT_TRUE(section->Finish().ok());
  ASSERT_TRUE(nn::ApplyParameters(b, loaded, path).ok());
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    const Tensor& ta = pa[i].second.value();
    const Tensor& tb = pb[i].second.value();
    ASSERT_EQ(ta.shape(), tb.shape()) << pa[i].first;
    for (int64_t j = 0; j < ta.numel(); ++j) {
      EXPECT_EQ(ta.data()[j], tb.data()[j]) << pa[i].first;
    }
  }
}

TEST(SerializeTest, MissingParameterIsNotFound) {
  Rng rng(13);
  nn::Linear small(2, 2, rng);
  nn::GruCell big(2, 3, rng);
  EXPECT_EQ(
      nn::ApplyParameters(big, nn::ParameterMap(small), "small").code(),
      StatusCode::kNotFound);
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(13);
  nn::Linear a(2, 2, rng), b(2, 3, rng);
  EXPECT_EQ(nn::ApplyParameters(b, nn::ParameterMap(a), "a").code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ealgap
