#include "learn/logistic.h"

#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace topkdup::learn {

namespace {

constexpr int kEpochs = 200;
constexpr double kLearningRate = 0.5;
constexpr double kL2 = 1e-4;
constexpr uint64_t kShuffleSeed = 17;

double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

double LogisticModel::Score(const std::vector<double>& x) const {
  double z = bias_;
  const size_t d = std::min(x.size(), weights_.size());
  for (size_t i = 0; i < d; ++i) z += weights_[i] * x[i];
  return z;
}

double LogisticModel::Probability(const std::vector<double>& x) const {
  return Sigmoid(Score(x));
}

StatusOr<LogisticModel> TrainLogistic(
    const std::vector<std::vector<double>>& examples,
    const std::vector<int>& labels) {
  if (examples.empty()) {
    return Status::InvalidArgument("TrainLogistic: no examples");
  }
  if (examples.size() != labels.size()) {
    return Status::InvalidArgument("TrainLogistic: label count mismatch");
  }
  const size_t dim = examples[0].size();
  for (const auto& x : examples) {
    if (x.size() != dim) {
      return Status::InvalidArgument("TrainLogistic: ragged examples");
    }
  }
  bool has_pos = false;
  bool has_neg = false;
  for (int y : labels) {
    if (y != 0 && y != 1) {
      return Status::InvalidArgument("TrainLogistic: labels must be 0/1");
    }
    (y == 1 ? has_pos : has_neg) = true;
  }
  if (!has_pos || !has_neg) {
    return Status::FailedPrecondition(
        "TrainLogistic: need both positive and negative examples");
  }

  std::vector<double> w(dim, 0.0);
  double b = 0.0;
  Rng rng(kShuffleSeed);
  std::vector<size_t> order(examples.size());
  std::iota(order.begin(), order.end(), size_t{0});

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    rng.Shuffle(&order);
    const double lr =
        kLearningRate / (1.0 + 0.05 * static_cast<double>(epoch));
    for (size_t idx : order) {
      const std::vector<double>& x = examples[idx];
      double z = b;
      for (size_t i = 0; i < dim; ++i) z += w[i] * x[i];
      const double grad = Sigmoid(z) - static_cast<double>(labels[idx]);
      for (size_t i = 0; i < dim; ++i) {
        w[i] -= lr * (grad * x[i] + kL2 * w[i]);
      }
      b -= lr * grad;
    }
  }
  return LogisticModel(std::move(w), b);
}

}  // namespace topkdup::learn
