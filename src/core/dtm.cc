#include "src/core/dtm.h"

namespace wayfinder {

DtmPrediction DeepTuneModel::Predict(const std::vector<double>& x, size_t head) {
  trunk_.PredictRow(x);
  return Prediction(0, head);
}

std::vector<DtmPrediction> DeepTuneModel::PredictBatch(
    const std::vector<std::vector<double>>& xs, size_t head) {
  std::vector<DtmPrediction> predictions(trunk_.PredictRows(xs));
  for (size_t i = 0; i < predictions.size(); ++i) {
    predictions[i] = Prediction(i, head);
  }
  return predictions;
}

}  // namespace wayfinder
