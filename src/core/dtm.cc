#include "src/core/dtm.h"

namespace wayfinder {

DtmPrediction DeepTuneModel::Predict(const std::vector<double>& x, size_t head) {
  trunk_.PredictRow(x);
  return Prediction(0, head);
}

}  // namespace wayfinder
