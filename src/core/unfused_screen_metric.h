// Test/bench support: the pre-fusion screened baseline.
//
// UnfusedScreenMetric forwards every kernel to a wrapped metric but
// deliberately does NOT override Metric::ScreenedRelaxTile or
// Metric::ScreenedRelaxRows, so screened tile sweeps and single-query GMM
// sweeps over it run the BASE materialize-then-collect loops (fp32 tile or
// buffer through DistanceTileF32 / DistanceToManyF32 + CollectScreenRescues
// + batched DistanceRowsMany) on the wrapped metric's fp32 kernels.
// screen_test pins the fused kernels' results and exact-eval accounting
// against it, and BM_FusedScreenRelaxDenseUnfused reports its timing as the
// fused speedup's denominator. Not used by any production path.

#ifndef DIVERSE_CORE_UNFUSED_SCREEN_METRIC_H_
#define DIVERSE_CORE_UNFUSED_SCREEN_METRIC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/metric.h"
#include "core/point.h"

namespace diverse {

class UnfusedScreenMetric final : public Metric {
 public:
  /// Wraps `base`, which must outlive this object.
  explicit UnfusedScreenMetric(const Metric* base) : base_(base) {}

  double Distance(const Point& a, const Point& b) const override {
    return base_->Distance(a, b);
  }
  void DistanceToMany(const Point& query, const Dataset& data, size_t begin,
                      std::span<double> out) const override {
    base_->DistanceToMany(query, data, begin, out);
  }
  void DistanceTile(const Dataset& queries, size_t q_begin, size_t nq,
                    const Dataset& data, size_t r_begin, size_t nr,
                    double* out, size_t out_stride) const override {
    base_->DistanceTile(queries, q_begin, nq, data, r_begin, nr, out,
                        out_stride);
  }
  void DistanceTileF32(const Dataset& queries, size_t q_begin, size_t nq,
                       const Dataset& data, size_t r_begin, size_t nr,
                       float* out, size_t out_stride) const override {
    base_->DistanceTileF32(queries, q_begin, nq, data, r_begin, nr, out,
                           out_stride);
  }
  void DistanceToManyF32(const Point& query, const Dataset& data,
                         size_t begin, std::span<float> out) const override {
    base_->DistanceToManyF32(query, data, begin, out);
  }
  double DistanceRows(const Dataset& a, size_t i, const Dataset& b,
                      size_t j) const override {
    return base_->DistanceRows(a, i, b, j);
  }
  void DistanceRowsMany(const Dataset& a, size_t i, const Dataset& b,
                        std::span<const uint32_t> rows,
                        double* out) const override {
    base_->DistanceRowsMany(a, i, b, rows, out);
  }
  // ScreenedRelaxTile / ScreenedRelaxRows deliberately NOT overridden: the
  // base unfused loops are the point of this wrapper.
  ScreenBound ScreenErrorBound(const Dataset& queries,
                               const Dataset& data) const override {
    return base_->ScreenErrorBound(queries, data);
  }
  ScreenBound ScreenErrorBound(const Point& query,
                               const Dataset& data) const override {
    return base_->ScreenErrorBound(query, data);
  }
  bool ScreeningProfitable() const override {
    return base_->ScreeningProfitable();
  }
  bool ScreeningProfitableFor(const Dataset& queries,
                              const Dataset& data) const override {
    return base_->ScreeningProfitableFor(queries, data);
  }
  bool ScreeningProfitableFor(const Point& query,
                              const Dataset& data) const override {
    return base_->ScreeningProfitableFor(query, data);
  }
  bool RelaxTileScreeningProfitableFor(const Dataset& queries,
                                       const Dataset& data) const override {
    return base_->RelaxTileScreeningProfitableFor(queries, data);
  }
  std::string Name() const override {
    return "unfused(" + base_->Name() + ")";
  }

 private:
  const Metric* base_;
};

}  // namespace diverse

#endif  // DIVERSE_CORE_UNFUSED_SCREEN_METRIC_H_
