#include "sim/task_logic.h"

#include <cmath>
#include <stdexcept>

namespace esp::sim {

StatelessLogic::StatelessLogic(Params params) : params_(std::move(params)) {
  if (params_.service_mean < 0) {
    throw std::invalid_argument("StatelessLogic: negative service time");
  }
  if (params_.service_mean > 0 && params_.service_cv > 0) {
    service_ = LogNormalParams::FromMeanCv(params_.service_mean, params_.service_cv);
  }
}

double StatelessLogic::OnItem(SimTime now, const SimItem& item, Rng& rng,
                              std::vector<EmitRequest>& out) {
  for (std::size_t i = 0; i < params_.outputs.size(); ++i) {
    const Output& o = params_.outputs[i];
    if (o.input_tag_filter != 255 && item.tag != o.input_tag_filter) continue;
    double selectivity = o.selectivity;
    if (i == 0 && params_.selectivity_override) {
      selectivity = params_.selectivity_override(item, now);
    }
    // Emit floor(s) items plus one more with the fractional probability, so
    // the expected emission count equals the selectivity.
    std::uint32_t copies = static_cast<std::uint32_t>(selectivity);
    if (rng.Bernoulli(selectivity - static_cast<double>(copies))) ++copies;
    for (std::uint32_t c = 0; c < copies; ++c) {
      EmitRequest req;
      req.output_index = o.output_index;
      req.size_bytes = o.size_bytes;
      req.key = o.key_from_input ? item.key : rng.Next();
      req.tag = o.tag;
      req.inherit_lineage = true;
      out.push_back(req);
    }
  }
  if (params_.service_mean <= 0) return 0.0;
  if (params_.service_cv <= 0) return params_.service_mean;
  return rng.LogNormal(service_.mu, service_.sigma);
}

WindowedLogic::WindowedLogic(Params params) : params_(std::move(params)) {
  if (params_.window <= 0) throw std::invalid_argument("WindowedLogic: window must be > 0");
}

double WindowedLogic::OnItem(SimTime, const SimItem&, Rng&, std::vector<EmitRequest>&) {
  ++items_in_window_;
  return params_.per_item_cost;
}

double WindowedLogic::OnTimer(SimTime, Rng&, std::vector<EmitRequest>& out) {
  if (items_in_window_ == 0 && !params_.emit_when_empty) return 0.0;
  items_in_window_ = 0;
  for (std::uint32_t idx : params_.output_indices) {
    EmitRequest req;
    req.output_index = idx;
    req.size_bytes = params_.aggregate_size_bytes;
    req.tag = params_.aggregate_tag;
    req.inherit_lineage = false;  // window result: fresh lineage + sampled probe
    out.push_back(req);
  }
  return params_.per_window_cost;
}

SourceLogic::SourceLogic(Params params) : params_(std::move(params)) {
  if (!params_.schedule) throw std::invalid_argument("SourceLogic: schedule required");
  if (params_.interval_cv > 0.0) {
    interval_sigma2_ = LogNormalParams::Sigma2(params_.interval_cv);
    interval_sigma_ = std::sqrt(interval_sigma2_);
  }
}

double SourceLogic::NextInterval(SimTime now, Rng& rng) const {
  const double rate = params_.schedule->RateAt(now);
  const SimTime end = params_.schedule->EndTime();
  if (rate <= 0.0) {
    // Paused or finished: poll again shortly unless the schedule is over.
    if (end > 0 && now >= end) return -1.0;
    return 0.050;
  }
  const double mean = 1.0 / rate;
  if (params_.interval_cv <= 0.0) return mean;
  if (params_.interval_cv == 1.0) return rng.Exponential(rate);
  // = rng.LogNormalMeanCv(mean, interval_cv) with the cv terms hoisted.
  return rng.LogNormal(std::log(mean) - 0.5 * interval_sigma2_, interval_sigma_);
}

void SourceLogic::MakeEmissions(SimTime now, Rng& rng, std::vector<EmitRequest>& out) const {
  const std::uint64_t key = params_.key_fn ? params_.key_fn(now, rng) : 0;
  for (std::uint32_t idx : params_.output_indices) {
    EmitRequest req;
    req.output_index = idx;
    req.size_bytes = params_.item_size_bytes;
    req.key = key;
    req.tag = params_.item_tag;
    req.inherit_lineage = false;  // sources originate lineage
    out.push_back(req);
  }
}

}  // namespace esp::sim
