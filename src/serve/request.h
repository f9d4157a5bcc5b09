// The serving request/response surface.
//
// One struct in, one struct out: every estimate — single-tenant
// EstimationServer or multi-tenant ServingFleet, blocking or async — takes
// an EstimateRequest and yields an EstimateResponse. The struct form exists
// so the surface can grow (tenant routing, deadlines, priorities, and
// whatever comes next) without another positional-parameter migration.
#ifndef WARPER_SERVE_REQUEST_H_
#define WARPER_SERVE_REQUEST_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace warper::serve {

struct EstimateRequest {
  // Which estimator answers: a ServingFleet routes on it; a standalone
  // EstimationServer ignores it (and echoes it back in the response).
  uint64_t tenant_id = 0;
  // The featurized predicate, in the tenant domain's featurization width.
  std::vector<double> features;
  // Answer-by deadline in µs from submission; 0 falls back to the
  // ServeConfig default (whose 0 means no deadline). A request still queued
  // past its deadline is answered DeadlineExceeded.
  int64_t deadline_us = 0;
  // Admission hint: requests with priority > 0 bypass the fleet's
  // per-tenant shed budget (ServeConfig::tenant_shed_budget) — they are
  // still bounded by the tenant's queue capacity. 0 is the normal lane.
  int32_t priority = 0;
};

struct EstimateResponse {
  // Estimated cardinality.
  double estimate = 0.0;
  // The snapshot version that computed it — consecutive responses with the
  // same (tenant_id, version) came from bit-identical weights.
  uint64_t version = 0;
  // Echo of the request's tenant_id (the tenant that actually served it).
  uint64_t tenant_id = 0;
};

// The admission check every serving entry point runs before a request can
// reach a batch or a template tracker: InvalidArgument unless `features` is
// exactly `dim` wide and every entry is finite (a NaN feature would come
// back as a NaN estimate).
inline Status CheckFeatures(const std::vector<double>& features, size_t dim) {
  if (features.size() != dim) {
    return Status::InvalidArgument("got " + std::to_string(features.size()) +
                                   " features; domain expects " +
                                   std::to_string(dim));
  }
  for (double v : features) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("features must be finite");
    }
  }
  return Status::OK();
}

// Per-tenant metric instance name: family "serve.tenant.<what>" plus the
// tenant id, e.g. TenantMetricName("serve.tenant.rollbacks", 7) ==
// "serve.tenant.rollbacks.7". tools/lint_invariants.py recognizes the
// family literal at TenantMetricName call sites, so families stay subject
// to the bidirectional metric-name check even though the full instance
// names are dynamic.
inline std::string TenantMetricName(const char* family, uint64_t tenant_id) {
  return std::string(family) + "." + std::to_string(tenant_id);
}

}  // namespace warper::serve

#endif  // WARPER_SERVE_REQUEST_H_
