// The three benchmark workloads. Each builds its inputs from args.seed,
// drives the library only through its public APIs, checks the outputs, and
// fills `report` with the end-to-end metrics (args.trace = false) or the
// per-layer metrics (args.trace = true).
#ifndef PERFBENCH_NATIVE_WORKLOADS_H_
#define PERFBENCH_NATIVE_WORKLOADS_H_

#include "common.h"

namespace perfbench {

// wdrift / ddrift: closed-loop Warper::Invoke walks (adapt_walk.cc).
void RunAdaptWorkload(const Args& args, Report* report);

// serve: open-loop estimates against a 2-tenant ServingFleet while the
// tenants adapt (serve_load.cc).
void RunServeWorkload(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_NATIVE_WORKLOADS_H_
